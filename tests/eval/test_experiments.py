"""Unit tests for the experiment harness itself."""

import pytest

from repro.baselines import LegacyScheme, PushbackScheme, SiffScheme
from repro.core import TvaScheme
from repro.api import build_scheme
from repro.eval import (
    ExperimentConfig,
    Fig11Result,
    FloodResult,
    format_flood_table,
    run_flood_scenario,
)
from repro.eval.experiments import _scheme_kwargs


def make_scheme(name, config, **kwargs):
    """The scheme ``run_flood_scenario`` builds for ``config``."""
    return build_scheme(name, **_scheme_kwargs(name, config, **kwargs))


class TestMakeScheme:
    def test_all_names_resolve(self):
        config = ExperimentConfig()
        assert isinstance(make_scheme("tva", config), TvaScheme)
        assert isinstance(make_scheme("siff", config), SiffScheme)
        assert isinstance(make_scheme("pushback", config), PushbackScheme)
        assert isinstance(make_scheme("internet", config), LegacyScheme)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_scheme("bogus", ExperimentConfig())

    def test_siff_knobs_wire_through(self):
        scheme = make_scheme("siff", ExperimentConfig(),
                             siff_secret_period=3.0,
                             siff_accept_previous=False,
                             siff_mark_bits=16)
        assert scheme.secret_period == 3.0
        assert not scheme.accept_previous
        assert scheme.mark_bits == 16

    def test_tva_uses_sim_request_fraction(self):
        scheme = make_scheme("tva", ExperimentConfig())
        assert scheme.request_fraction == 0.01


class TestRunFloodScenario:
    def test_unknown_attack_falls_back_to_legacy(self):
        # The harness maps anything unrecognized to a legacy flood.
        log = run_flood_scenario("internet", "legacy", 1,
                                 ExperimentConfig(duration=3.0))
        assert log.completed > 0

    def test_no_attackers(self):
        log = run_flood_scenario("tva", "legacy", 0,
                                 ExperimentConfig(duration=3.0))
        assert log.fraction_completed(1.0) == 1.0

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(duration=3.0, seed=9)
        a = run_flood_scenario("internet", "legacy", 3, config)
        b = run_flood_scenario("internet", "legacy", 3, config)
        assert a.time_series() == b.time_series()

    def test_seed_changes_outcome_detail(self):
        a = run_flood_scenario("internet", "legacy", 3,
                               ExperimentConfig(duration=3.0, seed=1))
        b = run_flood_scenario("internet", "legacy", 3,
                               ExperimentConfig(duration=3.0, seed=2))
        assert a.time_series() != b.time_series()


class TestResultTypes:
    def test_flood_result_row_formats(self):
        row = FloodResult("tva", "legacy", 10, 1.0, 0.314, 120).row()
        assert "tva" in row and "10" in row and "0.31" in row

    def test_flood_result_row_handles_none(self):
        row = FloodResult("internet", "legacy", 100, 0.0, None, 5).row()
        assert "-" in row

    def test_format_flood_table(self):
        table = format_flood_table(
            [FloodResult("tva", "legacy", 10, 1.0, 0.31, 100)], "Title")
        assert table.startswith("Title")
        assert "tva" in table

    def test_fig11_result_metrics(self):
        result = Fig11Result(
            scheme="tva", pattern="all_at_once", attack_start=10.0,
            series=[(9.0, 0.3), (10.5, 3.0), (14.0, 0.3), (20.0, 0.3)],
        )
        assert result.max_transfer_time() == 3.0
        assert result.disruption_end() == pytest.approx(13.5)
        assert result.effective_attack_seconds() == pytest.approx(3.5)
        gaps = result.completion_gaps(min_gap=1.0)
        assert gaps  # 13.5 -> 14.3 and 14.3 -> 20.3

    def test_fig11_quiet_series(self):
        result = Fig11Result(scheme="tva", pattern="staggered",
                             series=[(t, 0.3) for t in range(30)])
        assert result.effective_attack_seconds() == 0.0

    def test_fig11_rejects_bad_pattern(self):
        from repro.eval import run_fig11_imprecise

        with pytest.raises(ValueError):
            run_fig11_imprecise("tva", "sideways")


class TestConfigRoundTrip:
    """ExperimentConfig and FloodResult must survive dict/JSON cycles so
    cached results compare equal to fresh ones."""

    def test_config_round_trips_through_dict(self):
        config = ExperimentConfig(duration=7.5, seed=3)
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config
        assert isinstance(clone.server_grant, tuple)

    def test_config_round_trips_through_json(self):
        import json

        config = ExperimentConfig()
        clone = ExperimentConfig.from_dict(json.loads(
            json.dumps(config.to_dict())))
        assert clone == config  # server_grant list -> tuple normalization

    def test_config_normalizes_list_grant(self):
        assert ExperimentConfig(server_grant=[1000, 5]) == \
            ExperimentConfig(server_grant=(1000, 5))

    def test_retired_engine_knob_is_rejected(self):
        # Older sweep manifests may still carry the removed "engine"
        # knob; loading one must fail loudly, never drop it silently.
        from repro.eval.runner import ScenarioSpec

        config = dict(ExperimentConfig().to_dict(), engine="fast")
        with pytest.raises(TypeError, match="engine"):
            ExperimentConfig.from_dict(config)
        spec = ScenarioSpec("tva", "legacy", 1).to_dict()
        spec["config"]["engine"] = "fast"
        with pytest.raises(TypeError, match="engine"):
            ScenarioSpec.from_dict(spec)

    def test_flood_result_round_trips(self):
        import json

        result = FloodResult("tva", "legacy", 10, 1.0, 0.31, 120)
        clone = FloodResult.from_dict(json.loads(
            json.dumps(result.to_dict())))
        assert clone == result

    def test_flood_result_round_trips_none_time(self):
        result = FloodResult("internet", "legacy", 100, 0.0, None, 5)
        assert FloodResult.from_dict(result.to_dict()) == result


class TestFig11ConfigIsolation:
    def test_run_fig11_does_not_mutate_callers_config(self):
        """Regression: run_fig11_imprecise used to write ``duration``
        into the caller's config in place."""
        config = ExperimentConfig(duration=15.0, seed=2)
        from repro.eval import run_fig11_imprecise

        run_fig11_imprecise("tva", "all_at_once", n_attackers=2,
                            attack_start=1.0, duration=5.0, config=config)
        assert config.duration == 15.0
        assert config == ExperimentConfig(duration=15.0, seed=2)
