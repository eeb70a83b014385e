"""The stable ``repro.api`` facade and the removed ``repro.eval`` shims."""

import warnings

import pytest

from repro import api
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, run_spec

FAST = ExperimentConfig(duration=3.0)


class TestFacade:
    def test_exports_everything_promised(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_importable_without_deprecation_warnings(self):
        # The facade must not route through its own compatibility shims.
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(api)

    def test_run_scenario_matches_run_spec(self):
        spec = ScenarioSpec("internet", "legacy", 2, config=FAST)
        assert api.run_scenario(spec) == run_spec(spec)

    def test_run_scenario_builds_spec_from_kwargs(self):
        spec = ScenarioSpec("internet", "legacy", 2, config=FAST)
        by_kwargs = api.run_scenario(scheme="internet", attack="legacy",
                                     n_attackers=2, config=FAST)
        assert by_kwargs == run_spec(spec)

    def test_run_scenario_rejects_spec_plus_kwargs(self):
        spec = ScenarioSpec("internet", "legacy", 2, config=FAST)
        with pytest.raises(TypeError):
            api.run_scenario(spec, scheme="tva")

    def test_run_scenario_uses_the_cache(self, tmp_path):
        cache = api.ResultCache(tmp_path)
        spec = ScenarioSpec("internet", "legacy", 1, config=FAST)
        cold = api.run_scenario(spec, cache=cache)
        warm = api.run_scenario(spec, cache=cache)
        assert warm == cold
        assert cache.hits == 1

    def test_sweep_aggregates_points(self):
        specs = [ScenarioSpec("internet", "legacy", n, config=FAST)
                 for n in (1, 2)]
        result = api.sweep(specs, jobs=2, seeds=2, title="t")
        assert len(result.points) == 2
        assert all(p.n_seeds == 2 for p in result.points)


class TestSchemeRegistry:
    def test_registry_names_are_stable(self):
        expected = ["tva", "siff", "pushback", "internet", "netfence"]
        assert list(api.SCHEMES) == expected
        assert api.scheme_names() == tuple(expected)

    def test_build_scheme_constructs_each(self):
        for name in api.scheme_names():
            scheme = api.build_scheme(name, seed=7)
            assert hasattr(scheme, "make_router_processor")

    def test_build_scheme_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            api.build_scheme("carrier-pigeon")

    def test_build_scheme_rejects_unknown_param(self):
        with pytest.raises(TypeError, match="tva"):
            api.build_scheme("tva", warp_factor=9)

    def test_registry_values_are_knob_dataclasses(self):
        import dataclasses

        for name, knob_cls in api.SCHEMES.items():
            assert dataclasses.is_dataclass(knob_cls), name
            assert knob_cls().build(seed=7).name  # default knobs build
            assert knob_cls.scheme_name == name


class TestDeprecationShims:
    """The deprecated ``repro.eval`` paths are gone and fail loudly."""

    def test_eval_reexport_is_an_import_error(self):
        with pytest.raises(ImportError):
            from repro.eval import SweepRunner  # noqa: F401

    def test_make_scheme_is_an_import_error(self):
        with pytest.raises(ImportError):
            from repro.eval.experiments import make_scheme  # noqa: F401

    def test_unknown_name_still_raises_attribute_error(self):
        import repro.eval

        with pytest.raises(AttributeError):
            repro.eval.no_such_name
