"""Tests for the sweep-runner subsystem: specs, cache, parallel execution."""

import dataclasses

import pytest

from repro.api import (
    ExperimentConfig,
    ResultCache,
    ScenarioSpec,
    SweepRunner,
    build_fig11_spec,
    build_flood_specs,
    run_spec,
)
from repro.eval.results import RunResult

FAST = ExperimentConfig(duration=3.0)


class TestScenarioSpec:
    def test_key_is_stable(self):
        a = ScenarioSpec("tva", "legacy", 5, config=FAST)
        b = ScenarioSpec("tva", "legacy", 5, config=ExperimentConfig(duration=3.0))
        assert a.key() == b.key()
        assert hash(a) == hash(b)

    def test_key_changes_with_any_field(self):
        base = ScenarioSpec("tva", "legacy", 5, config=FAST)
        assert base.key() != dataclasses.replace(base, scheme="siff").key()
        assert base.key() != dataclasses.replace(base, n_attackers=6).key()
        assert base.key() != base.with_seed(2).key()
        assert base.key() != dataclasses.replace(
            base, config=dataclasses.replace(FAST, duration=4.0)).key()

    def test_key_is_hex_sha256(self):
        key = ScenarioSpec("tva", "legacy", 1).key()
        assert len(key) == 64
        int(key, 16)

    def test_with_seed(self):
        spec = ScenarioSpec("tva", "legacy", 1, seed=3)
        assert spec.with_seed(7).seed == 7
        assert spec.seed == 3  # original untouched

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ScenarioSpec("tva", "legacy", 1, policy="bogus")

    def test_specs_pickle(self):
        import pickle

        spec = ScenarioSpec("siff", "request", 4, config=FAST,
                            policy="filtering")
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSpecBuilders:
    def test_flood_specs_cover_the_grid(self):
        specs = build_flood_specs("legacy", ("tva", "siff"), (1, 10), FAST)
        assert len(specs) == 4
        assert {(s.scheme, s.n_attackers) for s in specs} == {
            ("tva", 1), ("tva", 10), ("siff", 1), ("siff", 10)}
        assert all(s.policy == "server" for s in specs)

    def test_request_specs_carry_filtering_policy(self):
        specs = build_flood_specs("request", ("tva",), (1,), FAST)
        assert specs[0].policy == "filtering"

    def test_fig11_spec_staggers_groups(self):
        spec = build_fig11_spec("siff", "staggered", duration=20.0)
        assert spec.policy == "oracle"
        assert spec.attack_groups == 10
        assert spec.group_stagger == pytest.approx(3.0)
        assert spec.config.duration == 20.0

    def test_fig11_spec_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            build_fig11_spec("tva", "sideways")

    def test_fig11_spec_copies_the_config(self):
        config = ExperimentConfig(duration=99.0)
        build_fig11_spec("tva", "all_at_once", duration=5.0, config=config)
        assert config.duration == 99.0


class TestRunSpec:
    def test_seed_overrides_config_seed(self):
        spec = ScenarioSpec("internet", "legacy", 3, seed=9,
                            config=dataclasses.replace(FAST, seed=1))
        direct = run_spec(dataclasses.replace(
            spec, config=dataclasses.replace(FAST, seed=9)))
        assert run_spec(spec).time_series == direct.time_series

    def test_result_carries_spec_key(self):
        spec = ScenarioSpec("tva", "legacy", 1, config=FAST)
        assert run_spec(spec).spec_key == spec.key()


class TestDeterminism:
    """The same spec must measure identically however it is executed."""

    def test_same_spec_twice_is_bit_identical(self):
        spec = ScenarioSpec("internet", "legacy", 3, config=FAST)
        assert run_spec(spec) == run_spec(spec)

    def test_serial_vs_parallel_identical(self):
        specs = build_flood_specs("legacy", ("tva", "internet"), (1, 3), FAST)
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        assert serial == parallel
        for a, b in zip(serial, parallel):
            assert a.time_series == b.time_series  # bit-identical summaries

    def test_parallel_preserves_input_order(self):
        specs = build_flood_specs("legacy", ("internet",), (3, 1, 2), FAST)
        runs = SweepRunner(jobs=3).run(specs)
        assert [r.n_attackers for r in runs] == [3, 1, 2]


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec("tva", "legacy", 1, config=FAST)
        assert cache.get(spec.key()) is None
        result = run_spec(spec)
        cache.put(spec.key(), result)
        assert cache.get(spec.key()) == result
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec("tva", "legacy", 1, config=FAST)
        path = cache.path_for(spec.key())
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(spec.key()) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RunResult("tva", "legacy", 1, 1, 1.0, 0.3, 10, 10,
                           spec_key="deadbeef")
        cache.put("feedface", result)
        assert cache.get("feedface") is None

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RunResult("tva", "legacy", 1, 1, 1.0, 0.3, 10, 10,
                           spec_key="aa11")
        cache.put("aa11", result)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_runner_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = build_flood_specs("legacy", ("internet",), (1, 2), FAST)
        runner = SweepRunner(jobs=1, cache=cache)
        cold = runner.run(specs)
        assert len(cache) == 2
        warm = runner.run(specs)
        assert warm == cold
        assert cache.hits == 2

    def test_cached_result_equals_fresh_run(self, tmp_path):
        """The JSON round-trip through the cache loses nothing."""
        spec = ScenarioSpec("tva", "legacy", 2, config=FAST)
        cache = ResultCache(tmp_path)
        fresh = run_spec(spec)
        cache.put(spec.key(), fresh)
        assert cache.get(spec.key()) == fresh


class TestFaultTolerance:
    """Regression: one worker exception used to abort the whole sweep,
    discarding every completed-but-uncached sibling result.  Now each
    spec is retried up to the cap, siblings always complete and cache,
    and a SweepFailure naming the losers is raised only at the end."""

    def specs_with_one_bad(self):
        good = build_flood_specs("legacy", ("internet",), (1, 2), FAST)
        # An unregistered scheme raises ValueError inside run_spec — in
        # the worker process for jobs>1, so it exercises the pool path.
        bad = dataclasses.replace(good[0], scheme="bogus")
        return [good[0], bad, good[1]]

    def assert_siblings_survive(self, jobs, tmp_path):
        from repro.eval.runner import SweepFailure

        cache = ResultCache(tmp_path)
        specs = self.specs_with_one_bad()
        runner = SweepRunner(jobs=jobs, cache=cache, retries=1)
        with pytest.raises(SweepFailure) as excinfo:
            runner.run(specs)
        failure = excinfo.value
        # Both good siblings completed, in input order, and were cached.
        assert failure.results[0] is not None
        assert failure.results[1] is None
        assert failure.results[2] is not None
        assert cache.contains(specs[0].key())
        assert cache.contains(specs[2].key())
        (spec_failure,) = failure.failures
        assert spec_failure.spec == specs[1]
        assert spec_failure.attempts == 2  # first try + one retry
        assert "bogus" in spec_failure.error

    def test_serial_failure_does_not_abort_siblings(self, tmp_path):
        self.assert_siblings_survive(1, tmp_path)

    def test_pool_failure_does_not_abort_siblings(self, tmp_path):
        self.assert_siblings_survive(4, tmp_path)

    def test_retries_zero_fails_after_one_attempt(self):
        from repro.eval.runner import SweepFailure

        specs = [dataclasses.replace(
            ScenarioSpec("tva", "legacy", 1, config=FAST), scheme="bogus")]
        with pytest.raises(SweepFailure) as excinfo:
            SweepRunner(jobs=1, retries=0).run(specs)
        assert excinfo.value.failures[0].attempts == 1

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=1, retries=-1)

    def test_event_stream_success_and_cache_hit(self, tmp_path):
        events = []
        cache = ResultCache(tmp_path)
        specs = build_flood_specs("legacy", ("internet",), (1,), FAST)
        runner = SweepRunner(jobs=1, cache=cache,
                             on_event=lambda e: events.append(e))
        runner.run(specs)
        assert [e.kind for e in events] == ["start", "done"]
        runner.run(specs)
        assert [e.kind for e in events] == ["start", "done", "cached"]

    def test_event_stream_retry_then_failed(self):
        from repro.eval.runner import SweepFailure

        events = []
        specs = [dataclasses.replace(
            ScenarioSpec("tva", "legacy", 1, config=FAST), scheme="bogus")]
        runner = SweepRunner(jobs=1, retries=1,
                             on_event=lambda e: events.append(e))
        with pytest.raises(SweepFailure):
            runner.run(specs)
        assert [e.kind for e in events] == [
            "start", "retry", "start", "failed"]
        assert events[1].attempt == 1
        assert events[3].attempt == 2
        assert events[3].error and "bogus" in events[3].error

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        """A spec that fails once then succeeds (a crashed worker's
        retry) completes the sweep with no failure raised."""
        from repro.eval import runner as runner_module

        real_run_spec = runner_module.run_spec
        spec = ScenarioSpec("internet", "legacy", 1, config=FAST)
        calls = {"n": 0}

        def flaky(s):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("simulated worker crash")
            return real_run_spec(s)

        monkeypatch.setattr(runner_module, "run_spec", flaky)
        (result,) = SweepRunner(jobs=1, retries=1).run([spec])
        assert calls["n"] == 2
        assert result == real_run_spec(spec)


class TestSweepRunner:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_defaults_jobs_to_cpu_count(self):
        import os

        assert SweepRunner().jobs == (os.cpu_count() or 1)

    def test_progress_callback_fires(self, tmp_path):
        seen = []
        cache = ResultCache(tmp_path)
        specs = build_flood_specs("legacy", ("internet",), (1,), FAST)
        runner = SweepRunner(jobs=1, cache=cache,
                             progress=lambda spec, cached: seen.append(cached))
        runner.run(specs)
        runner.run(specs)
        assert seen == [False, True]

    def test_run_points_aggregates_seeds(self):
        specs = build_flood_specs("legacy", ("internet",), (1,), FAST)
        sweep = SweepRunner(jobs=1).run_points(specs, seeds=3, title="t")
        (point,) = sweep.points
        assert point.n_seeds == 3
        assert {r.seed for r in point.runs} == {1, 2, 3}
        assert sweep.meta["seeds"] == 3

    def test_run_points_rejects_bad_seeds(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=1).run_points([], seeds=0)

    def test_figure_runner_serial_matches_parallel_runner(self):
        from repro.eval import run_fig8_legacy_flood

        serial = run_fig8_legacy_flood(schemes=("internet",), sweep=(1, 2),
                                       config=FAST)
        parallel = run_fig8_legacy_flood(schemes=("internet",), sweep=(1, 2),
                                         config=FAST,
                                         runner=SweepRunner(jobs=2))
        assert serial == parallel
