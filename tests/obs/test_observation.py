"""End-to-end tests for the observability layer on real simulation runs.

The guarantees under test are the ones ISSUE-level acceptance depends
on: an instrumented run exposes the paper's quantities under stable
names, the export is a deterministic function of the spec (same spec →
bit-identical metrics, serial or parallel, fresh or cached), and turning
metrics off leaves the result untouched.
"""

import json

import pytest

from repro.eval.cache import ResultCache
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, SweepRunner, run_spec
from repro.eval.results import RunResult

FAST = ExperimentConfig(duration=4.0)


def spec(**kw):
    kw.setdefault("scheme", "tva")
    kw.setdefault("attack", "legacy")
    kw.setdefault("n_attackers", 3)
    kw.setdefault("config", FAST)
    kw.setdefault("metrics", True)
    return ScenarioSpec(**kw)


class TestInstrumentedRun:
    def test_expected_metric_names_present(self):
        run = run_spec(spec())
        finals = run.metrics["finals"]
        # Figure 2 view: per-class bottleneck utilization.
        for cls in ("request", "regular", "legacy"):
            assert f"link.bottleneck.util.{cls}" in finals
        # Per-class qdisc drops by reason, recursing into children.
        assert "link.bottleneck.qdisc.drops" in finals
        assert "link.bottleneck.qdisc.regular.drops" in finals
        # Section 3.6: flow-state occupancy and the bounded expiry heap.
        assert "scheme.router.R1.flowstate.entries" in finals
        assert "scheme.router.R1.flowstate.heap" in finals
        # Router pipeline and transport counters.
        assert "scheme.router.R1.demotions" in finals
        assert "transport.completions" in finals
        assert finals["transport.completions"] > 0

    def test_series_sampled_on_interval(self):
        run = run_spec(spec(metrics_interval=0.5))
        series = run.metrics["series"]
        util = series["link.bottleneck.util.regular"]
        assert len(util) == int(FAST.duration / 0.5)
        times = [t for t, _ in util]
        assert times == [0.5 * (i + 1) for i in range(len(util))]
        # The regular class actually carried traffic at some point.
        assert any(v > 0 for _, v in util)

    def test_utilizations_are_fractions(self):
        run = run_spec(spec())
        for cls in ("request", "regular", "legacy"):
            for _, v in run.metrics["series"][f"link.bottleneck.util.{cls}"]:
                assert 0.0 <= v <= 1.0 + 1e-9

    def test_disabled_metrics_leave_result_bare(self):
        run = run_spec(spec(metrics=False))
        assert run.metrics is None

    def test_metrics_are_part_of_the_cache_key(self):
        assert spec(metrics=True).key() != spec(metrics=False).key()
        assert spec(metrics_interval=0.5).key() != spec(metrics_interval=1.0).key()


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        a, b = run_spec(spec()), run_spec(spec())
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_json_round_trip_is_lossless(self):
        run = run_spec(spec())
        reloaded = RunResult.from_dict(json.loads(json.dumps(run.to_dict())))
        assert reloaded == run

    def test_parallel_matches_serial_with_metrics(self):
        specs = [spec(), spec(n_attackers=1), spec(attack="request")]
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        assert serial == parallel
        assert all(r.metrics is not None for r in serial)

    def test_sweep_json_identical_across_job_counts(self):
        """The full SweepResult JSON — metrics, meta, and all — must not
        depend on the execution strategy."""
        specs = [spec(), spec(n_attackers=1)]
        serial = SweepRunner(jobs=1).run_points(specs, title="t")
        parallel = SweepRunner(jobs=4).run_points(specs, title="t")
        assert serial.to_json() == parallel.to_json()

    def test_cached_run_equals_fresh_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        fresh = SweepRunner(jobs=1, cache=cache).run([s])[0]
        cached = SweepRunner(jobs=1, cache=cache).run([s])[0]
        assert cached == fresh
        assert cache.get(s.key()) == fresh


class TestInstrumentLink:
    """One link watched through ``instrument_link`` + ``Sampler``."""

    def _net(self):
        from repro.obs import Sampler
        from repro.obs.instrument import Observation
        from repro.sim import (DropTailQueue, Host, Link, Simulator,
                               build_static_routes)
        from repro.transport import PacketSink

        sim = Simulator()
        a, b = Host(sim, "a", 1), Host(sim, "b", 2)
        ab = Link(sim, a, b, 1e6, 0.001,
                  DropTailQueue(limit_bytes=None, limit_pkts=10))
        ba = Link(sim, b, a, 1e6, 0.001,
                  DropTailQueue(limit_bytes=None, limit_pkts=10))
        a.add_link(ab)
        b.add_link(ba)
        build_static_routes([a, b])
        PacketSink(b, "cbr")
        obs = Observation(interval=0.5)
        obs.instrument_link("ab", ab)
        return sim, a, Sampler(sim, obs.registry, obs.interval)

    @staticmethod
    def _values(sampler, name):
        return [value for _, value in sampler.series()[name]]

    def test_samples_track_utilization(self):
        from repro.transport import CbrFlood

        sim, a, sampler = self._net()
        CbrFlood(sim, a, 2, rate_bps=0.5e6, pkt_size=500)  # half the link
        sim.run(until=5.0)
        util = self._values(sampler, "link.ab.util")
        assert len(util) == 10
        assert sum(util) / len(util) == pytest.approx(0.5, abs=0.1)
        assert self._values(sampler, "link.ab.qdisc.drops")[-1] == 0

    def test_overload_shows_saturation_and_drops(self):
        from repro.transport import CbrFlood

        sim, a, sampler = self._net()
        CbrFlood(sim, a, 2, rate_bps=3e6, pkt_size=500)  # 3x the link
        sim.run(until=3.0)
        util = self._values(sampler, "link.ab.util")
        assert sum(util) / len(util) > 0.9
        assert self._values(sampler, "link.ab.qdisc.drops")[-1] > 100

    def test_idle_link_reads_zero(self):
        sim, _, sampler = self._net()
        sim.run(until=2.0)
        assert self._values(sampler, "link.ab.util") == [0.0] * 4

    def test_rejects_bad_interval(self):
        from repro.obs import MetricRegistry, Sampler
        from repro.sim import Simulator

        with pytest.raises(ValueError):
            Sampler(Simulator(), MetricRegistry(), interval=0.0)
