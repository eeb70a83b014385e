"""Timed and traced ``run_spec`` samples, with their output checks.

The simulator is measured from outside: :class:`PhaseClock` wraps
``Simulator.run`` and the ``instantiate`` that
``repro.eval.experiments`` calls, so one ``run_spec`` call splits into
setup (spec to ``Simulator.run`` entry), the run, and summarize
(``Simulator.run`` exit to ``RunResult``).  The returned ``Network``'s
links are read after the run for the hop count.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import pstats
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.eval.experiments as experiments
from repro.api import OpCountProbe, RunResult, ScenarioSpec, run_spec
from repro.core.pathid import clear_tag_cache
from repro.sim.engine import Simulator

from layers import GcProbe, fold_profile, repro_modules

#: The paper's TVA outcome: users still complete transfers under flood.
MIN_FRACTION_COMPLETED = 0.95

#: Timed runs per sample set, however long each takes.
MIN_RUNS = 3

#: Setup-only passes after each timed run, however long each takes.
SETUPS_PER_RUN = 2


@dataclass
class Sample:
    """Host-time phases and link totals of one ``run_spec`` call."""

    wall_s: float
    setup_s: float
    topology_s: float
    run_s: float
    summarize_s: float
    tx_packets: int
    drops: int

    @property
    def hop_rate(self) -> float:
        return self.tx_packets / self.run_s


class PhaseClock:
    """Context manager that timestamps the phases of ``run_spec`` calls.

    Spans (name, start, end, parent, run id) stay in memory in
    :attr:`spans`; times are seconds since the clock was created.  With
    ``dry=True`` a call stops at ``Simulator.run`` entry: the simulation
    is skipped, so setup can be sampled many times at little cost.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._origin = time.perf_counter()
        self._marks: Dict[str, float] = {}
        self._net = None
        self._dry = False

    def __enter__(self) -> "PhaseClock":
        marks = self._marks
        inner_instantiate = experiments.instantiate
        inner_run = Simulator.run

        def instantiate(*args, **kwargs):
            marks["topology_start"] = time.perf_counter()
            self._net = inner_instantiate(*args, **kwargs)
            marks["topology_end"] = time.perf_counter()
            return self._net

        def run(sim, *args, **kwargs):
            marks["run_start"] = time.perf_counter()
            if self._dry:
                marks["run_end"] = time.perf_counter()
                return 0
            try:
                return inner_run(sim, *args, **kwargs)
            finally:
                marks["run_end"] = time.perf_counter()

        self._restore = (inner_instantiate, inner_run)
        experiments.instantiate = instantiate
        Simulator.run = run
        return self

    def __exit__(self, *exc_info) -> None:
        experiments.instantiate, Simulator.run = self._restore

    def call(
        self, spec: ScenarioSpec, run_id: str, dry: bool = False
    ) -> Tuple[RunResult, Sample]:
        """Run ``spec`` once; return its result and phase sample."""
        self._marks.clear()
        self._net = None
        self._dry = dry
        start = time.perf_counter()
        try:
            result = run_spec(spec)
        finally:
            self._dry = False
        end = time.perf_counter()
        marks = self._marks
        if self._net is None or "run_end" not in marks:
            raise RuntimeError("phase hooks did not fire; the run bypassed them")
        links = self._net.links
        self._net = None
        sample = Sample(
            wall_s=end - start,
            setup_s=marks["run_start"] - start,
            topology_s=marks["topology_end"] - marks["topology_start"],
            run_s=marks["run_end"] - marks["run_start"],
            summarize_s=end - marks["run_end"],
            tx_packets=sum(link.tx_packets for link in links),
            drops=sum(link.drops for link in links),
        )
        self._record(run_id, start, end, marks)
        return result, sample

    def _record(self, run_id: str, start: float, end: float, marks) -> None:
        def span(name, begin, finish, parent):
            span_id = f"{run_id}/{name}"
            self.spans.append({
                "run_id": run_id,
                "span_id": span_id,
                "name": name,
                "parent": parent,
                "start": begin - self._origin,
                "end": finish - self._origin,
            })
            return span_id

        root = span("run_spec", start, end, None)
        setup = span("setup", start, marks["run_start"], root)
        span("instantiate", marks["topology_start"], marks["topology_end"], setup)
        span("Simulator.run", marks["run_start"], marks["run_end"], root)
        span("summarize", marks["run_end"], end, root)


def result_digest(result: RunResult) -> str:
    """sha256 over the result's canonical JSON, less its spec key.

    The spec key carries the code-version salt, which a change may bump
    without changing any simulated outcome.
    """
    data = result.to_dict()
    del data["spec_key"]
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class OutputCheck:
    """Judges each ``RunResult`` of one workload and seed.

    With a pinned ``expected`` digest every run must match it; without
    one, the first run sets the digest the rest must match.  Every run
    must also keep ``fraction_completed`` at the paper's TVA outcome.
    """

    def __init__(self, expected: Optional[str] = None) -> None:
        self.expected = expected

    def problem(self, result: RunResult) -> Optional[str]:
        """``None`` if the result is correct, else why it is not."""
        if result.fraction_completed < MIN_FRACTION_COMPLETED:
            return (
                f"fraction_completed {result.fraction_completed} < "
                f"{MIN_FRACTION_COMPLETED}"
            )
        digest = result_digest(result)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            return f"RunResult digest {digest[:12]} != {self.expected[:12]}"
        return None


def _cold_start() -> None:
    """Give the next run what a fresh process would: empty memos, no garbage."""
    clear_tag_cache()
    gc.collect()


@dataclass
class Outcome:
    """Everything one benchmark invocation measured."""

    samples: List[Sample] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    traced: Optional[Dict] = None

    def judge(self, clock: PhaseClock, check: OutputCheck, spec, run_id):
        """Run ``spec`` once through ``clock`` and record the verdict."""
        self.attempted += 1
        try:
            result, sample = clock.call(spec, run_id)
        except Exception as exc:  # a raising run is a failed run, not a crash
            self.problems.append(f"{run_id}: {type(exc).__name__}: {exc}")
            return None
        problem = check.problem(result)
        if problem is not None:
            self.problems.append(f"{run_id}: {problem}")
        return sample


def timed_runs(
    clock: PhaseClock,
    check: OutputCheck,
    spec,
    seconds: float,
    outcome: Outcome,
    setup_share: float = 0.0,
) -> None:
    """Repeat cold-started runs for about ``seconds`` (at least MIN_RUNS).

    A run starts only while the budget, at the mean run time so far, has
    room for it.  With ``setup_share`` > 0, each run is followed by
    setup-only passes for that share of the time it took (at least
    SETUPS_PER_RUN), so the setup samples span the whole budget too.
    """
    start = time.perf_counter()
    runs = 0
    while True:
        _cold_start()
        runs += 1
        began = time.perf_counter()
        sample = outcome.judge(clock, check, spec, f"timed-{runs}")
        if sample is not None:
            outcome.samples.append(sample)
        if setup_share > 0:
            took = time.perf_counter() - began
            _setup_passes(clock, spec, took * setup_share / (1 - setup_share), outcome)
        elapsed = time.perf_counter() - start
        if runs >= MIN_RUNS and elapsed * (runs + 1) / runs > seconds:
            return


def _setup_passes(clock: PhaseClock, spec, seconds: float, outcome: Outcome) -> None:
    """Cold-started setup-only passes for ``seconds`` (at least SETUPS_PER_RUN)."""
    start = time.perf_counter()
    passes = 0
    while passes < SETUPS_PER_RUN or time.perf_counter() - start < seconds:
        _cold_start()
        passes += 1
        run_id = f"setup-{len(outcome.setups) + 1}"
        try:
            _, sample = clock.call(spec, run_id, dry=True)
        except Exception as exc:  # the timed runs report the same failure
            outcome.problems.append(f"{run_id}: {type(exc).__name__}: {exc}")
            outcome.attempted += 1
            return
        outcome.setups.append(sample.setup_s)


def traced_run(
    clock: PhaseClock, check: OutputCheck, spec, src: Path, outcome: Outcome
) -> None:
    """One cold-started run under ``cProfile``, op counts and GC probes."""
    _cold_start()
    profiler = cProfile.Profile()
    with GcProbe() as gc_probe, OpCountProbe() as ops:
        profiler.enable()
        try:
            sample = outcome.judge(clock, check, spec, "traced")
        finally:
            profiler.disable()
    if sample is None:
        return
    stats = pstats.Stats(profiler).stats
    counts = ops.counts
    lookups = counts.valcache_hits + counts.valcache_misses
    outcome.traced = {
        "wall_s": sample.wall_s,
        "layers": fold_profile(stats, src),
        "modules": repro_modules(stats, src),
        "counts": {
            "sim.engine.events_fired": counts.events_fired,
            "sim.engine.events_scheduled": counts.events_scheduled,
            "sim.engine.heap_compactions": counts.heap_compactions,
            "sim.queues.enqueues": counts.enqueues,
            "sim.queues.dequeues": counts.dequeues,
            "sim.queues.drops": sample.drops,
            "sim.link.tx_packets": sample.tx_packets,
            "sim.link.bursts_planned": counts.bursts_planned,
            "sim.packet.pool_reuses": counts.pool_reuses,
            "core.crypto.hashes": counts.hashes,
            "core.crypto.secret_derivations": counts.secret_derivations,
            "core.router.valcache_hit_ratio": (
                counts.valcache_hits / lookups if lookups else 0.0
            ),
            "core.router.valcache_lookups": lookups,
            "gc.collections": gc_probe.collections,
        },
        "gc_pause_s": gc_probe.pause_s,
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
