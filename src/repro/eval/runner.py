"""Declarative scenario specs and the parallel sweep runner.

The paper's evaluation (Figures 8-11) is a grid of *independent*
simulations — scheme × attack × attacker count × seed.  This module
makes that grid a first-class object:

* :class:`ScenarioSpec` — a declarative, hashable description of one
  simulation run.  Everything :func:`repro.eval.run_flood_scenario`
  needs is a spec field; the destination policy is named (``"server"``,
  ``"filtering"``, ``"oracle"``) rather than passed as a callable, so a
  spec pickles across processes and hashes to a stable cache key.
* :func:`run_spec` — execute one spec, returning a
  :class:`~repro.eval.results.RunResult` summary.
* :class:`SweepRunner` — execute many specs, fanning out across a
  ``ProcessPoolExecutor`` (``jobs > 1``) or running deterministically
  in-process (``jobs = 1``), consulting an optional
  :class:`~repro.eval.cache.ResultCache` first, and aggregating
  multi-seed replications into mean/stdev/95%-CI points.

The ``build_*_specs`` helpers turn the per-figure parameters into spec
lists; the ``run_fig*`` functions in :mod:`repro.eval.experiments` are
thin wrappers over them.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from .. import __version__
from ..faults import FaultSchedule, coerce_schedule
from ..sim.topospec import TopologySpec
from .cache import ResultCache
from .experiments import ExperimentConfig, run_flood_scenario
from .results import PointResult, RunResult, SweepResult, normalize_metrics

#: Salt mixed into every cache key.  Bump the suffix whenever the
#: simulator's observable behaviour changes without a version bump, so
#: stale cached results can never satisfy a new code base.
#: v2: queue/flow-state bug batch (stable SFQ hashing, DRR slot leak,
#: expiry-heap compaction) + metrics-aware results.
#: v3: fault-injection subsystem — specs gain a ``faults`` schedule and
#: instrumented runs gain faults./hosts. metric scopes.
#: v4: D002 lint cleanup — pushback reviews links and identifies
#: aggregate contributors in canonical (sorted) order, which can shift
#: filter installation in multi-congestion topologies.
#: v5: per-packet fast path — instrumented runs gain the TVA
#: validation-cache hit/miss counters (a strict superset of the v4
#: metric names; simulation dynamics are golden-file-guarded unchanged).
#: (The scheme-registry/NetFence change deliberately kept v5: existing
#: schemes' dynamics are untouched, and the new ``scheme_options`` field
#: joins the canonical form only when non-empty, so every pre-existing
#: spec key — guarded by tests/eval/test_scheme_registry.py — survives.)
CACHE_SALT = f"repro-runner-v5:{__version__}"

#: Destination-policy names a spec may carry (see ``_policy_factory``).
POLICIES = ("server", "filtering", "oracle")


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation run, described declaratively.

    ``seed`` overrides ``config.seed`` at run time, so seed replication
    is ``replace(spec, seed=...)`` without touching the shared config.
    ``policy`` selects the destination policy by name:

    * ``"server"`` — plain :class:`~repro.core.ServerPolicy` with the
      config's default grant (Figures 8 and 10);
    * ``"filtering"`` — the same, refusing the attacker address range
      (Figure 9's "destination can tell attacker requests apart");
    * ``"oracle"`` — grants every first request, never renews attackers
      (Figure 11's imprecise policy).
    """

    scheme: str
    attack: str
    n_attackers: int
    seed: int = 1
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    policy: str = "server"
    attack_start: float = 0.0
    attack_groups: int = 1
    group_stagger: float = 0.0
    siff_secret_period: Optional[float] = None
    siff_accept_previous: bool = True
    siff_mark_bits: int = 2
    #: Attach the ``repro.obs`` observability layer to this run and carry
    #: its export on the resulting :class:`RunResult`.  Part of the cache
    #: key: an instrumented run is a different (strict superset) result.
    metrics: bool = False
    metrics_interval: float = 0.5
    #: Scheduled network dynamics (link failures, router reboots, route
    #: changes) injected into the run.  Part of the cache key; defaults
    #: to the empty schedule, so fault-free specs behave exactly as
    #: before.  The field normalizes: event tuples, ``--fault`` spec
    #: strings, or ``None`` all coerce to a :class:`FaultSchedule`.
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: Declarative topology to run on instead of the default dumbbell
    #: (see :mod:`repro.sim.topospec`); ``None`` keeps the historical
    #: dumbbell behaviour.  Omitted from :meth:`canonical` when ``None``
    #: so every pre-existing spec key — including the golden runs' —
    #: is unchanged.
    topology: Optional["TopologySpec"] = None
    #: Collapse attacker host groups into aggregated senders (only
    #: meaningful with ``topology``).  Also omitted from the canonical
    #: form at its default, and *kept* when ``True`` — aggregation is
    #: bit-identical only at matching per-member schedules, so it is a
    #: distinct cache entry.
    aggregate: bool = False
    #: Scheme knob overrides, keyed by the scheme's knob-dataclass field
    #: names (see :mod:`repro.schemes`); the ``--scheme-opt`` CLI flag
    #: feeds this.  Values are normalized to plain JSON on construction
    #: and validated against the registry, so a typo'd knob fails at
    #: spec-build time, not mid-sweep.  Omitted from :meth:`canonical`
    #: when empty so every pre-existing default-knob spec key is
    #: unchanged.
    scheme_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}"
            )
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        if not isinstance(self.faults, FaultSchedule):
            object.__setattr__(self, "faults", coerce_schedule(self.faults))
        if self.topology is not None and not isinstance(self.topology, TopologySpec):
            object.__setattr__(
                self, "topology", TopologySpec.from_dict(self.topology)
            )
        if self.aggregate and self.topology is None:
            raise ValueError("aggregate=True requires a topology spec")
        if self.scheme_options:
            from ..schemes import knobs_for

            # Round through JSON so tuples and dict ordering can never
            # make two equivalent specs hash differently.
            object.__setattr__(
                self,
                "scheme_options",
                json.loads(json.dumps(self.scheme_options, sort_keys=True)),
            )
            knobs_for(self.scheme, self.scheme_options)  # validate eagerly

    def canonical(self) -> dict:
        """The spec as plain data, independent of field ordering."""
        data = asdict(self)
        data["config"]["server_grant"] = list(data["config"]["server_grant"])
        # asdict() loses each event's ClassVar ``kind`` tag; use the
        # schedule's own canonical form (which keeps it).
        data["faults"] = self.faults.canonical()
        # Topology fields stay out of the canonical form at their
        # defaults so pre-topology spec keys (and the golden runs that
        # embed them) are byte-for-byte unchanged.
        if self.topology is None:
            del data["topology"]
            del data["aggregate"]
        else:
            data["topology"] = self.topology.canonical()
        # Same treatment for knob overrides: absent at the default (no
        # overrides), so default-knob spec keys predate-the-field exactly.
        if not self.scheme_options:
            del data["scheme_options"]
        return data

    def to_dict(self) -> dict:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return self.canonical()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a JSON file)."""
        data = dict(data)
        data["config"] = ExperimentConfig.from_dict(data["config"])
        data["faults"] = FaultSchedule.from_dict(data.get("faults"))
        return cls(**data)

    def key(self) -> str:
        """Stable content hash of the spec plus the code-version salt."""
        payload = json.dumps(
            {"salt": CACHE_SALT, "spec": self.canonical()}, sort_keys=True
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def __hash__(self) -> int:
        # Cache filenames and cross-process ordering use the sha256 key()
        # itself (see ResultCache.path_for); hash() of it never leaves
        # this process.
        # repro: allow-hash-builtin — in-process set/dict membership only
        return hash(self.key())


def _policy_factory(spec: ScenarioSpec) -> Optional[Callable]:
    """Build the destination-policy callable named by ``spec.policy``.

    Built inside the worker process, from the spec alone — callables
    never cross the process boundary.
    """
    if spec.policy == "server":
        return None  # the scheme falls back to its default ServerPolicy
    from ..core import FilteringPolicy, OraclePolicy, ServerPolicy
    from ..core.params import DEFAULT_GRANT_BYTES, DEFAULT_GRANT_SECONDS

    if spec.topology is not None:
        suspects = set(spec.topology.role_addresses("attacker"))
    else:
        n_users = spec.config.n_users
        suspects = set(range(n_users + 1, n_users + spec.n_attackers + 1))
    if spec.policy == "filtering":
        grant = spec.config.server_grant
        return lambda: FilteringPolicy(
            ServerPolicy(default_grant=grant), set(suspects)
        )
    return lambda: OraclePolicy(
        set(suspects),
        default_grant=(DEFAULT_GRANT_BYTES, DEFAULT_GRANT_SECONDS),
    )


def run_spec(spec: ScenarioSpec) -> RunResult:
    """Execute one spec and summarize its transfer log.

    Module-level so a ``ProcessPoolExecutor`` can pickle it; the only
    thing shipped to the worker is the spec itself.
    """
    config = replace(spec.config, seed=spec.seed)
    observer = None
    if spec.metrics:
        from ..obs.instrument import Observation

        observer = Observation(interval=spec.metrics_interval)
    log = run_flood_scenario(
        spec.scheme,
        spec.attack,
        spec.n_attackers,
        config,
        destination_policy=_policy_factory(spec),
        attack_start=spec.attack_start,
        attack_groups=spec.attack_groups,
        group_stagger=spec.group_stagger,
        siff_secret_period=spec.siff_secret_period,
        siff_accept_previous=spec.siff_accept_previous,
        siff_mark_bits=spec.siff_mark_bits,
        scheme_options=spec.scheme_options or None,
        observer=observer,
        faults=spec.faults,
        topology=spec.topology,
        aggregate=spec.aggregate,
    )
    horizon = max(0.0, config.duration - 2.0)
    metrics = normalize_metrics(observer.export()) if observer else None
    return RunResult(
        scheme=spec.scheme,
        attack=spec.attack,
        n_attackers=spec.n_attackers,
        seed=spec.seed,
        fraction_completed=log.fraction_completed(horizon),
        avg_transfer_time=log.average_completion_time(),
        transfers_attempted=log.attempted_by(horizon),
        transfers_completed=log.completed,
        time_series=tuple(tuple(point) for point in log.time_series()),
        spec_key=spec.key(),
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Spec builders: per-figure parameters -> spec lists
# ---------------------------------------------------------------------------

def build_flood_specs(
    attack: str,
    schemes: Sequence[str],
    sweep: Sequence[int],
    config: Optional[ExperimentConfig] = None,
    metrics: bool = False,
    metrics_interval: float = 0.5,
) -> List[ScenarioSpec]:
    """Specs for a Figure 8/9/10-style sweep: scheme × attacker count.

    Figure 9's request floods carry the ``"filtering"`` policy, matching
    the paper's assumption that the destination refuses attacker
    requests.
    """
    config = config or ExperimentConfig()
    policy = "filtering" if attack == "request" else "server"
    return [
        ScenarioSpec(
            scheme=scheme,
            attack=attack,
            n_attackers=k,
            seed=config.seed,
            config=config,
            policy=policy,
            metrics=metrics,
            metrics_interval=metrics_interval,
        )
        for scheme in schemes
        for k in sweep
    ]


#: Schemes with a meaningful Figure 11 story: a per-sender authorization
#: (capability or feedback loop) the imprecise policy can decline to
#: renew.  Pushback and the legacy Internet have nothing to expire.
FIG11_SCHEMES = ("tva", "siff", "netfence")


def build_fig11_spec(
    scheme_name: str,
    pattern: str = "all_at_once",
    n_attackers: int = 100,
    attack_start: float = 10.0,
    duration: float = 60.0,
    config: Optional[ExperimentConfig] = None,
    metrics: bool = False,
    metrics_interval: float = 0.5,
) -> ScenarioSpec:
    """The Figure 11 imprecise-policy scenario as a spec.

    See :func:`repro.eval.experiments.run_fig11_imprecise` for the
    group-lifetime reasoning encoded here.
    """
    from ..core.params import DEFAULT_GRANT_BYTES

    if pattern not in ("all_at_once", "staggered"):
        raise ValueError(f"unknown pattern {pattern!r}")
    config = replace(config or ExperimentConfig(), duration=duration)
    groups = 10 if pattern == "staggered" else 1
    if scheme_name == "siff":
        group_lifetime = 3.0  # marks die at the next secret rotation
    elif scheme_name == "netfence":
        from ..baselines.netfence import FEEDBACK_EXPIRY

        # The oracle policy stops echoing to attackers immediately, so a
        # group stays effective until its one echoed feedback goes stale
        # and the robustness limiter converges (~a control interval).
        group_lifetime = FEEDBACK_EXPIRY + 1.0
    else:
        # 32 KB at the attack rate, plus a little handshake latency.
        group_lifetime = (
            DEFAULT_GRANT_BYTES * 8 / config.attack_rate_bps + 0.1
        )
    return ScenarioSpec(
        scheme=scheme_name,
        attack="authorized",
        n_attackers=n_attackers,
        seed=config.seed,
        config=config,
        policy="oracle",
        attack_start=attack_start,
        attack_groups=groups,
        group_stagger=group_lifetime if pattern == "staggered" else 0.0,
        siff_secret_period=3.0,
        siff_accept_previous=False,
        # Wide, idealized marks: Figure 11 isolates *expiry* behaviour, and
        # 2-bit marks would let 1/16 of attackers survive each rotation by
        # collision (a separate SIFF weakness, studied in the ablations).
        siff_mark_bits=16,
        metrics=metrics,
        metrics_interval=metrics_interval,
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEvent:
    """One step in a sweep's execution, streamed to ``on_event``.

    ``kind`` is ``"cached"`` (served from the result cache), ``"start"``
    (attempt submitted), ``"done"`` (attempt succeeded, result cached),
    ``"retry"`` (attempt failed, another follows), or ``"failed"``
    (attempts exhausted).  ``attempt`` counts from 1 (0 for cache hits);
    ``error`` carries the ``repr`` of the exception for retry/failed.
    """

    kind: str
    spec: ScenarioSpec
    attempt: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class SpecFailure:
    """One spec that exhausted its attempts, with the last error."""

    spec: ScenarioSpec
    attempts: int
    error: str


class SweepFailure(RuntimeError):
    """Raised after a sweep finishes with at least one failed spec.

    Unlike a worker exception propagating mid-sweep, this is raised only
    once every other spec has completed (and been cached), so no sibling
    work is discarded: ``results`` holds the completed runs in input
    order (``None`` at failed positions) and ``failures`` lists each
    failed spec with its attempt count and last error.
    """

    def __init__(
        self,
        failures: Sequence[SpecFailure],
        results: Sequence[Optional[RunResult]],
    ) -> None:
        self.failures = list(failures)
        self.results = list(results)
        names = ", ".join(
            f"{f.spec.scheme}/{f.spec.attack}/k={f.spec.n_attackers}"
            f"/seed={f.spec.seed}" for f in self.failures[:3]
        )
        more = len(self.failures) - 3
        if more > 0:
            names += f" (+{more} more)"
        super().__init__(
            f"{len(self.failures)} of {len(self.results)} spec(s) failed "
            f"after retries: {names}; last error: {self.failures[0].error}"
        )


class SweepRunner:
    """Execute scenario specs: cached, multi-process, multi-seed.

    ``jobs=1`` runs every spec in-process, in order — the deterministic
    reference path.  ``jobs>1`` fans uncached specs out across a
    ``ProcessPoolExecutor``; the simulator seeds all randomness from the
    spec, so both paths produce bit-identical results.

    A worker exception never aborts the sweep: the spec is retried up to
    ``retries`` more times (in a fresh pool if the old one broke), every
    sibling spec still completes and is cached, and only then is a
    :class:`SweepFailure` raised naming the specs that never succeeded.

    ``progress`` (if given) is called as ``progress(spec, cached)``
    after each spec completes — the CLI uses it for its stderr ticker.
    ``on_event`` (if given) receives a :class:`SweepEvent` for every
    cache hit, attempt start, completion, retry, and failure — the
    sweep service's manifest and progress log hang off this stream.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[ScenarioSpec, bool], None]] = None,
        retries: int = 1,
        on_event: Optional[Callable[[SweepEvent], None]] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.retries = retries
        self.on_event = on_event

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Run every spec, preserving input order in the result list.

        Raises :class:`SweepFailure` — *after* every runnable spec has
        completed and been cached — if any spec failed all its attempts.
        """
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = self.cache.get(spec.key()) if self.cache else None
            if hit is not None:
                results[i] = hit
                self._emit("cached", spec)
                if self.progress:
                    self.progress(spec, True)
            else:
                pending.append(i)

        failures: Dict[int, SpecFailure] = {}
        if pending and (self.jobs == 1 or len(pending) == 1):
            for i in pending:
                self._run_serial(specs[i], i, results, failures)
        elif pending:
            self._run_pool(specs, pending, results, failures)
        if failures:
            raise SweepFailure(
                [failures[i] for i in sorted(failures)], results
            )
        return results  # type: ignore[return-value]

    def _run_serial(
        self,
        spec: ScenarioSpec,
        index: int,
        results: List[Optional[RunResult]],
        failures: Dict[int, SpecFailure],
    ) -> None:
        for attempt in range(1, self.retries + 2):
            self._emit("start", spec, attempt)
            try:
                result = run_spec(spec)
            except Exception as exc:  # per-spec isolation, not control flow
                if attempt <= self.retries:
                    self._emit("retry", spec, attempt, repr(exc))
                    continue
                failures[index] = SpecFailure(spec, attempt, repr(exc))
                self._emit("failed", spec, attempt, repr(exc))
                return
            results[index] = self._finish(spec, result)
            self._emit("done", spec, attempt)
            return

    def _run_pool(
        self,
        specs: Sequence[ScenarioSpec],
        pending: Sequence[int],
        results: List[Optional[RunResult]],
        failures: Dict[int, SpecFailure],
    ) -> None:
        """Fan ``pending`` out over a process pool, retrying failures.

        Each round submits the still-pending specs to a fresh pool; a
        crashed worker (``BrokenProcessPool``) therefore poisons at most
        one round, and every completed sibling was already cached by
        ``_finish`` before the next round starts.
        """
        attempts = {i: 0 for i in pending}
        remaining = list(pending)
        while remaining:
            workers = min(self.jobs, len(remaining))
            retry_round: List[int] = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {}
                for i in remaining:
                    attempts[i] += 1
                    self._emit("start", specs[i], attempts[i])
                    futures[pool.submit(run_spec, specs[i])] = i
                for future in as_completed(futures):
                    i = futures[future]
                    spec = specs[i]
                    try:
                        result = future.result()
                    except Exception as exc:  # worker died or raised
                        if attempts[i] <= self.retries:
                            self._emit("retry", spec, attempts[i], repr(exc))
                            retry_round.append(i)
                        else:
                            failures[i] = SpecFailure(
                                spec, attempts[i], repr(exc)
                            )
                            self._emit("failed", spec, attempts[i], repr(exc))
                        continue
                    results[i] = self._finish(spec, result)
                    self._emit("done", spec, attempts[i])
            remaining = sorted(retry_round)

    def _emit(
        self,
        kind: str,
        spec: ScenarioSpec,
        attempt: int = 0,
        error: Optional[str] = None,
    ) -> None:
        if self.on_event is not None:
            self.on_event(SweepEvent(kind, spec, attempt, error))

    def _finish(self, spec: ScenarioSpec, result: RunResult) -> RunResult:
        if self.cache is not None:
            self.cache.put(spec.key(), result)
        if self.progress:
            self.progress(spec, False)
        return result

    def run_points(
        self,
        specs: Sequence[ScenarioSpec],
        seeds: int = 1,
        title: str = "",
    ) -> SweepResult:
        """Run each spec under ``seeds`` consecutive seeds and aggregate.

        Replication ``j`` of a point uses ``spec.seed + j``, so seeds
        stay disjoint per point and the ``seeds=1`` case is exactly the
        base spec.
        """
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        expanded = [
            spec.with_seed(spec.seed + j) for spec in specs
            for j in range(seeds)
        ]
        runs = self.run(expanded)
        points = [
            PointResult.from_runs(runs[i: i + seeds])
            for i in range(0, len(runs), seeds)
        ]
        return SweepResult(
            title=title,
            points=points,
            # Only facts that describe *what* was computed belong here:
            # execution strategy (job count, cache use) must not leak into
            # the payload, or the bit-identical-across---jobs guarantee —
            # and with it cache/JSON comparisons — would break.
            meta={
                "seeds": seeds,
                "code_version": CACHE_SALT,
            },
        )
