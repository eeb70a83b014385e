"""The stable public API.

This module is the supported import surface for scripts, notebooks, and
examples::

    from repro.api import ScenarioSpec, run_scenario, sweep, build_scheme

Three entry points cover the common workflows:

* :func:`run_scenario` — one simulation, one result;
* :func:`sweep` — many specs, parallel + cached + multi-seed, one
  :class:`SweepResult`;
* :func:`build_scheme` — instantiate any registered scheme by name
  (the :data:`SCHEMES` registry).

Everything re-exported here is covered by the deprecation policy: names
may gain parameters but won't move or vanish without a deprecation cycle.
The deep module paths (``repro.eval.runner`` etc.) remain importable but
are implementation detail.  ``repro.eval`` re-exports only the figure
harnesses, not this surface.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

# -- scheme registry -------------------------------------------------------
from .schemes import (
    SCHEMES,
    InternetKnobs,
    NetFenceKnobs,
    PushbackKnobs,
    SchemeKnobs,
    SiffKnobs,
    TvaKnobs,
    build_scheme,
    knobs_for,
    register_scheme,
    scheme_names,
)

# -- static analysis (determinism & simulation safety) ---------------------
from .lint import Finding, LintEngine, LintError
from .lint import RULES as LINT_RULES
from .lint import lint_paths

# -- benchmarking (deterministic op counts + wall clock) -------------------
from .perf import (
    PERF,
    BenchReport,
    OpCountProbe,
    OpCounts,
    PerfCounters,
    run_bench,
    write_bench_report,
)

# -- fault injection -------------------------------------------------------
from .faults import (
    FaultInjector,
    FaultSchedule,
    LinkDown,
    LinkUp,
    RouteChange,
    RouterReboot,
    parse_fault,
)

# -- curated scenario library ----------------------------------------------
from .scenarios import (
    SCENARIOS as SCENARIO_LIBRARY,
    ScenarioDef,
    format_scenario_table,
    get_scenario,
    scenario_names,
)

# -- scenario running ------------------------------------------------------
from .eval.cache import (
    CacheBackend,
    DirectoryBackend,
    LayeredBackend,
    ResultCache,
    default_cache_dir,
)
from .eval.dynamics import (
    DYNAMICS_SCHEMES,
    DynamicsResult,
    build_dynamics_spec,
    recovery_time,
    run_dynamics,
)
from .eval.experiments import ExperimentConfig, run_flood_scenario
from .eval.results import PointResult, RunResult, ShardReport, SweepResult
from .eval.runner import (
    FIG11_SCHEMES,
    ScenarioSpec,
    SpecFailure,
    SweepEvent,
    SweepFailure,
    SweepRunner,
    build_fig11_spec,
    build_flood_specs,
    run_spec,
)
from .eval.service import (
    ProgressLog,
    SweepManifest,
    SweepService,
    default_manifest_path,
    parse_shard,
    shard_specs,
)

# -- building blocks for custom topologies (what examples/ use) ------------
from .baselines import (
    LegacyScheme,
    NetFenceScheme,
    PushbackScheme,
    SiffScheme,
)
from .core import ServerPolicy, TvaScheme
from .sim import (
    AggregateHost,
    AggregateLink,
    DropTailQueue,
    Dumbbell,
    Host,
    LegacyDefaults,
    Link,
    LinkSpec,
    Network,
    NodeSpec,
    Router,
    SchemeFactory,
    Simulator,
    TopologySpec,
    TransferLog,
    as_graph_spec,
    asymmetric_spec,
    build_chain,
    build_dumbbell,
    build_parallel,
    build_static_routes,
    build_two_tier,
    dumbbell_spec,
    fat_tree_spec,
    instantiate,
    partial_deployment_spec,
    tree_spec,
)
from .transport import (
    AggregateSender,
    CbrFlood,
    PacketSink,
    RepeatingTransferClient,
    TcpListener,
)


def run_scenario(
    spec: Optional[ScenarioSpec] = None,
    *,
    cache: Optional[ResultCache] = None,
    **kwargs,
) -> RunResult:
    """Run one scenario and return its :class:`RunResult`.

    Pass a ready :class:`ScenarioSpec`, or its fields as keywords::

        run_scenario(scheme="tva", attack="legacy", n_attackers=10)

    ``cache`` (a :class:`ResultCache`) is consulted before running and
    updated after.
    """
    if spec is None:
        spec = ScenarioSpec(**kwargs)
    elif kwargs:
        raise TypeError("pass either a spec or spec fields, not both")
    if cache is not None:
        hit = cache.get(spec.key())
        if hit is not None:
            return hit
    result = run_spec(spec)
    if cache is not None:
        cache.put(spec.key(), result)
    return result


def sweep(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: Optional[int] = None,
    seeds: int = 1,
    cache: Optional[ResultCache] = None,
    title: str = "",
    progress: Optional[Callable[[ScenarioSpec, bool], None]] = None,
) -> SweepResult:
    """Run many scenarios — parallel, cached, seed-replicated.

    Each spec runs under ``seeds`` consecutive seeds and is aggregated
    into a mean/stdev/CI :class:`PointResult`; the returned
    :class:`SweepResult` serializes bit-identically regardless of
    ``jobs`` (execution strategy never leaks into results).
    """
    runner = SweepRunner(jobs=jobs, cache=cache, progress=progress)
    return runner.run_points(specs, seeds=seeds, title=title)


__all__ = [
    # entry points
    "run_scenario",
    "sweep",
    "build_scheme",
    # registry
    "SCHEMES",
    "scheme_names",
    "register_scheme",
    "knobs_for",
    "SchemeKnobs",
    "TvaKnobs",
    "SiffKnobs",
    "PushbackKnobs",
    "InternetKnobs",
    "NetFenceKnobs",
    # static analysis
    "lint_paths",
    "LintEngine",
    "LintError",
    "Finding",
    "LINT_RULES",
    # specs and results
    "ExperimentConfig",
    "ScenarioSpec",
    "RunResult",
    "PointResult",
    "SweepResult",
    "SweepRunner",
    "SweepEvent",
    "SweepFailure",
    "SpecFailure",
    "ResultCache",
    "CacheBackend",
    "DirectoryBackend",
    "LayeredBackend",
    "default_cache_dir",
    "run_spec",
    "run_flood_scenario",
    "build_flood_specs",
    "build_fig11_spec",
    "FIG11_SCHEMES",
    # sharded sweep service
    "SweepService",
    "SweepManifest",
    "ShardReport",
    "ProgressLog",
    "shard_specs",
    "parse_shard",
    "default_manifest_path",
    # curated scenario library
    "SCENARIO_LIBRARY",
    "ScenarioDef",
    "scenario_names",
    "get_scenario",
    "format_scenario_table",
    # benchmarking
    "PERF",
    "PerfCounters",
    "OpCounts",
    "OpCountProbe",
    "BenchReport",
    "run_bench",
    "write_bench_report",
    # faults
    "FaultInjector",
    "FaultSchedule",
    "LinkDown",
    "LinkUp",
    "RouteChange",
    "RouterReboot",
    "parse_fault",
    # dynamics
    "DYNAMICS_SCHEMES",
    "DynamicsResult",
    "build_dynamics_spec",
    "recovery_time",
    "run_dynamics",
    # building blocks
    "ServerPolicy",
    "TvaScheme",
    "SiffScheme",
    "PushbackScheme",
    "LegacyScheme",
    "NetFenceScheme",
    "SchemeFactory",
    "LegacyDefaults",
    "Simulator",
    "TransferLog",
    "Dumbbell",
    "Network",
    "Host",
    "Link",
    "Router",
    "AggregateHost",
    "AggregateLink",
    "DropTailQueue",
    "TopologySpec",
    "NodeSpec",
    "LinkSpec",
    "instantiate",
    "dumbbell_spec",
    "tree_spec",
    "fat_tree_spec",
    "as_graph_spec",
    "asymmetric_spec",
    "partial_deployment_spec",
    "build_chain",
    "build_dumbbell",
    "build_parallel",
    "build_static_routes",
    "build_two_tier",
    # traffic agents
    "TcpListener",
    "RepeatingTransferClient",
    "PacketSink",
    "CbrFlood",
    "AggregateSender",
]
