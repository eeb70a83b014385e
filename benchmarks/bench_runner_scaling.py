"""Sweep-runner scaling: wall-clock for a fixed Figure 8 sweep at
``jobs=1`` vs ``jobs=cpu_count()``.

The sweep points are independent simulations, so the parallel runner
should approach linear speedup until the core count — this benchmark
records the measured ratio so the perf trajectory captures the
parallelism win (and any regression in it).  On a single-core box the
two paths degenerate to the same work and the speedup hovers around 1.
"""

import os
import time

from conftest import FULL

from repro.api import ExperimentConfig, SweepRunner, build_flood_specs

#: A fixed, moderate workload: enough points to keep every core busy.
DURATION = 10.0 if FULL else 5.0
SCHEMES = ("tva", "internet")
SWEEP = (1, 10, 40, 100) if FULL else (1, 10, 40)


def _specs():
    return build_flood_specs("legacy", SCHEMES, SWEEP,
                             ExperimentConfig(duration=DURATION))


def _timed(jobs):
    runner = SweepRunner(jobs=jobs)  # no cache: measure real work
    start = time.perf_counter()
    runs = runner.run(_specs())
    return time.perf_counter() - start, runs


def test_parallel_speedup(benchmark):
    cores = os.cpu_count() or 1
    serial_s, serial_runs = _timed(1)
    parallel_s, parallel_runs = _timed(cores)
    speedup = serial_s / parallel_s if parallel_s > 0 else 1.0

    print()
    print(f"runner scaling over {len(serial_runs)} sweep points, "
          f"{cores} core(s):")
    print(f"  jobs=1       : {serial_s:7.2f} s")
    print(f"  jobs={cores:<8d}: {parallel_s:7.2f} s   ({speedup:.2f}x)")

    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    # Correctness first: both paths measure the exact same results.
    assert serial_runs == parallel_runs
    # With real parallelism available, expect a tangible win; on one
    # core only require that process fan-out is not pathological.
    if cores >= 4:
        assert speedup > 1.5
    elif cores > 1:
        assert speedup > 1.0
    else:
        assert speedup > 0.5

    # Give pytest-benchmark a (cheap) timed body so the test integrates
    # with --benchmark-only runs; the numbers above are the payload.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_warm_cache_is_near_instant(benchmark, tmp_path):
    """A second run over a warm cache must cost <10% of the cold run."""
    from repro.api import ResultCache

    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    start = time.perf_counter()
    cold_runs = runner.run(_specs())
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm_runs = runner.run(_specs())
    warm_s = time.perf_counter() - start

    print()
    print(f"cache: cold {cold_s:.2f} s, warm {warm_s:.4f} s "
          f"({cold_s / max(warm_s, 1e-9):.0f}x)")
    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 4)

    assert warm_runs == cold_runs
    assert warm_s < 0.1 * cold_s
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
