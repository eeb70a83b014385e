"""Benchmark the TVA flood simulator on four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dumbbell_legacy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload, one at a time
    python3 perfbench/run.py --write-reference              # re-pin reference.json

``--trace 0`` repeats cold-started ``run_spec`` calls for ``--seconds``,
each followed by setup-only passes, and reports the end-to-end metrics
as medians.  ``--trace 1`` makes untraced runs for
half the budget, then one run under ``cProfile`` whose self time is
folded into layers; it reports the per-layer metrics and the tracing
overhead (traced / untraced ``wall_s``).  Either way the last stdout line
is one JSON object, and a per-run record with every sample and phase
span is written to ``perfbench/results/``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

#: Share of ``--seconds`` spent on setup-only passes, interleaved with runs.
SETUP_SHARE = 0.1


def _import_program():
    """Put the checkout's ``src`` first on the path; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def write_reference() -> None:
    """Pin the default-seed digest of every workload in reference.json."""
    from measure import OutputCheck, PhaseClock, result_digest
    from workloads import DEFAULT_SEED, WORKLOADS

    digests = {}
    with PhaseClock() as clock:
        for name, workload in WORKLOADS.items():
            result, _ = clock.call(workload.spec(DEFAULT_SEED), name)
            problem = OutputCheck().problem(result)
            if problem is not None:
                raise SystemExit(f"{name}: {problem}")
            digests[name] = result_digest(result)
    REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n",
        encoding="utf-8",
    )


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _row(name: str, values, unit: str) -> str:
    from measure import quartiles

    q1, median, q3 = quartiles(list(values))
    return (
        f"  {name:<14s} median {median:<12.6g} q1 {q1:<12.6g} "
        f"q3 {q3:<12.6g} n {len(values):<3d} {unit}"
    )


def end_to_end(outcome, peak_rss_mb: float) -> dict:
    samples = outcome.samples
    lines = [
        _row("wall_s", [s.wall_s for s in samples], "s"),
        _row("setup_s", outcome.setups, "s"),
        _row("(in runs)", [s.setup_s for s in samples], "s"),
        _row("hop_rate", [s.hop_rate for s in samples], "1/s"),
        f"  {'peak_rss_mb':<14s} {peak_rss_mb:.1f} MB (process peak)",
        f"  {'error_rate':<14s} {len(outcome.problems) / outcome.attempted:.3f} "
        f"({len(outcome.problems)} of {outcome.attempted} runs)",
    ]
    print("\n".join(lines))
    median = statistics.median
    return {
        "wall_s": _metric(median(s.wall_s for s in samples), "s"),
        "setup_s": _metric(median(outcome.setups), "s"),
        "hop_rate": _metric(median(s.hop_rate for s in samples), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer(outcome) -> dict:
    from layers import LAYERS, OTHER

    traced = outcome.traced
    untraced = statistics.median(s.wall_s for s in outcome.samples)
    metrics = {}
    print(f"  {'layer':<18s} {'self_s':>9s} {'share':>7s} {'calls':>10s}")
    for layer in LAYERS + (OTHER,):
        row = traced["layers"][layer]
        print(
            f"  {layer:<18s} {row['self_s']:9.4f} {row['share']:7.1%} "
            f"{row['calls']:10d}"
        )
        if layer == OTHER:
            metrics["other.share"] = _metric(row["share"], "share")
            continue
        metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
        metrics[f"{layer}.share"] = _metric(row["share"], "share")
        metrics[f"{layer}.calls"] = _metric(row["calls"], "count")
    for name, value in traced["counts"].items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = _metric(value, unit)
        print(f"  {name:<34s} {value}")
    metrics["gc.pause_s"] = _metric(traced["gc_pause_s"], "s")
    overhead = traced["wall_s"] / untraced
    metrics["trace.overhead"] = _metric(overhead, "x")
    print(f"  gc.pause_s {traced['gc_pause_s']:.4f} s")
    print(
        f"  tracing overhead {overhead:.2f}x "
        f"(traced {traced['wall_s']:.3f} s / untraced median {untraced:.3f} s)"
    )
    other = traced["layers"][OTHER]["share"]
    if other >= 0.05:
        sys.stderr.write(
            f"perfbench: {other:.1%} of self time has no layer; "
            "extend perfbench/layers.py\n"
        )
    return metrics


def bench(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    duration: Optional[float] = None,
) -> Tuple[dict, dict]:
    """Measure one workload; return the result line and the run record.

    ``duration`` shortens the simulated run (the tests' smoke runs); the
    pinned reference digest applies only at the workload's own duration.
    """
    from measure import (
        OutputCheck, Outcome, PhaseClock, timed_runs, traced_run,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    reference = load_reference()
    expected = None
    if seed == reference["seed"] and duration is None:
        expected = reference["digests"][workload_name]
    check = OutputCheck(expected)
    spec = workload.spec(seed, duration)
    machine = fingerprint()
    print(
        f"perfbench {workload_name} seed={seed} seconds={seconds} "
        f"trace={int(trace)} cpu={machine['cpu_model']!r} "
        f"python={machine['python']} nproc={machine['nproc']}"
    )

    # Discarded warm-up: imports and first-call costs stay out of wall_s.
    from repro.api import run_spec

    run_spec(workload.spec(seed, workload.warmup_duration))

    outcome = Outcome()
    with PhaseClock() as clock:
        if trace:
            # Untraced runs only set the overhead's base; the traced run
            # takes the rest of the budget.
            timed_runs(clock, check, spec, seconds / 2, outcome)
            traced_run(clock, check, spec, SRC, outcome)
        else:
            timed_runs(clock, check, spec, seconds, outcome, SETUP_SHARE)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for problem in outcome.problems:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")

    metrics = {}
    measured = outcome.traced is not None if trace else bool(outcome.setups)
    if not outcome.samples or not measured:
        correct = False
    else:
        correct = not outcome.problems
        metrics = per_layer(outcome) if trace else end_to_end(outcome, peak_rss_mb)

    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "fingerprint": machine,
        "spec_key": spec.key(),
        "peak_rss_mb": peak_rss_mb,
        "samples": [vars(s) for s in outcome.samples],
        "setup_samples": outcome.setups,
        "problems": outcome.problems,
        "traced": outcome.traced,
        "spans": clock.spans,
    }
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.problems),
        "metrics": metrics,
    }
    return result, record


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary table."""
    from workloads import WORKLOADS

    rows = []
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        metrics["error_rate"] = result["failed"] / result["attempted"]
        rows.append((name, metrics))
    names = ("wall_s", "setup_s", "hop_rate", "peak_rss_mb", "error_rate")
    print(f"{'workload':<18s}" + "".join(f"{n:>14s}" for n in names))
    for name, metrics in rows:
        print(f"{name:<18s}" + "".join(f"{metrics[n]:14.6g}" for n in names))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)} or all"
        )
    started = time.perf_counter()
    result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    sys.stderr.write(f"perfbench: {time.perf_counter() - started:.1f} s\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
