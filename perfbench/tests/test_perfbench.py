"""The benchmark's own checks: smoke runs, names, output checks, layer map."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import layers
import measure
import run
from repro.api import RunResult
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SMOKE_DURATION = 2.5  # past the 2 s the completion horizon leaves out


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke():
    """One short timed and one short traced run of every workload."""
    runs = {}
    for name in WORKLOADS:
        timed, _ = run.bench(name, 7, 0.0, trace=False, duration=SMOKE_DURATION)
        traced, record = run.bench(name, 7, 0.0, trace=True, duration=SMOKE_DURATION)
        runs[name] = (timed, traced, record)
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct(smoke, name):
    timed, traced, record = smoke[name]
    for result in (timed, traced):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= measure.MIN_RUNS
    names = [span["name"] for span in record["spans"] if span["run_id"] == "traced"]
    assert names == ["run_spec", "setup", "instantiate", "Simulator.run", "summarize"]


def test_names_match_benchmark_json(smoke):
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for timed, traced, _ in smoke.values():
        assert {k: v["unit"] for k, v in timed["metrics"].items()} == end_to_end
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer


def test_end_to_end_metrics_are_never_zero(smoke):
    for timed, _, _ in smoke.values():
        assert all(m["value"] > 0 for m in timed["metrics"].values())


def test_layer_map_covers_executed_modules(smoke):
    for _, traced, record in smoke.values():
        unmapped = [
            m for m in record["traced"]["modules"]
            if layers.layer_of_module(m) is None
        ]
        assert unmapped == []
        assert traced["metrics"]["other.share"]["value"] < 0.05


def test_layer_map_covers_every_program_module():
    src = ROOT / "src"
    unmapped = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = layers.module_of(str(path), src)
        untimed = any(
            module == u or module.startswith(u + ".") for u in layers.UNTIMED
        )
        if not untimed and layers.layer_of_module(module) is None:
            unmapped.append(module)
    assert unmapped == []
    assert set(layers.LAYER_MAP.values()) <= set(layers.LAYERS)
    assert set(layers.PACKAGE_LAYERS.values()) <= set(layers.LAYERS)


def _result(**changes) -> RunResult:
    base = RunResult(
        scheme="tva", attack="legacy", n_attackers=100, seed=1,
        fraction_completed=1.0, avg_transfer_time=0.31,
        transfers_attempted=40, transfers_completed=40,
        time_series=((0.1, 0.3), (0.5, 0.32)),
    )
    return replace(base, **changes)


def test_output_check_pinned_and_self_consistent():
    good = _result()
    pinned = measure.OutputCheck(measure.result_digest(good))
    assert pinned.problem(good) is None
    assert pinned.problem(_result(transfers_completed=39)) is not None
    assert pinned.problem(_result(time_series=((0.1, 0.3),))) is not None
    # The spec key carries the code-version salt, not an outcome.
    assert pinned.problem(_result(spec_key="other")) is None

    first_sets_bar = measure.OutputCheck()
    assert first_sets_bar.problem(good) is None
    assert first_sets_bar.problem(_result(avg_transfer_time=0.4)) is not None


def test_output_check_requires_users_to_complete():
    check = measure.OutputCheck()
    assert "fraction_completed" in check.problem(_result(fraction_completed=0.9))


def test_tampered_run_result_counts_as_failed(monkeypatch):
    real = measure.run_spec
    calls = []

    def tampering_run_spec(spec):
        result = real(spec)
        calls.append(spec)
        if len(calls) == 2:
            result = replace(result, transfers_completed=result.transfers_completed - 1)
        return result

    monkeypatch.setattr(measure, "run_spec", tampering_run_spec)
    outcome = measure.Outcome()
    spec = WORKLOADS["dumbbell_legacy"].spec(DEFAULT_SEED, SMOKE_DURATION)
    with measure.PhaseClock() as clock:
        measure.timed_runs(clock, measure.OutputCheck(), spec, 0.0, outcome)
    assert outcome.attempted == measure.MIN_RUNS
    assert len(outcome.problems) == 1
    assert "timed-2" in outcome.problems[0]


def test_raising_run_counts_as_failed(monkeypatch):
    def broken_run_spec(spec):
        raise ValueError("boom")

    monkeypatch.setattr(measure, "run_spec", broken_run_spec)
    outcome = measure.Outcome()
    spec = WORKLOADS["dumbbell_legacy"].spec(DEFAULT_SEED, SMOKE_DURATION)
    with measure.PhaseClock() as clock:
        measure.timed_runs(clock, measure.OutputCheck(), spec, 0.0, outcome)
    assert outcome.samples == []
    assert len(outcome.problems) == outcome.attempted == measure.MIN_RUNS


def test_reference_pins_every_workload():
    reference = run.load_reference()
    assert reference["seed"] == DEFAULT_SEED
    assert sorted(reference["digests"]) == sorted(WORKLOADS)


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "dumbbell_legacy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
