"""Figure 9 — request packet floods.

Paper result: with TVA, request floods are rate-limited to the request
channel and fair-queued per path identifier, so neither the completion
fraction nor the transfer time moves.  SIFF behaves as under legacy floods
(requests are legacy priority); pushback and the Internet treat request
packets as ordinary data, so their curves match Figure 8.
"""

from conftest import DURATION, SWEEP, print_flood_table, sweep_rows

from repro.api import ExperimentConfig, SweepRunner, build_flood_specs


def _sweep(scheme):
    # build_flood_specs gives request floods the "filtering" policy — the
    # paper's destination that refuses attacker requests.
    specs = build_flood_specs("request", (scheme,), SWEEP,
                              ExperimentConfig(duration=DURATION))
    return sweep_rows(SweepRunner(jobs=1).run(specs))


def _bench(bench_once, benchmark, scheme):
    rows = bench_once(_sweep, scheme)
    print_flood_table(f"Figure 9 (request flood) — {scheme}", rows)
    benchmark.extra_info["rows"] = [
        (k, round(frac, 3), None if avg is None else round(avg, 3))
        for _, k, frac, avg in rows
    ]
    return rows


def test_fig9_tva(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "tva")
    assert all(frac == 1.0 for _, _, frac, _ in rows)
    assert all(avg < 0.45 for _, _, _, avg in rows)


def test_fig9_siff(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "siff")
    by_k = {k: frac for _, k, frac, _ in rows}
    assert by_k[100] < 0.8


def test_fig9_internet(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "internet")
    by_k = {k: frac for _, k, frac, _ in rows}
    assert by_k[100] < 0.1


def test_fig9_pushback(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "pushback")
    by_k = {k: frac for _, k, frac, _ in rows}
    assert by_k[100] < 0.3
