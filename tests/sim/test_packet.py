"""Unit tests for packets.

Packet uids are simulator-owned: every :class:`Simulator` counts from 1,
so a run's uid sequence — and therefore anything keyed on it (SFQ
bucketing via header hashes, drop records, traces) — is a function of
the scenario alone, never of what earlier runs in the same process
allocated.  The module-global counter on ``Packet(...)`` exists only for
tests and tools that build packets by hand.
"""

import json

import pytest

from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, run_spec
from repro.sim import Packet, Simulator
from repro.sim.packet import shim_overhead


def test_packet_fields_and_flow():
    pkt = Packet(src=1, dst=2, size=100, proto="tcp", created=1.5)
    assert pkt.flow == (1, 2)
    assert pkt.reply_addr() == (2, 1)
    assert pkt.created == 1.5
    assert not pkt.demoted


def test_packet_uids_are_unique_and_increasing():
    a = Packet(1, 2, 10)
    b = Packet(1, 2, 10)
    assert b.uid > a.uid


def test_packet_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Packet(1, 2, 0)
    with pytest.raises(ValueError):
        Packet(1, 2, -5)


def test_shim_overhead():
    assert shim_overhead(None) == 0
    assert shim_overhead(object()) == 20


def test_packet_repr_mentions_demotion():
    pkt = Packet(1, 2, 10)
    pkt.demoted = True
    assert "demoted" in repr(pkt)


def test_uids_count_from_one_per_simulator():
    first = Simulator()
    second = Simulator()
    a = [first.alloc_packet(1, 2, 100).uid for _ in range(5)]
    b = [second.alloc_packet(3, 4, 999).uid for _ in range(5)]
    assert a == b == [1, 2, 3, 4, 5]


def test_alloc_packet_rejects_nonpositive_size():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.alloc_packet(1, 2, 0)
    with pytest.raises(ValueError):
        sim.alloc_packet(1, 2, -5)


def test_back_to_back_runs_are_identical():
    """Two identical uncached runs in one process must agree byte for
    byte — the regression this guards is a process-global uid counter
    leaking across runs and shifting hash-keyed queue decisions."""
    spec = ScenarioSpec(
        scheme="tva",
        attack="legacy",
        n_attackers=10,
        seed=1,
        config=ExperimentConfig(duration=3.0, seed=1),
    )
    first = run_spec(spec).to_dict()
    second = run_spec(spec).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True)
