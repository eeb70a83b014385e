"""Tests for the pushback baseline."""

import random

from repro.baselines import PushbackScheme
from repro.sim import Simulator, TransferLog, dumbbell_spec, instantiate
from repro.transport import CbrFlood, RepeatingTransferClient, TcpListener


def run_pushback(n_attackers, duration=8.0, seed=3):
    sim = Simulator()
    scheme = PushbackScheme()
    net = instantiate(dumbbell_spec(n_users=10, n_attackers=n_attackers), sim, scheme)
    log = TransferLog()
    TcpListener(sim, net.destination, 80)
    rng = random.Random(seed)
    for user in net.users:
        RepeatingTransferClient(sim, user, net.destination.address, 80,
                                nbytes=20_000, log=log,
                                start_at=rng.uniform(0, 0.3), stop_at=duration)
    for i, attacker in enumerate(net.attackers):
        CbrFlood(sim, attacker, net.destination.address, rate_bps=1e6,
                 pkt_size=1000, start_at=rng.uniform(0, 0.01), jitter=0.3,
                 rng=random.Random(seed * 100 + i))
    sim.run(until=duration)
    return scheme, net, log


class TestPushbackDynamics:
    def test_identifies_and_filters_few_attackers(self):
        scheme, net, log = run_pushback(n_attackers=10)
        proc = scheme.processors["R1"]
        # The heavy per-attacker links stand out against the mean and are
        # filtered; transfers keep completing.
        assert proc.filters
        assert proc.filter_drops > 0
        assert log.fraction_completed(6.0) > 0.9

    def test_identification_fails_with_many_attackers(self):
        """The paper's knee: with 100 attackers every link contributes
        about the mean, so most attack links cannot be singled out and
        enough attack traffic passes unfiltered to deny service."""
        scheme, net, log = run_pushback(n_attackers=100)
        proc = scheme.processors["R1"]
        # Identification covers at most a sliver of the 100 attack links.
        assert len(proc.filters) < 50
        assert log.fraction_completed(6.0) < 0.3

    def test_no_congestion_no_filters(self):
        scheme, net, log = run_pushback(n_attackers=1)
        proc = scheme.processors["R1"]
        assert not proc.filters
        assert log.fraction_completed(6.0) == 1.0

    def test_filters_expire_after_congestion_clears(self):
        # Few attackers against busy users: the attack links stand out,
        # filters go in; when the flood ends they age out.
        sim = Simulator()
        scheme = PushbackScheme(review_interval=1.0)
        net = instantiate(dumbbell_spec(n_users=10, n_attackers=8), sim, scheme)
        TcpListener(sim, net.destination, 80)
        rng = random.Random(1)
        for user in net.users:
            RepeatingTransferClient(sim, user, net.destination.address, 80,
                                    nbytes=20_000, start_at=rng.uniform(0, 0.3),
                                    stop_at=10.0)
        for i, attacker in enumerate(net.attackers):
            CbrFlood(sim, attacker, net.destination.address, rate_bps=1e6,
                     pkt_size=1000, stop_at=4.0, jitter=0.3,
                     rng=random.Random(i), start_at=rng.uniform(0, 0.01))
        # Right after the first review the attack links are filtered.
        sim.run(until=1.5)
        proc = scheme.processors["R1"]
        had_filters = bool(proc.filters)
        # Once the filters relieve congestion (and the flood later stops),
        # quiet reviews age them out.
        sim.run(until=12.0)
        assert had_filters
        assert not proc.filters

    def test_reviews_run_periodically(self):
        sim = Simulator()
        scheme = PushbackScheme(review_interval=0.5)
        instantiate(dumbbell_spec(n_users=1, n_attackers=0), sim, scheme)
        sim.run(until=5.0)
        assert scheme.processors["R1"].reviews >= 9
