"""Tests for static routing and the dumbbell and chain topologies."""

import pytest

from repro.sim import (
    Host,
    Link,
    DropTailQueue,
    Packet,
    RoutingError,
    LegacyDefaults,
    Simulator,
    build_static_routes,
    chain_spec,
    dumbbell_spec,
    instantiate,
)
from repro.sim.node import Router


class TestStaticRoutes:
    def test_line_topology_routes(self):
        sim = Simulator()
        a = Host(sim, "a", 1)
        r1, r2 = Router(sim, "r1"), Router(sim, "r2")
        b = Host(sim, "b", 2)
        nodes = [a, r1, r2, b]
        for x, y in [(a, r1), (r1, r2), (r2, b)]:
            for src, dst in ((x, y), (y, x)):
                link = Link(sim, src, dst, 1e6, 0.001, DropTailQueue())
                src.add_link(link)
        build_static_routes(nodes)
        assert a.routing[2].dst is r1
        assert r1.routing[2].dst is r2
        assert r2.routing[2].dst is b
        assert r2.routing[1].dst is r1

    def test_unreachable_host_raises(self):
        sim = Simulator()
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)  # not connected
        with pytest.raises(RoutingError):
            build_static_routes([a, b])


class TestDumbbell:
    def test_figure7_shape(self):
        sim = Simulator()
        net = instantiate(dumbbell_spec(n_users=10, n_attackers=5), sim, LegacyDefaults())
        assert len(net.users) == 10
        assert len(net.attackers) == 5
        assert net.destination is not None
        assert net.colluder is not None
        assert net.bottleneck.bandwidth_bps == 10e6

    def test_rtt_is_60ms(self):
        """10 ms access + 10 ms bottleneck + 10 ms access, each way."""
        sim = Simulator()
        net = instantiate(dumbbell_spec(n_users=1, n_attackers=0), sim, LegacyDefaults())
        user, dest = net.users[0], net.destination
        got = []
        dest.bind("raw", 0, lambda pkt: dest.send(
            Packet(dest.address, pkt.src, size=40, proto="raw")))
        user.bind("raw", 0, lambda pkt: got.append(sim.now))
        user.send(Packet(user.address, dest.address, size=40, proto="raw"))
        sim.run()
        assert got[0] == pytest.approx(0.060, abs=0.002)

    def test_unique_addresses(self):
        sim = Simulator()
        net = instantiate(dumbbell_spec(n_users=3, n_attackers=3), sim, LegacyDefaults())
        addrs = [h.address for h in net.users + net.attackers
                 + [net.destination, net.colluder]]
        assert len(addrs) == len(set(addrs))

    def test_without_colluder(self):
        sim = Simulator()
        net = instantiate(dumbbell_spec(with_colluder=False), sim, LegacyDefaults())
        assert net.colluder is None

    def test_cross_traffic_end_to_end(self):
        sim = Simulator()
        net = instantiate(dumbbell_spec(n_users=2, n_attackers=1), sim, LegacyDefaults())
        got = []
        net.destination.bind("raw", 0, got.append)
        for host in net.users + net.attackers:
            host.send(Packet(host.address, net.destination.address, 100, "raw"))
        sim.run()
        assert len(got) == 3


class TestChain:
    def test_chain_connectivity(self):
        sim = Simulator()
        net = instantiate(chain_spec(n_routers=4), sim, LegacyDefaults())
        got = []
        net.destination.bind("raw", 0, got.append)
        src = net.users[0]
        src.send(Packet(src.address, net.destination.address, 100, "raw"))
        sim.run()
        assert len(got) == 1

    def test_chain_router_count(self):
        sim = Simulator()
        net = instantiate(chain_spec(n_routers=3), sim, LegacyDefaults())
        routers = [n for n in net.nodes if isinstance(n, Router)]
        assert len(routers) == 3


class TestEqualCostTieBreak:
    """Equal-cost routes must resolve by sorted link order, not by node
    construction/insertion order (which used to leak into the choice)."""

    @staticmethod
    def _diamond(sim, reverse_insertion):
        """src -- (RA | RB) -- dst diamond with two equal-cost paths."""
        src, dst = Host(sim, "src", 1), Host(sim, "dst", 2)
        ra, rb = Router(sim, "RA"), Router(sim, "RB")
        mids = [rb, ra] if reverse_insertion else [ra, rb]
        nodes = [src] + mids + [dst]
        for mid in mids:
            for a, b in ((src, mid), (mid, dst)):
                for x, y in ((a, b), (b, a)):
                    link = Link(sim, x, y, 1e6, 0.001, DropTailQueue())
                    x.add_link(link)
        build_static_routes(nodes)
        return src, dst

    def test_choice_is_insertion_order_independent(self):
        routes = []
        for reverse in (False, True):
            src, dst = self._diamond(Simulator(), reverse)
            routes.append((src.routing[2].dst.name, dst.routing[1].dst.name))
        assert routes[0] == routes[1]
        # sorted (src.name, dst.name, name) order prefers RA on both legs
        assert routes[0] == ("RA", "RA")
