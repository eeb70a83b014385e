"""Engineering benchmarks of the simulation substrate itself.

Not a paper experiment — these track the event-loop and forwarding-path
throughput that every figure benchmark depends on, so regressions in the
substrate are visible independently of protocol changes.
"""

from repro.core import ServerPolicy, TvaScheme
from repro.sim import (
    DropTailQueue,
    Host,
    Link,
    Packet,
    Simulator,
    build_dumbbell,
    build_static_routes,
)
from repro.transport import CbrFlood, PacketSink, RepeatingTransferClient, TcpListener


def test_event_loop_throughput(benchmark):
    """Raw engine: schedule-and-fire of chained timer events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.after(0.001, tick)

        sim.after(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 20_000


def test_packet_forwarding_throughput(benchmark):
    """A CBR stream across one link: packet + link + queue costs."""

    def run():
        sim = Simulator()
        a, b = Host(sim, "a", 1), Host(sim, "b", 2)
        ab = Link(sim, a, b, 1e9, 0.001,
                  DropTailQueue(limit_bytes=None, limit_pkts=100))
        ba = Link(sim, b, a, 1e9, 0.001,
                  DropTailQueue(limit_bytes=None, limit_pkts=100))
        a.add_link(ab)
        b.add_link(ba)
        build_static_routes([a, b])
        sink = PacketSink(b, "cbr")
        CbrFlood(sim, a, 2, rate_bps=80e6, pkt_size=1000, stop_at=1.0)
        sim.run(until=1.1)
        return sink.packets

    packets = benchmark(run)
    assert packets > 9000


def test_tva_dumbbell_simulated_second(benchmark):
    """One simulated second of the standard Figure 7 TVA scenario."""

    def run():
        sim = Simulator()
        scheme = TvaScheme(
            request_fraction=0.01,
            destination_policy=lambda: ServerPolicy(
                default_grant=(256 * 1024, 10)),
        )
        net = build_dumbbell(sim, scheme, n_users=10, n_attackers=10)
        TcpListener(sim, net.destination, 80)
        for i, user in enumerate(net.users):
            RepeatingTransferClient(sim, user, net.destination.address, 80,
                                    nbytes=20_000, start_at=0.02 * i,
                                    stop_at=1.0)
        for attacker in net.attackers:
            CbrFlood(sim, attacker, net.destination.address, rate_bps=1e6,
                     pkt_size=1000)
        sim.run(until=1.0)
        return net.bottleneck.tx_bytes

    # Ten 1 Mb/s CBR flooders alone fill the 10 Mb/s bottleneck, so it
    # must stay busy for (nearly) the whole simulated second.
    tx_bytes = benchmark(run)
    assert tx_bytes >= 0.9 * 10e6 / 8
