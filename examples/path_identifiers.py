#!/usr/bin/env python3
"""Path identifiers and fate sharing on a two-tier topology (Section 3.2).

Three customer sites hang off one trust-boundary edge router.  A request
flooder lives at site 0.  Because the edge tags requests per site uplink,
the flood crowds only site 0's request queue at the bottleneck: the
flooder's site-mates share its fate ("providing an incentive for improved
local security"), while the other sites' handshakes sail through.

Run:  python examples/path_identifiers.py
"""

import random

from repro.api import (
    CbrFlood,
    RepeatingTransferClient,
    ServerPolicy,
    Simulator,
    TcpListener,
    TransferLog,
    TvaScheme,
    instantiate,
    two_tier_spec,
)

DURATION = 12.0


class SmallGrantNoRenewal(ServerPolicy):
    """Tiny budgets, no renewals: hosts must re-request per transfer, so
    request-channel health is visible in their progress."""

    def __init__(self):
        super().__init__(default_grant=(24 * 1024, 10))

    def authorize(self, src, now, renewal=False):
        if renewal:
            return None
        return super().authorize(src, now, renewal)


def main() -> None:
    sim = Simulator()
    scheme = TvaScheme(request_fraction=0.01,
                       destination_policy=SmallGrantNoRenewal)
    net = instantiate(two_tier_spec(n_sites=3, hosts_per_site=3), sim, scheme)
    TcpListener(sim, net.destination, 80)

    print("sites:   S0 (flooder + 2 mates)   S1, S2 (3 hosts each)")
    print("         \\________ EDGE (tags per site) ____ C1 ==10Mb/s== C2 -- server")
    print()

    logs = {}
    rng = random.Random(2)
    for host in net.users[1:]:
        log = TransferLog()
        logs[host.name] = log
        RepeatingTransferClient(sim, host, net.destination.address, 80,
                                nbytes=20_000, log=log,
                                start_at=rng.uniform(0, 0.3),
                                stop_at=DURATION)
    CbrFlood(sim, net.users[0], net.destination.address, rate_bps=1e6,
             pkt_size=1000, mode="request", jitter=0.3,
             rng=random.Random(9))
    sim.run(until=DURATION)

    print(f"{'host':8s} {'site':>4s} {'completed':>10s}")
    for host in net.users[1:]:
        site = host.name.split(".")[0][1:]
        print(f"{host.name:8s} {site:>4s} {logs[host.name].completed:10d}")
    print()
    mates = sum(logs[h.name].completed for h in net.users[1:3])
    others = sum(logs[h.name].completed for h in net.users[3:])
    print(f"site-0 mates completed {mates} transfers; other sites {others}.")
    print("The flood's damage is confined to the tag it shares with its")
    print("site — everyone else's request queue stays clean.")


if __name__ == "__main__":
    main()
