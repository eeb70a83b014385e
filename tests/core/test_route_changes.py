"""Route changes and failures (Section 3.8), end to end.

A router restart loses cached flow state (and possibly the secret).  The
design's promise: affected packets are demoted — not dropped — so they
still reach the destination under light load; the destination echoes the
demotion; and the sender repairs the path by re-sending capabilities or
re-requesting.
"""

import pytest

from repro.core import ServerPolicy, TvaScheme
from repro.sim import Simulator, TransferLog, chain_spec, instantiate
from repro.transport import RepeatingTransferClient, TcpListener


def make_net():
    sim = Simulator()
    scheme = TvaScheme(
        request_fraction=0.05,
        destination_policy=lambda: ServerPolicy(default_grant=(256 * 1024, 10)),
    )
    net = instantiate(chain_spec(n_routers=2, link_bps=10e6), sim, scheme)
    return sim, scheme, net


def test_state_loss_recovers_via_demotion_echo():
    """Losing only the flow cache: the sender's next capability-bearing
    packet revalidates and service continues."""
    sim, scheme, net = make_net()
    TcpListener(sim, net.destination, 80)
    log = TransferLog()
    RepeatingTransferClient(sim, net.users[0], net.destination.address, 80,
                            nbytes=20_000, log=log, stop_at=6.0)
    core = scheme.router_cores["R1"]
    sim.at(2.0, core.restart, 2.0)  # state loss, same secret
    sim.run(until=6.0)
    assert core.restarts == 1
    assert log.fraction_completed(4.0) == 1.0
    # Any transfer disturbed by the restart still finished quickly: the
    # caps-bearing revalidation needs no new handshake.
    assert log.average_completion_time() < 0.6


def test_secret_loss_forces_reacquisition():
    """Losing the secret kills outstanding capabilities: senders fall back
    to a fresh request (after the demotion echo) and recover."""
    sim, scheme, net = make_net()
    TcpListener(sim, net.destination, 80)
    log = TransferLog()
    client = RepeatingTransferClient(sim, net.users[0],
                                     net.destination.address, 80,
                                     nbytes=20_000, log=log, stop_at=8.0)
    core = scheme.router_cores["R1"]
    sim.at(2.0, core.restart, 2.0, b"reborn-secret")
    sim.run(until=8.0)
    user_shim = net.users[0].shim
    # The sender needed more than its initial request: it re-acquired.
    assert user_shim.requests_sent >= 2
    assert client.completed > 10
    # Steady state after recovery: the last transfers run at full speed.
    tail = [d for s, d in log.time_series() if s > 4.0]
    assert tail and sum(tail) / len(tail) < 0.4


def test_restart_during_idle_is_invisible():
    sim, scheme, net = make_net()
    TcpListener(sim, net.destination, 80)
    log = TransferLog()
    RepeatingTransferClient(sim, net.users[0], net.destination.address, 80,
                            nbytes=20_000, log=log, max_transfers=2)
    sim.run(until=2.0)
    scheme.router_cores["R1"].restart(sim.now)
    RepeatingTransferClient(sim, net.users[0], net.destination.address, 80,
                            nbytes=20_000, log=log, max_transfers=2,
                            start_at=3.0)
    sim.run(until=6.0)
    assert log.fraction_completed() == 1.0


def test_restart_clears_flow_records():
    sim, scheme, net = make_net()
    TcpListener(sim, net.destination, 80)
    RepeatingTransferClient(sim, net.users[0], net.destination.address, 80,
                            nbytes=20_000, max_transfers=1)
    sim.run(until=1.0)
    core = scheme.router_cores["R1"]
    assert len(core.state) > 0
    core.restart(sim.now)
    assert len(core.state) == 0
