"""Static shortest-path routing.

The paper's simulations use fixed routes on a dumbbell; we compute them
once, up front, with breadth-first search over the node graph (all links
weigh 1 hop).  Each node's ``routing`` table maps a destination *address*
(host addresses only — routers are not packet destinations) to the outgoing
:class:`~repro.sim.link.Link` on the shortest path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

from .link import Link
from .node import AggregateHost, Host, Node


class RoutingError(Exception):
    """Raised when a host is unreachable from some node."""


def _neighbors(node: Node) -> Iterable[Link]:
    return node.links_out


def _block(host: Host) -> tuple:
    """The address block ``[lo, hi)`` a host answers for."""
    if isinstance(host, AggregateHost):
        return host.address, host.address + host.count
    return host.address, host.address + 1


def _install(node: Node, lo: int, hi: int, link: Link) -> None:
    if hi - lo == 1:
        node.routing[lo] = link
    else:
        node.routing_ranges.append((lo, hi, link))


def _installed(node: Node, lo: int, hi: int) -> bool:
    if hi - lo == 1:
        return lo in node.routing
    return any(entry[0] == lo for entry in node.routing_ranges)


def build_static_routes(nodes: List[Node], strict: bool = True) -> None:
    """Populate every node's routing table toward every host address.

    For each host H, run a BFS backwards from H over reverse links; for
    every other node, the first hop on the shortest path to H becomes the
    route.  With symmetric topologies (duplex links throughout) a forward
    BFS from each node would give identical results, but the backward
    sweep is O(hosts * edges) instead of O(nodes * edges).

    Equal-cost ties break deterministically: each node's incoming links
    are explored in sorted ``(src.name, dst.name, name)`` order, so the
    chosen route is a pure function of the graph — independent of node
    construction order and of ``PYTHONHASHSEED``.  (On ``parallel_spec``
    this gives the documented RA-over-RB preference.)

    An :class:`~repro.sim.node.AggregateHost` installs one
    ``routing_ranges`` block entry per node instead of ``count``
    per-address entries, and costs one BFS instead of ``count``.

    Down links (``link.up`` is ``False``) are ignored, so a rebuild after a
    fault routes around the failure.  Stale routes from a previous build are
    always cleared first: a destination that became unreachable must not
    keep a route through the dead link.  ``strict=False`` additionally
    tolerates unreachable hosts instead of raising — the fault-injection
    ``RouteChange`` event uses it, since a partitioned network is a valid
    state mid-experiment (affected senders simply black-hole until the
    partition heals and routes are rebuilt again).
    """
    # Build reverse adjacency: for BFS from the destination we need, for each
    # node, the links that point *at* it.
    incoming: Dict[Node, List[Link]] = {node: [] for node in nodes}
    for node in nodes:
        for link in node.links_out:
            if link.up and link.dst in incoming:
                incoming[link.dst].append(link)
    for node in nodes:
        incoming[node].sort(key=lambda l: (l.src.name, l.dst.name, l.name))

    hosts = [node for node in nodes if isinstance(node, Host)]
    for host in hosts:
        lo, hi = _block(host)
        for node in nodes:
            if hi - lo == 1:
                node.routing.pop(lo, None)
            else:
                node.routing_ranges = [
                    entry for entry in node.routing_ranges if entry[0] != lo
                ]
        dist: Dict[Node, int] = {host: 0}
        frontier = deque([host])
        while frontier:
            cur = frontier.popleft()
            for link in incoming[cur]:
                prev = link.src
                if prev not in dist:
                    dist[prev] = dist[cur] + 1
                    _install(prev, lo, hi, link)
                    frontier.append(prev)
                elif dist[prev] == dist[cur] + 1 and not _installed(prev, lo, hi):
                    _install(prev, lo, hi, link)
        unreachable = [n.name for n in nodes if n is not host and n not in dist]
        if unreachable and strict:
            raise RoutingError(
                f"host {host.name} (addr {host.address}) unreachable from: {unreachable}"
            )
