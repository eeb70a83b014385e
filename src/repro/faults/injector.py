"""Driving fault schedules through the simulator event loop.

The :class:`FaultInjector` turns a declarative :class:`FaultSchedule` into
ordinary calendar events on the shared :class:`~repro.sim.engine.Simulator`,
so faults interleave deterministically with traffic — same heap, same seq
tie-breaking, bit-identical across seeds and worker counts.

All state mutation goes through the public surface the sim and core layers
already expose: ``Link.set_down``/``set_up``, ``SchemeFactory.reboot_router``
and ``build_static_routes(strict=False)``.  The injector itself only keeps
counters, which the observability layer registers under ``faults.``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

from ..obs.metrics import Counter
from ..sim.routing import build_static_routes
from .events import FaultEvent, LinkDown, LinkUp, RouteChange, RouterReboot
from .schedule import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.link import Link
    from ..sim.topology import Network, SchemeFactory


class FaultInjectionError(Exception):
    """A schedule references a router/link the topology does not have."""


class FaultInjector:
    """Schedules and fires the events of one :class:`FaultSchedule`."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._sim: "Simulator" = None  # set by install()
        self._net: "Network" = None
        self._scheme: "SchemeFactory" = None
        self.applied = Counter("applied")
        self.link_downs = Counter("link_downs")
        self.link_ups = Counter("link_ups")
        self.reboots = Counter("reboots")
        self.route_changes = Counter("route_changes")
        self.drained_packets = Counter("drained_packets")
        self.drained_bytes = Counter("drained_bytes")

    # ------------------------------------------------------------------
    def install(self, sim: "Simulator", net: "Network", scheme: "SchemeFactory") -> None:
        """Validate the schedule against the topology and book every event.

        Name resolution happens up front so a typo'd router or link name
        fails at install time, not minutes into a sweep."""
        self._sim = sim
        self._net = net
        self._scheme = scheme
        for ev in self.schedule:
            if isinstance(ev, (LinkDown, LinkUp)):
                self._resolve_links(ev.link)
            elif isinstance(ev, RouterReboot):
                self._resolve_router(ev.router)
        for ev in self.schedule:
            sim.call_at(ev.at, self._fire, ev)

    def _resolve_links(self, name: str) -> List["Link"]:
        try:
            return self._net.links_by_name(name)
        except KeyError:
            raise FaultInjectionError(f"no link named {name!r} in topology") from None

    def _resolve_router(self, name: str):
        try:
            return self._net.router_by_name(name)
        except KeyError:
            raise FaultInjectionError(f"no router named {name!r} in topology") from None

    # ------------------------------------------------------------------
    def _fire(self, ev: FaultEvent) -> None:
        self.applied.inc()
        if isinstance(ev, LinkDown):
            self.link_downs.inc()
            for link in self._resolve_links(ev.link):
                drained = link.set_down()
                self.drained_packets.inc(len(drained))
                self.drained_bytes.inc(sum(pkt.size for pkt in drained))
        elif isinstance(ev, LinkUp):
            self.link_ups.inc()
            for link in self._resolve_links(ev.link):
                link.set_up()
        elif isinstance(ev, RouterReboot):
            self.reboots.inc()
            self._scheme.reboot_router(
                ev.router, self._sim.now, rotate_secret=ev.rotate_secret
            )
        elif isinstance(ev, RouteChange):
            self.route_changes.inc()
            # Non-strict: a partition is a valid mid-experiment state.
            build_static_routes(self._net.nodes, strict=False)
        else:  # pragma: no cover - registry and isinstance stay in sync
            raise FaultInjectionError(f"unhandled fault event {ev!r}")

    # ------------------------------------------------------------------
    def metric_items(self) -> Iterator[Tuple[str, Counter]]:
        """(name, counter) pairs for the metric registry (``faults.`` scope)."""
        yield "applied", self.applied
        yield "link_downs", self.link_downs
        yield "link_ups", self.link_ups
        yield "reboots", self.reboots
        yield "route_changes", self.route_changes
        yield "drained_packets", self.drained_packets
        yield "drained_bytes", self.drained_bytes
