"""Unidirectional links.

A :class:`Link` models a serial transmission line: packets leave the
attached queue discipline one at a time at ``bandwidth_bps``, then take
``delay`` seconds of propagation to arrive at the remote node.  This is the
same store-and-forward model ns-2 uses, so queueing dynamics (and therefore
the paper's transfer-time results) carry over.

Each channel serves one packet per transmission completion.  Dequeuing a
packet charges the tx counters at once and schedules its arrival at the
far end for ``end + delay``, where ``end`` is the serialization boundary.
A completion event at ``end`` is scheduled only while a backlog remains,
or later, when an arrival lands before ``end``; on a drained queue the
next arrival finds the wire quiet and starts transmitting itself.  So a
lightly loaded link costs one event per packet, a saturated one two, and
the tx counters are always current.

Rate-limited disciplines (TVA's request class) can have a backlog without a
sendable packet; the link then parks itself and re-polls at the time the
discipline promises readiness via ``next_ready``.

Links can be taken down and brought back up (fault injection,
:mod:`repro.faults`): :meth:`Link.set_down` drains the queue backlog and
refuses new arrivals, :meth:`Link.set_up` resumes transmission.  A packet
already serialized onto the wire when the link goes down still propagates —
the cut happens at the queue, matching a store-and-forward model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..obs.metrics import Counter
from .engine import Event, Simulator
from .packet import Packet
from .queues import Qdisc

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node


class _Channel:
    """One serial transmitter: a qdisc plus the packet on its wire.

    A plain :class:`Link` owns exactly one; an :class:`AggregateLink`
    owns one per member.  ``busy_until`` is the end of the packet being
    serialized (``None`` once the channel is known idle); ``done_pending``
    says whether a completion event is scheduled for it.  ``epoch``
    versions that event: fault transitions bump it, so a completion
    scheduled before a link went down no-ops when it fires.
    """

    __slots__ = ("qdisc", "busy_until", "done_pending", "epoch", "poll_event")

    def __init__(self, qdisc: Qdisc) -> None:
        self.qdisc = qdisc
        self.busy_until: Optional[float] = None
        self.done_pending = False
        self.epoch = 0
        self.poll_event: Optional[Event] = None


class Link:
    """One direction of a wire between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay: float,
        qdisc: Qdisc,
        name: Optional[str] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.qdisc = qdisc
        self.name = name or f"{src.name}->{dst.name}"
        #: Whether this link crosses into a trust domain at its far end:
        #: a trust-boundary router tags requests arriving over such links
        #: (Section 3.2).  Topology builders set it for host access links
        #: and inter-domain links.
        self.boundary_ingress = False
        #: Administrative/fault state; a down link drops arrivals and does
        #: not start new transmissions.
        self.up = True
        self._chan = _Channel(qdisc)
        # Counters for utilization traces; external readers see ints via
        # the properties below.
        self._tx_packets = Counter("tx_packets")
        self._tx_bytes = Counter("tx_bytes")
        # Packets lost to the link being down: the backlog drained by
        # set_down() plus arrivals while down.  Kept separate from qdisc
        # drops so queue-level accounting stays about queueing decisions.
        self._fault_drops = Counter("fault_drops")
        self._fault_drop_bytes = Counter("fault_drop_bytes")
        #: Optional packet -> class-name callback.  ``None`` (the default)
        #: keeps the transmit path classification-free; the observability
        #: layer sets it for instrumented links only, so per-class
        #: accounting costs nothing when metrics are off.
        self.classify: Optional[Callable[[Packet], str]] = None
        self._class_bytes: Dict[str, Counter] = {}

    @property
    def tx_packets(self) -> int:
        return self._tx_packets.value

    @property
    def tx_bytes(self) -> int:
        return self._tx_bytes.value

    @property
    def tx_bytes_counter(self) -> Counter:
        return self._tx_bytes

    def class_counter(self, cls: str) -> Counter:
        """Get-or-create the transmitted-bytes counter for a traffic class.

        The instrumenter pre-creates one per class before the run starts,
        so every counter exists for the registry even if its class never
        transmits."""
        counter = self._class_bytes.get(cls)
        if counter is None:
            counter = Counter(f"tx_bytes.{cls}")
            self._class_bytes[cls] = counter
        return counter

    def metric_counters(self) -> Dict[str, Counter]:
        return {
            "tx_packets": self._tx_packets,
            "tx_bytes": self._tx_bytes,
            "fault_drops": self._fault_drops,
            "fault_drop_bytes": self._fault_drop_bytes,
        }

    @property
    def fault_drops(self) -> int:
        return self._fault_drops.value

    @property
    def fault_drop_bytes(self) -> int:
        return self._fault_drop_bytes.value

    # ------------------------------------------------------------------
    def ingress_of(self, pkt: Packet) -> str:
        """The ingress-interface identity of ``pkt`` on this link.

        Trust-boundary routers key path-identifier tags on this (one tag
        per ingress interface, Section 3.2).  A plain link is one
        interface; an :class:`AggregateLink` resolves the packet to its
        member channel so every aggregated sender keeps the distinct tag
        its expanded equivalent would have."""
        return self.name

    # ------------------------------------------------------------------
    def _all_channels(self) -> Sequence[_Channel]:
        return (self._chan,)

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Hand a packet to this link's queue; starts transmission if idle.

        Returns ``False`` when the queue discipline dropped the packet or
        the link is down.
        """
        if not self.up:
            self._fault_drops.inc()
            self._fault_drop_bytes.inc(pkt.size)
            return False
        return self._send_on(self._chan, pkt)

    def _send_on(self, channel: _Channel, pkt: Packet) -> bool:
        busy_until = channel.busy_until
        if (
            busy_until is not None
            and not channel.done_pending
            and self.sim.now >= busy_until
        ):
            # The last packet left with nothing queued behind it and no
            # completion was needed: the wire has been quiet since.
            channel.busy_until = busy_until = None
        if not channel.qdisc.enqueue(pkt):
            return False
        if busy_until is None:
            self._pump(channel)
        elif not channel.done_pending:
            # Mid-serialization with a backlog again: serve it at the
            # boundary.
            self._schedule_done(channel)
        return True

    # ------------------------------------------------------------------
    def set_down(self) -> List[Packet]:
        """Take the link down: park transmission and drain the backlog.

        Returns the drained packets (already counted on the link's fault
        counters).  A packet mid-transmission still completes and
        propagates; the next pump attempt finds the link down and stops.
        Idempotent — downing a down link drains nothing.
        """
        if not self.up:
            return []
        self.up = False
        now = self.sim.now
        drained: List[Packet] = []
        for channel in self._all_channels():
            self.sim.cancel(channel.poll_event)
            channel.poll_event = None
            if channel.busy_until is not None:
                channel.epoch += 1  # void any pending completion
                channel.done_pending = False
                if now >= channel.busy_until:
                    channel.busy_until = None
            drained.extend(channel.qdisc.drain())
        for pkt in drained:
            self._fault_drops.inc()
            self._fault_drop_bytes.inc(pkt.size)
        return drained

    def set_up(self) -> None:
        """Bring the link back; resumes service of any new backlog."""
        if self.up:
            return
        self.up = True
        now = self.sim.now
        for channel in self._all_channels():
            if channel.busy_until is not None:
                if now < channel.busy_until:
                    # Still serializing the in-flight packet; resume
                    # service exactly at its boundary.
                    self._schedule_done(channel)
                    continue
                channel.busy_until = None
            self._pump(channel)

    # ------------------------------------------------------------------
    def _pump(self, channel: _Channel) -> None:
        """Put the next queued packet on an idle channel's wire."""
        if channel.busy_until is not None or not self.up:
            return
        now = self.sim.now
        qdisc = channel.qdisc
        pkt = qdisc.dequeue(now)
        if pkt is None:
            if not qdisc.backlog_pkts:
                # Truly idle — nothing to poll for (every discipline's
                # next_ready returns None on zero backlog).
                return
            # Backlogged but rate-limited: re-poll when tokens accrue.
            ready = qdisc.next_ready(now)
            if ready is not None and channel.poll_event is None:
                # Floor the poll delay at 1 µs so float rounding in a rate
                # limiter can never freeze simulated time.
                delay = max(1e-6, ready - now)
                channel.poll_event = self.sim.after(delay, self._poll, channel)
            return
        end = now + pkt.size * 8.0 / self.bandwidth_bps
        channel.busy_until = end
        self._tx_packets._value += 1
        self._tx_bytes._value += pkt.size
        if self.classify is not None:
            self.class_counter(self.classify(pkt)).inc(pkt.size)
        # Delivery is unconditional: even a link-down lets the packet on
        # the wire finish and propagate.
        self.sim.call_at(end + self.delay, self.dst.receive, pkt, self)
        if qdisc.backlog_pkts:
            self._schedule_done(channel)

    def _schedule_done(self, channel: _Channel) -> None:
        channel.done_pending = True
        self.sim.call_at(
            channel.busy_until, self._tx_done, channel, channel.epoch
        )

    def _tx_done(self, channel: _Channel, epoch: int) -> None:
        if epoch != channel.epoch:
            return  # voided by a fault transition
        channel.busy_until = None
        channel.done_pending = False
        self._pump(channel)

    def _poll(self, channel: _Channel) -> None:
        channel.poll_event = None
        self._pump(channel)

    # ------------------------------------------------------------------
    @property
    def drops(self) -> int:
        return self.qdisc.drops

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over ``elapsed`` seconds of simulation."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.tx_bytes * 8.0 / (self.bandwidth_bps * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.bandwidth_bps/1e6:.1f}Mb/s {self.delay*1e3:.0f}ms>"


class AggregateLink(Link):
    """An access trunk bundling ``count`` independent member channels.

    One :class:`AggregateLink` stands in for the ``count`` per-host
    access links an expanded topology would have.  Each channel has its
    own queue discipline (built on first use from ``qdisc_factory``) and
    its own serial transmitter at ``bandwidth_bps``, so queueing
    dynamics are exactly those of ``count`` separate links — the
    savings are the per-``Link``/per-``Node`` objects and the routing
    entries, not the model.

    ``by="src"`` selects the channel from the packet's source address
    (the uplink trunk), ``by="dst"`` from the destination (the
    downlink).  Lazily built channel qdiscs start in the same state a
    link-construction-time qdisc would have reached untouched (empty
    queues, full token buckets), so lazy creation is behaviour-neutral.
    """

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay: float,
        qdisc_factory: Callable[[], Qdisc],
        base_address: int,
        count: int,
        by: str,
        member_prefix: str,
        name: Optional[str] = None,
    ) -> None:
        if by not in ("src", "dst"):
            raise ValueError(f"unknown channel selector {by!r}")
        if count < 1:
            raise ValueError("aggregate link needs at least one channel")
        # The base-class qdisc slot holds channel 0's discipline so code
        # that pokes link.qdisc (drain on faults, tests) sees a real one.
        super().__init__(sim, src, dst, bandwidth_bps, delay,
                         qdisc=qdisc_factory(), name=name)
        self.qdisc_factory = qdisc_factory
        self.base_address = base_address
        self.count = count
        self.by_src = by == "src"
        self.member_prefix = member_prefix
        self._channels: Dict[int, _Channel] = {0: self._chan}

    # -- channel resolution --------------------------------------------
    def _index_of(self, pkt: Packet) -> int:
        addr = pkt.src if self.by_src else pkt.dst
        idx = addr - self.base_address
        if not 0 <= idx < self.count:
            raise ValueError(
                f"packet {'src' if self.by_src else 'dst'} {addr} outside "
                f"aggregate {self.name} range "
                f"[{self.base_address}, {self.base_address + self.count})"
            )
        return idx

    def _channel(self, idx: int) -> _Channel:
        channel = self._channels.get(idx)
        if channel is None:
            channel = _Channel(self.qdisc_factory())
            self._channels[idx] = channel
        return channel

    def _all_channels(self) -> Sequence[_Channel]:
        return [self._channels[idx] for idx in sorted(self._channels)]

    def ingress_of(self, pkt: Packet) -> str:
        # Matches the expanded per-host link name f"{member}->{router}".
        return f"{self.member_prefix}{self._index_of(pkt)}->{self.dst.name}"

    # -- data path ------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        if not self.up:
            self._fault_drops.inc()
            self._fault_drop_bytes.inc(pkt.size)
            return False
        return self._send_on(self._channel(self._index_of(pkt)), pkt)

    @property
    def drops(self) -> int:
        return sum(
            self._channels[idx].qdisc.drops for idx in sorted(self._channels)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AggregateLink {self.name} x{self.count} "
            f"{self.bandwidth_bps/1e6:.1f}Mb/s {self.delay*1e3:.0f}ms>"
        )
