"""Queue disciplines.

Routers in every evaluated scheme are built from three primitives:

* :class:`DropTailQueue` — the plain FIFO used by the legacy Internet and
  for legacy/demoted traffic in TVA.
* :class:`DRRFairQueue` — deficit round robin fair queuing, the bounded-state
  fair queuing TVA performs over request path identifiers and over the
  destinations of cached authorized flows (Sections 3.2 and 3.9).
* :class:`TokenBucket` — the rate limiter that confines request traffic to a
  small fixed fraction of each link (Section 3.2).

All disciplines share the :class:`Qdisc` interface: ``enqueue`` returns
``False`` when the packet is dropped, ``dequeue(now)`` returns the next
packet or ``None``, and ``next_ready(now)`` tells a link when a currently
undequeuable backlog will become ready (used by rate-limited classes).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Hashable, List, Optional

from ..obs.metrics import Counter
from ..perf.counters import PERF
from .packet import Packet


class Qdisc:
    """Interface shared by all queue disciplines.

    Drop accounting is :class:`~repro.obs.metrics.Counter`-backed and
    broken down by reason (each subclass declares its ``DROP_REASONS``);
    external readers see plain ints through the ``drops``/``drop_bytes``
    properties, while the observability layer registers the counter
    objects via :meth:`metric_counters`.
    """

    #: Reason labels this discipline can drop for; the first is the
    #: default when ``_account_drop`` is called without one.
    DROP_REASONS: tuple = ()

    def __init__(self) -> None:
        self.backlog_bytes = 0
        self.backlog_pkts = 0
        self._drops = Counter("drops")
        self._drop_bytes = Counter("drop_bytes")
        self._drop_reasons: Dict[str, Counter] = {
            reason: Counter(f"drops.{reason}") for reason in self.DROP_REASONS
        }
        #: Label used by the observability layer to name this discipline
        #: inside a scheduler hierarchy (e.g. "request", "regular").
        self.label: str = ""
        #: Optional callback invoked with each dropped packet; pushback's
        #: aggregate detection feeds on this.
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        #: Congestion-marking hook: when both are set, every *accepted*
        #: enqueue that leaves ``backlog_bytes`` at or above the threshold
        #: invokes ``mark_hook(pkt)``.  NetFence's bottleneck routers flip
        #: their feedback stamps to ``cong`` here; dropped packets never
        #: fire it (they carry no feedback onward).  Off by default — the
        #: per-enqueue cost when unset is a single attribute test.
        self.mark_threshold_bytes: Optional[int] = None
        self.mark_hook: Optional[Callable[[Packet], None]] = None

    @property
    def drops(self) -> int:
        return self._drops.value

    @property
    def drop_bytes(self) -> int:
        return self._drop_bytes.value

    @property
    def drop_reasons(self) -> Dict[str, int]:
        return {reason: c.value
                for reason, c in sorted(self._drop_reasons.items())}

    def metric_counters(self) -> Dict[str, Counter]:
        """This discipline's counters, keyed by metric suffix."""
        out = {"drops": self._drops, "drop_bytes": self._drop_bytes}
        for reason, counter in sorted(self._drop_reasons.items()):
            out[f"drops.{reason}"] = counter
        return out

    # -- subclass API ---------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        raise NotImplementedError

    def next_ready(self, now: float) -> Optional[float]:
        """Earliest absolute time a backlogged packet could dequeue, or
        ``None`` when nothing is waiting.  The default says "now" whenever
        there is a backlog; rate-limited disciplines override this."""
        return now if self.backlog_pkts else None

    def drain(self) -> List[Packet]:
        """Remove and return every queued packet, in a deterministic order.

        Used when a link goes down (fault injection): the backlog is lost
        with the link.  Drained packets are *not* counted as qdisc drops —
        the queue did nothing wrong — so byte/packet backlog accounting
        returns to zero while the drop counters stay untouched; the caller
        (the link) accounts the loss on its own fault counters.
        """
        raise NotImplementedError

    # -- shared bookkeeping ---------------------------------------------
    # PERF.enqueues/dequeues tally accounting ops, so hierarchical
    # disciplines (PriorityScheduler over children) count once per level —
    # by design: the counters measure work done, not packets moved.
    def _account_in(self, pkt: Packet) -> None:
        self.backlog_bytes += pkt.size
        self.backlog_pkts += 1
        PERF.enqueues += 1
        if (
            self.mark_hook is not None
            and self.mark_threshold_bytes is not None
            and self.backlog_bytes >= self.mark_threshold_bytes
        ):
            self.mark_hook(pkt)

    def _account_out(self, pkt: Packet) -> None:
        self.backlog_bytes -= pkt.size
        self.backlog_pkts -= 1
        PERF.dequeues += 1

    def _account_drop(self, pkt: Packet, reason: Optional[str] = None) -> None:
        self._drops.inc()
        self._drop_bytes.inc(pkt.size)
        if reason is None and self.DROP_REASONS:
            reason = self.DROP_REASONS[0]
        if reason is not None:
            self._drop_reasons[reason].inc()
        if self.drop_hook is not None:
            self.drop_hook(pkt)


class DropTailQueue(Qdisc):
    """Plain FIFO; arrivals beyond the limit are dropped.

    The limit can be in packets (ns-2's default DropTail style, used by the
    legacy-Internet baseline so large flood packets and small TCP control
    packets face the same loss rate) or in bytes, or both."""

    DROP_REASONS = ("tail",)

    def __init__(
        self,
        limit_bytes: Optional[int] = 64_000,
        limit_pkts: Optional[int] = None,
    ) -> None:
        super().__init__()
        if limit_bytes is None and limit_pkts is None:
            raise ValueError("need a byte or packet limit")
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError("queue byte limit must be positive")
        if limit_pkts is not None and limit_pkts <= 0:
            raise ValueError("queue packet limit must be positive")
        self.limit_bytes = limit_bytes
        self.limit_pkts = limit_pkts
        self._queue: Deque[Packet] = deque()

    def enqueue(self, pkt: Packet) -> bool:
        # _account_in/_account_out are inlined in these two methods: the
        # FIFO is on every access link's per-packet path and the extra
        # call frames are measurable on the fig8 profile.
        size = pkt.size
        if self.limit_bytes is not None and self.backlog_bytes + size > self.limit_bytes:
            self._account_drop(pkt)
            return False
        if self.limit_pkts is not None and self.backlog_pkts + 1 > self.limit_pkts:
            self._account_drop(pkt)
            return False
        self._queue.append(pkt)
        self.backlog_bytes += size
        self.backlog_pkts += 1
        PERF.enqueues += 1
        if (
            self.mark_hook is not None
            and self.mark_threshold_bytes is not None
            and self.backlog_bytes >= self.mark_threshold_bytes
        ):
            self.mark_hook(pkt)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        pkt = self._queue.popleft()
        self.backlog_bytes -= pkt.size
        self.backlog_pkts -= 1
        PERF.dequeues += 1
        return pkt

    def drain(self) -> List[Packet]:
        drained = list(self._queue)
        self._queue.clear()
        for pkt in drained:
            self._account_out(pkt)
        return drained


class DRRFairQueue(Qdisc):
    """Deficit round robin fair queue with a bounded number of per-key queues.

    ``key_fn`` maps a packet to its queue identity — a path identifier for
    request queuing, a destination address for authorized-traffic queuing.
    The number of simultaneously backlogged keys is capped at ``max_queues``
    (the paper's bounded router state requirement); packets for new keys
    beyond the cap are dropped.

    Fairness is byte-based: each active queue receives ``quantum`` bytes of
    deficit per round, the standard DRR algorithm of Shreedhar & Varghese.
    """

    DROP_REASONS = ("overflow", "no_slot")

    def __init__(
        self,
        key_fn: Callable[[Packet], Hashable],
        limit_bytes_per_queue: int = 32_000,
        max_queues: int = 4096,
        quantum: int = 1500,
    ) -> None:
        super().__init__()
        self.key_fn = key_fn
        self.limit_bytes_per_queue = limit_bytes_per_queue
        self.max_queues = max_queues
        self.quantum = quantum
        self._queues: "OrderedDict[Hashable, Deque[Packet]]" = OrderedDict()
        self._bytes: Dict[Hashable, int] = {}
        self._deficit: Dict[Hashable, int] = {}
        self._round: List[Hashable] = []  # active keys in round-robin order
        self._round_idx = 0
        # Whether the queue at _round_idx already received its quantum for
        # the current round visit; without this flag a queue would be
        # topped up on every dequeue and monopolize the scheduler.
        self._topped: Dict[Hashable, bool] = {}

    @property
    def active_queues(self) -> int:
        return len(self._round)

    def enqueue(self, pkt: Packet) -> bool:
        key = self.key_fn(pkt)
        queue = self._queues.get(key)
        if queue is None:
            if len(self._queues) >= self.max_queues:
                self._account_drop(pkt, "no_slot")
                return False
            if pkt.size > self.limit_bytes_per_queue:
                # Reject before registering: an accepted-never first packet
                # must not leave behind an empty queue.  A drained scheduler
                # only retires queues on dequeue, so registering first would
                # let a flood of oversized packets with distinct keys pin
                # all max_queues slots permanently — state exhaustion inside
                # the DoS defense itself.
                self._account_drop(pkt, "overflow")
                return False
            queue = deque()
            self._queues[key] = queue
            self._bytes[key] = 0
            self._deficit[key] = 0
            self._topped[key] = False
            self._round.append(key)
        elif self._bytes[key] + pkt.size > self.limit_bytes_per_queue:
            self._account_drop(pkt, "overflow")
            return False
        queue.append(pkt)
        size = pkt.size
        self._bytes[key] += size
        # _account_in inlined (hot path; see DropTailQueue.enqueue).
        self.backlog_bytes += size
        self.backlog_pkts += 1
        PERF.enqueues += 1
        if (
            self.mark_hook is not None
            and self.mark_threshold_bytes is not None
            and self.backlog_bytes >= self.mark_threshold_bytes
        ):
            self.mark_hook(pkt)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self.backlog_pkts:
            return None
        # Classic DRR (Shreedhar & Varghese): on *arriving* at a queue in
        # round order its deficit grows by one quantum; packets are served
        # while the deficit covers them; when it no longer does, the
        # scheduler moves on and the queue waits for its next round.
        # (Hot loop: the per-key dicts are bound to locals; _retire
        # mutates self._round/_round_idx, so those stay attribute reads.)
        round_ = self._round
        queues = self._queues
        deficit = self._deficit
        topped = self._topped
        qbytes = self._bytes
        quantum = self.quantum
        while True:
            if self._round_idx >= len(round_):
                self._round_idx = 0
            key = round_[self._round_idx]
            queue = queues[key]
            if not queue:
                self._retire(key)
                continue
            if not topped[key]:
                deficit[key] += quantum
                topped[key] = True
            head = queue[0]
            size = head.size
            remaining = deficit[key]
            if remaining < size:
                # Spent for this round; revisit after the others.
                topped[key] = False
                self._round_idx += 1
                continue
            queue.popleft()
            deficit[key] = remaining - size
            qbytes[key] -= size
            # _account_out inlined (hot path).
            self.backlog_bytes -= size
            self.backlog_pkts -= 1
            PERF.dequeues += 1
            if not queue:
                self._retire(key)
            return head

    def drain(self) -> List[Packet]:
        # Round order is the deterministic service order, so draining in it
        # keeps the result independent of dict iteration quirks.
        drained: List[Packet] = []
        for key in self._round:
            drained.extend(self._queues[key])
        for pkt in drained:
            self._account_out(pkt)
        self._queues.clear()
        self._bytes.clear()
        self._deficit.clear()
        self._topped.clear()
        self._round = []
        self._round_idx = 0
        return drained

    def _retire(self, key: Hashable) -> None:
        """Remove an emptied queue so idle keys hold no state or deficit."""
        idx = self._round.index(key)
        del self._round[idx]
        if idx < self._round_idx:
            self._round_idx -= 1
        del self._queues[key]
        del self._bytes[key]
        del self._deficit[key]
        del self._topped[key]


class StochasticFairQueue(DRRFairQueue):
    """Stochastic fair queuing (McKenney / SFQ): flows hash onto a fixed
    number of DRR queues instead of getting their own.

    The paper considers this as the alternative to its
    bounded-cached-flows scheme and rejects it: "we believe our scheme has
    the potential to prevent attackers from using deliberate hash
    collisions to crowd out legitimate users" (Section 3.9).  This
    implementation exists to make that comparison runnable — see
    ``tests/sim/test_sfq.py`` for the collision attack.
    """

    def __init__(
        self,
        key_fn: Callable[[Packet], Hashable],
        n_buckets: int = 16,
        limit_bytes_per_queue: int = 32_000,
        quantum: int = 1500,
        salt: int = 0,
    ) -> None:
        super().__init__(
            key_fn=self._bucket_of,
            limit_bytes_per_queue=limit_bytes_per_queue,
            max_queues=n_buckets,
            quantum=quantum,
        )
        self._flow_key_fn = key_fn
        self.n_buckets = n_buckets
        self.salt = salt

    def _bucket_of(self, pkt: Packet) -> int:
        # Deliberately NOT Python's hash(): that one is salted per process
        # (PYTHONHASHSEED), which would make bucket assignment — and thus
        # every SFQ result — differ across pool workers and cache replays.
        # crc32 over a canonical encoding is stable everywhere.  This is
        # the bug that motivated lint rule D001 (hash-builtin); a builtin
        # hash() here would need a # repro: allow-hash-builtin it could
        # never justify.
        key = repr((self._flow_key_fn(pkt), self.salt)).encode("utf-8")
        return zlib.crc32(key) % self.n_buckets


class TokenBucket:
    """A token bucket metering bytes at ``rate_bps`` bits per second.

    Tokens are stored as bytes.  ``burst_bytes`` caps accumulation so an
    idle request class cannot save up an unbounded burst allowance.
    """

    def __init__(self, rate_bps: float, burst_bytes: int = 3000) -> None:
        if rate_bps <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate_Bps = rate_bps / 8.0
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(
                self.burst_bytes, self._tokens + (now - self._last) * self.rate_Bps
            )
            self._last = now

    def available(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    #: Tolerance for float rounding in refill arithmetic.  Without it a
    #: bucket can asymptotically approach (but never reach) a packet's
    #: size, deadlocking the link that polls on ``time_until``.
    _EPSILON = 1e-6

    def set_rate(
        self, rate_bps: float, now: float, burst_bytes: Optional[int] = None
    ) -> None:
        """Change the fill rate (and optionally the burst cap) at ``now``.

        Tokens accrued so far are settled at the *old* rate first, so a
        mid-interval change never re-prices already-elapsed time.
        NetFence's AIMD limiters adjust their rates through this every
        control interval.
        """
        if rate_bps <= 0:
            raise ValueError("token bucket rate must be positive")
        self._refill(now)
        self.rate_Bps = rate_bps / 8.0
        if burst_bytes is not None:
            if burst_bytes <= 0:
                raise ValueError("token bucket burst must be positive")
            self.burst_bytes = burst_bytes
            self._tokens = min(self._tokens, float(burst_bytes))

    def try_consume(self, nbytes: int, now: float) -> bool:
        self._refill(now)
        if self._tokens >= nbytes - self._EPSILON:
            self._tokens -= nbytes
            return True
        return False

    def time_until(self, nbytes: int, now: float) -> float:
        """Absolute time at which ``nbytes`` of tokens will be available."""
        self._refill(now)
        deficit = nbytes - self._tokens
        if deficit <= self._EPSILON:
            return now
        return now + deficit / self.rate_Bps


class PriorityScheduler(Qdisc):
    """Strict-priority composition of child disciplines.

    ``classes`` is an ordered list of ``(classifier, qdisc, bucket)``
    triples.  An arriving packet is enqueued into the first class whose
    classifier accepts it.  Dequeue serves the highest-priority class with
    a ready packet; a class with a token bucket may only send when the
    bucket covers the head packet (this is how TVA confines requests to 5%
    of the link without ever letting them starve, Figure 2).
    """

    DROP_REASONS = ("child", "unclassified")

    def __init__(
        self,
        classes: List,
    ) -> None:
        super().__init__()
        self._classes = []
        # A rate-limited class may have dequeued a head packet it cannot yet
        # afford; it is parked here (index-aligned with _classes) until its
        # tokens accrue.  Parking the real packet lets next_ready() report
        # the exact wait, which is what keeps links from busy-polling.
        self._deferred: List[Optional[Packet]] = []
        for entry in classes:
            classifier, qdisc = entry[0], entry[1]
            bucket = entry[2] if len(entry) > 2 else None
            self._classes.append((classifier, qdisc, bucket))
            self._deferred.append(None)

    @property
    def children(self) -> List[Qdisc]:
        return [qdisc for _, qdisc, _ in self._classes]

    def enqueue(self, pkt: Packet) -> bool:
        for classifier, qdisc, _ in self._classes:
            if classifier(pkt):
                ok = qdisc.enqueue(pkt)
                if ok:
                    # _account_in inlined (hot path; see DropTailQueue).
                    self.backlog_bytes += pkt.size
                    self.backlog_pkts += 1
                    PERF.enqueues += 1
                    if (
                        self.mark_hook is not None
                        and self.mark_threshold_bytes is not None
                        and self.backlog_bytes >= self.mark_threshold_bytes
                    ):
                        self.mark_hook(pkt)
                else:
                    # The child already accounted the drop in its own
                    # counters (and fired any drop_hook of its own); the
                    # parent records it too so scheduler totals stay
                    # consistent with child sums.
                    self._account_drop(pkt, "child")
                return ok
        # No class claimed the packet: drop it.
        self._account_drop(pkt, "unclassified")
        return False

    def dequeue(self, now: float) -> Optional[Packet]:
        # Parked heads stay in this scheduler's backlog accounting, so an
        # empty backlog really means nothing to serve anywhere.
        if not self.backlog_pkts:
            return None
        for idx, (_, qdisc, bucket) in enumerate(self._classes):
            if bucket is None:
                pkt = qdisc.dequeue(now)
                if pkt is not None:
                    # _account_out inlined (hot path).
                    self.backlog_bytes -= pkt.size
                    self.backlog_pkts -= 1
                    PERF.dequeues += 1
                    return pkt
                continue
            pkt = self._deferred[idx]
            if pkt is None:
                pkt = qdisc.dequeue(now)
            if pkt is None:
                continue
            if bucket.try_consume(pkt.size, now):
                self._deferred[idx] = None
                self.backlog_bytes -= pkt.size
                self.backlog_pkts -= 1
                PERF.dequeues += 1
                return pkt
            # Not enough tokens yet; park the head and let a lower class go.
            self._deferred[idx] = pkt
        return None

    def drain(self) -> List[Packet]:
        # Parked heads left the child on dequeue but are still in this
        # scheduler's backlog accounting, so they drain here too.
        drained: List[Packet] = []
        for idx, (_, qdisc, _) in enumerate(self._classes):
            deferred = self._deferred[idx]
            if deferred is not None:
                self._deferred[idx] = None
                drained.append(deferred)
            drained.extend(qdisc.drain())
        for pkt in drained:
            self._account_out(pkt)
        return drained

    def next_ready(self, now: float) -> Optional[float]:
        if not self.backlog_pkts:
            return None
        best: Optional[float] = None
        for idx, (_, qdisc, bucket) in enumerate(self._classes):
            deferred = self._deferred[idx]
            if deferred is None and not qdisc.backlog_pkts:
                continue
            if bucket is None:
                return now
            if deferred is not None:
                t = bucket.time_until(deferred.size, now)
            else:
                # A head packet exists but has not been pulled yet; the next
                # dequeue attempt will park it and refine the estimate.
                t = now
            if best is None or t < best:
                best = t
        return best
