"""Wiring the metric registry into a built network.

:class:`Observation` bundles one run's registry and sampler and knows how
to instrument a :class:`~repro.sim.topology.Dumbbell`:

* the bottleneck links get total and per-traffic-class transmit counters
  plus derived per-interval utilization gauges (the Figure 2 view of the
  link: requests vs regular vs legacy/demoted bytes);
* every queue discipline in the bottleneck schedulers exports backlog
  gauges and drop counters broken down by drop reason;
* the scheme contributes its own counters through
  :meth:`~repro.sim.topology.SchemeFactory.metric_items` — TVA's router
  pipeline counters and flow-state occupancy (the Section 3.6 bound),
  SIFF's verification counters, pushback's filter activity;
* the shared :class:`~repro.transport.tcp.TcpStats` counters cover the
  transport view (retransmits, aborts, completions).

The export format is plain data (dicts, tuples, numbers) so it embeds in
:class:`~repro.eval.results.RunResult` and round-trips through the JSON
cache losslessly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..core.header import RegularHeader, RequestHeader
from .metrics import Counter, MetricRegistry, MetricValue
from .sampler import Sampler

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.link import Link
    from ..sim.packet import Packet
    from ..sim.queues import Qdisc
    from ..sim.topology import Dumbbell, SchemeFactory
    from ..transport.tcp import TcpStats

#: The three output classes of Figure 2.  Demoted packets count as
#: legacy — that is the point of demotion.
TRAFFIC_CLASSES = ("request", "regular", "legacy")


def traffic_class(pkt: "Packet") -> str:
    """Map a packet to its Figure 2 class on the wire."""
    if pkt.demoted:
        return "legacy"
    shim = pkt.shim
    if isinstance(shim, RequestHeader):
        return "request"
    if isinstance(shim, RegularHeader):
        return "regular"
    return "legacy"


def _rate_gauge(counter: Counter, scale: float) -> Callable[[], float]:
    """A gauge turning a cumulative byte counter into a per-interval rate.

    Each read returns ``delta_since_last_read * scale`` — with ``scale =
    8 / (bandwidth * interval)`` that is the fraction of link capacity
    used during the sampling interval.  The sampler reads every gauge
    exactly once per tick, so the kept mark is well-defined.
    """
    state = {"last": 0}

    def read() -> float:
        current = counter.value
        delta = current - state["last"]
        state["last"] = current
        return delta * scale

    return read


class Observation:
    """Registry + sampler + export for one simulation run."""

    def __init__(self, interval: float = 0.5) -> None:
        if interval <= 0:
            raise ValueError("metrics interval must be positive")
        self.interval = interval
        self.registry = MetricRegistry()
        self.sampler: Optional[Sampler] = None

    # ------------------------------------------------------------------
    def install(
        self,
        sim: "Simulator",
        net: "Dumbbell",
        scheme: "SchemeFactory",
        tcp_stats: Optional["TcpStats"] = None,
        injector=None,
    ) -> None:
        """Instrument a built network and start the periodic sampler.

        Must run before ``sim.run`` so the first tick lands at
        ``interval`` and every series has full length.  ``injector`` is
        an optional :class:`~repro.faults.FaultInjector`; its counters
        are registered under the ``faults.`` scope.
        """
        for label, link in (
            ("bottleneck", net.bottleneck),
            ("reverse", net.reverse_bottleneck),
        ):
            if link is not None:
                self.instrument_link(label, link)
        for name, read in scheme.metric_items():
            self.registry.gauge(f"scheme.{name}", read)
        if tcp_stats is not None:
            self.registry.register_many("transport", tcp_stats.metric_counters())
        if injector is not None:
            for name, counter in injector.metric_items():
                self.registry.register(f"faults.{name}", counter)
        self.instrument_hosts(net)
        self.sampler = Sampler(sim, self.registry, self.interval)

    # ------------------------------------------------------------------
    def instrument_hosts(self, net: "Dumbbell") -> None:
        """Aggregate host-shim activity: capability re-requests and
        demotion sightings, summed over all hosts.

        These are the dynamics signals of Section 3.8 — after a fault, a
        recovery shows up as a burst of ``hosts.requests_sent`` (TVA) or
        ``hosts.explorers_sent`` (SIFF)."""
        from ..sim.node import AggregateHost, Host

        shims = []
        for node in net.nodes:
            if isinstance(node, AggregateHost):
                shims.extend(s for s in node.shims if s is not None)
            elif isinstance(node, Host) and node.shim is not None:
                shims.append(node.shim)
        for attr in (
            "requests_sent",
            "explorers_sent",
            "grants_received",
            "demotions_seen",
        ):
            self.registry.gauge(
                f"hosts.{attr}",
                lambda shims=shims, attr=attr: sum(
                    getattr(shim, attr, 0) for shim in shims
                ),
            )

    # ------------------------------------------------------------------
    def instrument_link(self, label: str, link: "Link") -> None:
        prefix = f"link.{label}"
        self.registry.register_many(prefix, link.metric_counters())
        link.classify = traffic_class
        scale = 8.0 / (link.bandwidth_bps * self.interval)
        self.registry.gauge(
            f"{prefix}.util", _rate_gauge(link.tx_bytes_counter, scale)
        )
        for cls in TRAFFIC_CLASSES:
            counter = link.class_counter(cls)
            self.registry.register(f"{prefix}.tx_bytes.{cls}", counter)
            self.registry.gauge(f"{prefix}.util.{cls}", _rate_gauge(counter, scale))
        self.instrument_qdisc(f"{prefix}.qdisc", link.qdisc)

    def instrument_qdisc(self, prefix: str, qdisc: "Qdisc") -> None:
        self.registry.register_many(prefix, qdisc.metric_counters())
        self.registry.gauge(f"{prefix}.backlog_pkts", lambda q=qdisc: q.backlog_pkts)
        self.registry.gauge(
            f"{prefix}.backlog_bytes", lambda q=qdisc: q.backlog_bytes
        )
        children = getattr(qdisc, "children", None)
        if children:
            for i, child in enumerate(children):
                label = child.label or f"class{i}"
                self.instrument_qdisc(f"{prefix}.{label}", child)

    # ------------------------------------------------------------------
    def export(self) -> Dict:
        """Plain-data summary: final values plus the sampled series.

        ``finals`` re-reads every metric once; for rate gauges that is
        the partial interval since the last tick, which is still fully
        deterministic.
        """
        finals: Dict[str, MetricValue] = self.registry.sample()
        series = self.sampler.series() if self.sampler is not None else {}
        return {
            "interval": self.interval,
            "finals": finals,
            "series": {name: tuple(points)
                       for name, points in sorted(series.items())},
        }
