"""Typed fault events.

Each event is a frozen dataclass with an absolute firing time ``at`` and a
stable ``kind`` string used for serialization; the set of kinds doubles as
the CLI's ``--fault`` vocabulary (see :func:`parse_fault`).  Events carry
*names*, never object references, so a schedule pickles across worker
processes and hashes into the result-cache key.

The four kinds model the network dynamics of Sections 3.8 and 5:

* :class:`LinkDown` / :class:`LinkUp` — a link is parked (its queue backlog
  drains and is lost) and later restored.
* :class:`RouterReboot` — a router loses its cached flow state and, unless
  ``rotate_secret`` is off, its pre-capability secret: every outstanding
  capability through it dies and senders must re-request.
* :class:`RouteChange` — static routes are recomputed over the live links,
  shifting path identifiers mid-flow.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, List, Tuple, Type


@dataclass(frozen=True)
class FaultEvent:
    """Base: one scheduled fault at absolute simulated time ``at``."""

    at: float

    #: Stable serialization tag; each concrete event defines its own.
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at!r}")

    def to_dict(self) -> Dict:
        """Plain data including the ``kind`` tag (``dataclasses.asdict``
        alone would lose it — ``kind`` is a ClassVar)."""
        data = asdict(self)
        data["kind"] = self.kind
        return data

    @staticmethod
    def from_dict(data: Dict) -> "FaultEvent":
        data = dict(data)
        kind = data.pop("kind", None)
        cls = EVENT_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown fault kind {kind!r}; choose from {sorted(EVENT_KINDS)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class LinkDown(FaultEvent):
    """Take ``link`` down, draining (and losing) its queued backlog.

    ``link`` is resolved by :meth:`repro.sim.topology.Network.links_by_name`:
    the ``"bottleneck"``/``"reverse"`` aliases, an exact ``"A->B"`` name, or
    ``"A<->B"`` for both directions.
    """

    link: str = "bottleneck"
    kind: ClassVar[str] = "link-down"


@dataclass(frozen=True)
class LinkUp(FaultEvent):
    """Bring ``link`` back up; queued senders resume on their next packet."""

    link: str = "bottleneck"
    kind: ClassVar[str] = "link-up"


@dataclass(frozen=True)
class RouterReboot(FaultEvent):
    """Reboot ``router``: flow state is lost; with ``rotate_secret`` the
    pre-capability secret rotates too (Section 3.8's failure model)."""

    router: str = "R1"
    rotate_secret: bool = True
    kind: ClassVar[str] = "reboot"


@dataclass(frozen=True)
class RouteChange(FaultEvent):
    """Recompute static routes over the currently-up links.

    Non-strict: destinations unreachable after a partition simply lose
    their routes until a later :class:`RouteChange` heals them.
    """

    kind: ClassVar[str] = "route-change"


EVENT_KINDS: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls for cls in (LinkDown, LinkUp, RouterReboot, RouteChange)
}


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_fault(text: str) -> Tuple[FaultEvent, ...]:
    """Parse one CLI ``--fault`` spec into events.

    Grammar (fields separated by ``:``)::

        link-down:T[:T_up][:LINK]     down at T; optional paired LinkUp
        link-up:T[:LINK]
        reboot:T[:ROUTER][:keep-secret]
        route-change:T

    ``link-down:1.0:5.0:bottleneck`` expands to a LinkDown at 1.0 and a
    LinkUp at 5.0 on the bottleneck.  A single spec may therefore yield
    more than one event, hence the tuple return.
    """
    parts = [p.strip() for p in text.split(":")]
    kind, args = parts[0], parts[1:]
    if kind not in EVENT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {text!r}; "
            f"choose from {sorted(EVENT_KINDS)}"
        )
    if not args or not _is_number(args[0]):
        raise ValueError(f"fault spec {text!r} needs a time as its first field")
    at = float(args[0])
    rest = args[1:]

    if kind == "link-down":
        up_at = None
        if rest and _is_number(rest[0]):
            up_at = float(rest[0])
            rest = rest[1:]
        link = rest[0] if rest else "bottleneck"
        if len(rest) > 1:
            raise ValueError(f"too many fields in fault spec {text!r}")
        events: List[FaultEvent] = [LinkDown(at=at, link=link)]
        if up_at is not None:
            if up_at <= at:
                raise ValueError(
                    f"link-up time {up_at} must come after link-down time {at}"
                )
            events.append(LinkUp(at=up_at, link=link))
        return tuple(events)

    if kind == "link-up":
        link = rest[0] if rest else "bottleneck"
        if len(rest) > 1:
            raise ValueError(f"too many fields in fault spec {text!r}")
        return (LinkUp(at=at, link=link),)

    if kind == "reboot":
        rotate = True
        if rest and rest[-1] == "keep-secret":
            rotate = False
            rest = rest[:-1]
        router = rest[0] if rest else "R1"
        if len(rest) > 1:
            raise ValueError(f"too many fields in fault spec {text!r}")
        return (RouterReboot(at=at, router=router, rotate_secret=rotate),)

    if rest:
        raise ValueError(f"too many fields in fault spec {text!r}")
    return (RouteChange(at=at),)
