"""Periodic metric sampling in simulated time.

A :class:`Sampler` is a simulator event like any other: it fires every
``interval`` simulated seconds, reads the whole
:class:`~repro.obs.metrics.MetricRegistry`, and appends one row to its
record.  Because both the firing times and the reads are functions of
simulated (not wall-clock) time, the recorded series are bit-identical
across runs, processes, and ``PYTHONHASHSEED`` values — the property the
sweep cache and the ``--jobs`` determinism guarantee depend on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from .metrics import MetricRegistry, MetricValue

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class Sampler:
    """Record one row of every registered metric each ``interval`` seconds.

    The first sample fires one interval in, matching
    :class:`~repro.sim.trace.LinkMonitor`; a run of ``duration`` seconds
    yields ``floor(duration / interval)`` rows.
    """

    def __init__(
        self, sim: "Simulator", registry: MetricRegistry, interval: float = 0.5
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.rows: List[Tuple[float, Dict[str, MetricValue]]] = []
        sim.after(interval, self._tick)

    def _tick(self) -> None:
        self.rows.append((self.sim.now, self.registry.sample()))
        self.sim.after(self.interval, self._tick)

    # ------------------------------------------------------------------
    def series(self) -> Dict[str, Tuple[Tuple[float, MetricValue], ...]]:
        """The record pivoted into per-metric time series.

        Metrics registered after the first tick simply start later; the
        normal flow (instrument everything, then run) gives every series
        the full length.
        """
        out: Dict[str, List[Tuple[float, MetricValue]]] = {}
        for t, row in self.rows:
            for name, value in sorted(row.items()):
                out.setdefault(name, []).append((t, value))
        return {name: tuple(points) for name, points in sorted(out.items())}

    def __len__(self) -> int:
        return len(self.rows)
