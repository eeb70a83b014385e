"""Per-layer attribution for the traced run.

``cProfile`` self time (``tottime``) is folded through a fixed
module -> layer table (:data:`LAYER_MAP` and :data:`PACKAGE_LAYERS`).  C built-ins and the Python standard
library form the ``builtins`` layer.  Code with no source module, such
as the ``__init__``/``__eq__`` that ``dataclasses`` generates, is charged
to the layers of its callers, split by the time each caller spent in it.
Anything left over is ``other``; the benchmark's tests keep it small.
"""

from __future__ import annotations

import gc
import sysconfig
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Layers in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.link",
    "sim.queues",
    "sim.node",
    "sim.topology",
    "core.router",
    "core.crypto",
    "core.flowstate",
    "core.host",
    "transport.tcp",
    "transport.agents",
    "obs",
    "eval",
    "builtins",
)

OTHER = "other"

#: Module -> layer, by exact module name.  ``repro.sim`` is the
#: package's ``__init__`` only: a new module in ``sim``, ``core`` or
#: ``transport`` has no layer until it is added here.
LAYER_MAP: Dict[str, str] = {
    "repro": "eval",
    "repro.api": "eval",
    "repro.scenarios": "eval",
    "repro.schemes": "eval",
    "repro.sim": "sim.engine",
    "repro.sim.engine": "sim.engine",
    "repro.sim.engine_fast": "sim.engine",
    "repro.sim.link": "sim.link",
    "repro.sim.queues": "sim.queues",
    "repro.sim.node": "sim.node",
    "repro.sim.routing": "sim.node",
    "repro.sim.packet": "sim.node",
    "repro.sim.topology": "sim.topology",
    "repro.sim.topospec": "sim.topology",
    "repro.sim.trace": "eval",
    "repro.core": "core.router",
    "repro.core.router": "core.router",
    "repro.core.scheme": "core.router",
    "repro.core.policy": "core.router",
    "repro.core.params": "core.router",
    "repro.core.crypto": "core.crypto",
    "repro.core.capability": "core.crypto",
    "repro.core.header": "core.crypto",
    "repro.core.bits": "core.crypto",
    "repro.core.pathid": "core.crypto",
    "repro.core.flowstate": "core.flowstate",
    "repro.core.host": "core.host",
    "repro.transport": "transport.agents",
    "repro.transport.tcp": "transport.tcp",
    "repro.transport.agents": "transport.agents",
}

#: Packages whose every module belongs to one layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.baselines": "core.router",
    "repro.eval": "eval",
    # No workload injects faults; only the empty schedule is coerced.
    "repro.faults": "eval",
    "repro.obs": "obs",
    "repro.perf": "eval",
}

#: Modules no workload runs; they need no layer.
UNTIMED: Tuple[str, ...] = (
    "repro.__main__",
    "repro.analysis",
    "repro.cli",
    "repro.lint",
)

_STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()


def module_of(filename: str, src: Path) -> Optional[str]:
    """Dotted module name of ``filename`` if it lies under ``src``."""
    try:
        rel = Path(filename).resolve().relative_to(src)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or ``None`` if the map lacks it."""
    if module in LAYER_MAP:
        return LAYER_MAP[module]
    package = module
    while package:
        if package in PACKAGE_LAYERS:
            return PACKAGE_LAYERS[package]
        package = package.rpartition(".")[0]
    return None


def _is_stdlib(filename: str) -> bool:
    if filename == "~":
        return True
    try:
        Path(filename).resolve().relative_to(_STDLIB)
    except ValueError:
        return False
    return "site-packages" not in filename


def layer_of_file(filename: str, src: Path) -> Optional[str]:
    """Layer of a profiled function's file; ``None`` for generated code."""
    module = module_of(filename, src)
    if module is not None:
        return layer_of_module(module) or OTHER
    if _is_stdlib(filename):
        return "builtins"
    return None


def fold_profile(stats: Dict, src: Path) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {self_s, calls}}``.

    Every layer of :data:`LAYERS` and ``other`` is present, so a layer a
    workload never enters reports zero rather than going missing.
    """
    table = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS + (OTHER,)}
    by_file: Dict[str, Optional[str]] = {}

    def layer_of(func: Tuple[str, int, str]) -> Optional[str]:
        if func[0] not in by_file:
            by_file[func[0]] = layer_of_file(func[0], src)
        return by_file[func[0]]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            table[layer]["self_s"] += tt
            table[layer]["calls"] += nc
            continue
        # Generated code: charge each caller's layer for its share.
        charged = 0.0
        for caller, edge in callers.items():
            caller_layer = layer_of(caller) or OTHER
            table[caller_layer]["self_s"] += edge[2]
            table[caller_layer]["calls"] += edge[1]
            charged += edge[2]
        table[OTHER]["self_s"] += max(0.0, tt - charged)
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["self_s"] / total if total > 0 else 0.0
    return table


def repro_modules(stats: Dict, src: Path) -> List[str]:
    """Every ``repro`` module with at least one profiled function."""
    found = {module_of(func[0], src) for func in stats}
    return sorted(m for m in found if m is not None)


class GcProbe:
    """Counts collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)
