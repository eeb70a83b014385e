"""The four TVA flood workloads the benchmark times.

Every workload runs scheme ``tva`` and is one batch job: a single
``run_spec`` call is one sample.  Specs are built only through the
public entry points (``ScenarioSpec`` and the curated scenario library),
and the benchmark's ``--seed`` becomes ``ScenarioSpec.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.api import ExperimentConfig, ScenarioSpec, get_scenario

#: The seed whose results are pinned in ``reference.json``.
DEFAULT_SEED = 1

SpecBuilder = Callable[[int, Optional[float]], ScenarioSpec]


@dataclass(frozen=True)
class Workload:
    """A named spec builder plus the reason the benchmark keeps it.

    ``warmup_duration`` is the simulated length of the discarded warm-up
    run; it only has to touch every code path the timed runs execute.
    """

    name: str
    why: str
    build: SpecBuilder
    warmup_duration: float

    def spec(self, seed: int, duration: Optional[float] = None) -> ScenarioSpec:
        """The spec for ``seed``; ``duration`` shortens it (warm-up, tests)."""
        return self.build(seed, duration)


def _dumbbell(attack: str, policy: str) -> SpecBuilder:
    def build(seed: int, duration: Optional[float]) -> ScenarioSpec:
        config = ExperimentConfig(seed=seed)
        if duration is not None:
            config = ExperimentConfig(seed=seed, duration=duration)
        return ScenarioSpec(
            scheme="tva",
            attack=attack,
            n_attackers=100,
            seed=seed,
            config=config,
            policy=policy,
        )

    return build


def _curated(name: str, metrics: bool) -> SpecBuilder:
    def build(seed: int, duration: Optional[float]) -> ScenarioSpec:
        return get_scenario(name).spec(
            scheme="tva", seed=seed, duration=duration, metrics=metrics
        )

    return build


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dumbbell_legacy",
            "Fig 8 point, 100 legacy flooders on the dumbbell: bare "
            "forwarding through engine, link and qdisc; bypasses crypto, "
            "the host shim and setup",
            _dumbbell("legacy", "server"),
            warmup_duration=1.0,
        ),
        Workload(
            "dumbbell_request",
            "Fig 9 point, 100 request flooders, filtering policy: the same "
            "packets as dumbbell_legacy but every attack packet is hashed, "
            "isolating the router core's crypto path",
            _dumbbell("request", "filtering"),
            warmup_duration=1.0,
        ),
        Workload(
            "as_colluders",
            "Colluder-authorized floods over a multi-hop AS graph with "
            "metrics on: the one workload where host shim, flow state, the "
            "validation-cache hit path and obs sampling work",
            _curated("as-colluders", metrics=True),
            warmup_duration=1.0,
        ),
        Workload(
            "flood_10k",
            "10^4 aggregated senders on a 4-leaf tree: the only workload "
            "where setup, GC and memory matter",
            _curated("flood-10k", metrics=False),
            warmup_duration=0.2,
        ),
    )
}
