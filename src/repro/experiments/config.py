"""Experiment configuration dataclasses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.resources.node import NodeClass

#: Default device mix of a heterogeneous neighborhood: mostly handhelds,
#: some laptops — the paper's "telephones, PDAs, laptops" population.
DEFAULT_MIX: Mapping[NodeClass, float] = {
    NodeClass.PHONE: 0.3,
    NodeClass.PDA: 0.4,
    NodeClass.LAPTOP: 0.3,
}

#: A laptop-heavier mix for multi-requester contention scenarios: with
#: several phone-class requesters competing, an all-handheld helper pool
#: would make every high-K point fail outright instead of exhibiting the
#: graceful degradation the contention suites measure.
CONTENTION_MIX: Mapping[NodeClass, float] = {
    NodeClass.PHONE: 0.2,
    NodeClass.PDA: 0.35,
    NodeClass.LAPTOP: 0.45,
}

#: Named fleet mixes, so declarative scenario specs
#: (:class:`repro.workloads.registry.ScenarioSpec`) can stay primitive
#: and reference a mix by name instead of carrying an unhashable dict.
FLEET_MIXES: Mapping[str, Mapping[NodeClass, float]] = {
    "default": DEFAULT_MIX,
    "contention": CONTENTION_MIX,
}


@dataclass(frozen=True)
class ClusterConfig:
    """One simulated neighborhood.

    Attributes:
        n_nodes: Total node count, including the requester.
        requester_class: Device class of the requesting node (weak by
            default — the paper's motivating client).
        mix: Class mix for the remaining nodes (weights, normalized).
        area: Side length of the square deployment area (m).
        radio_range: Disc-radio range (m). The default area/range keep a
            neighborhood mostly within one hop, as the paper's one-hop
            broadcast assumes.
    """

    n_nodes: int = 8
    requester_class: NodeClass = NodeClass.PHONE
    mix: Mapping[NodeClass, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    area: float = 120.0
    radio_range: float = 100.0


@dataclass(frozen=True)
class SweepConfig:
    """Replication settings shared by the experiment suites.

    Attributes:
        seeds: Seeds to replicate each configuration over.
        quick: Shrinks sweeps for smoke tests (used by the test suite).
        jobs: Worker processes. ``1`` runs serially; ``0`` uses every
            core. The value sizes the one pool that runs every work
            unit of the call — all sweep points of a suite, and all
            suites of a batch. Parallel runs are bit-identical to serial
            ones (see :mod:`repro.experiments.parallel`).
    """

    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    quick: bool = False
    jobs: int = 1

    @property
    def effective_seeds(self) -> Tuple[int, ...]:
        return self.seeds[:3] if self.quick else self.seeds
