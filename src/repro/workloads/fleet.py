"""Who is in a cluster and where: fleet mixes, the class draw, placement.

Every simulated neighborhood is a fleet of :class:`~repro.resources.node.Node`
objects — requesters first, then helpers whose device classes are drawn
from a named class mix — placed uniformly over a square area. This
module is the one home of those decisions, so every way of making a
fleet consumes the ``fleet`` and ``placement`` RNG streams identically:

* :data:`FLEET_MIXES` — the named helper-class mixes a
  :class:`~repro.workloads.contention.ContentionConfig` selects by name;
* :func:`draw_helpers` — the one weighted class draw (also behind the
  experiment layer's single-requester ``mixed_fleet``);
* :func:`contention_fleet` — the placed fleet of one contention run,
  shared by :func:`~repro.workloads.contention.run_contention`,
  :func:`repro.shard.fleet_tables` and
  :func:`repro.shard.run_sharded_contention`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping

import numpy as np

from repro.network.mobility import StaticPlacement
from repro.resources.node import Node, NodeClass
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.workloads.contention import ContentionConfig

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

#: Named fleet mixes, so a contention config selects a mix by name
#: instead of carrying an unhashable dict.
FLEET_MIXES: Mapping[str, Mapping[NodeClass, float]] = {
    "default": DEFAULT_MIX,
    "contention": CONTENTION_MIX,
}


def requester_id(k: int) -> str:
    """Node id of the ``k``-th requester (``req0``, ``req1``, ...)."""
    return f"req{k}"


def draw_helpers(
    nodes: List[Node],
    n_nodes: int,
    mix: Mapping[NodeClass, float],
    rng: np.random.Generator,
) -> List[Node]:
    """Fill ``nodes`` up to ``n_nodes`` with helpers ``n0, n1, ...``
    whose classes are drawn from ``mix`` (weights, normalized).

    The single home of the weighted class draw, so every fleet draws
    its helper classes from the rng identically by construction. One
    ``rng.choice`` of all the helpers' classes draws the same classes,
    and leaves the generator in the same state, as one scalar
    ``rng.choice`` per helper (``tests/test_workloads.py`` holds it to
    that loop).
    """
    classes = list(mix)  # insertion order == declaration order
    weights = np.asarray([mix[c] for c in classes], dtype=float)
    weights = weights / weights.sum()
    drawn = rng.choice(len(classes), size=max(n_nodes - len(nodes), 0), p=weights)
    for i, k in enumerate(drawn.tolist()):
        nodes.append(Node(f"n{i}", node_class=classes[k]))
    return nodes


def contention_fleet(config: "ContentionConfig", registry: RngRegistry) -> List[Node]:
    """The placed fleet of one contention run.

    Requesters come first (``req0`` ... ``req{K-1}``, all of the
    config's requester class), the remaining nodes are drawn from the
    config's class mix on the ``fleet`` stream, and every node is placed
    by the ``placement`` stream.
    """
    nodes = [
        Node(requester_id(k), node_class=config.requester_class)
        for k in range(config.n_requesters)
    ]
    draw_helpers(nodes, config.n_nodes, FLEET_MIXES[config.mix], registry.stream("fleet"))
    StaticPlacement(config.area, config.area, registry.stream("placement")).place(nodes)
    return nodes
