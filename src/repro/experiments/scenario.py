"""Scenario builders: node fleets, clusters, agent systems."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.agents.system import AgentSystem
from repro.experiments.config import ClusterConfig
from repro.network.mobility import MobilityModel, StaticPlacement
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.kinds import ResourceKind
from repro.resources.node import NODE_CLASS_PROFILES, Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.sim.rng import RngRegistry
from repro.workloads.fleet import draw_helpers


def mixed_fleet(
    config: ClusterConfig,
    rng: np.random.Generator,
    requester_id: str = "requester",
) -> List[Node]:
    """Build a heterogeneous node fleet per the cluster config.

    The first node is the requester (its device class fixed by the
    config); the rest are drawn from the class mix by
    :func:`~repro.workloads.fleet.draw_helpers`, the draw every fleet
    shares.
    """
    if config.n_nodes < 1:
        raise ValueError("need at least one node")
    return draw_helpers(
        [Node(requester_id, node_class=config.requester_class)],
        config.n_nodes, config.mix, rng,
    )


def build_cluster(
    config: ClusterConfig,
    seed: int,
    requester_id: str = "requester",
) -> Tuple[Topology, Dict[str, QoSProvider], List[Node], RngRegistry]:
    """A static one-hop-ish neighborhood for synchronous experiments.

    Returns the topology, a provider per node, the node list (requester
    first, placed by the ``placement`` stream), and the RNG registry for
    further draws.
    """
    registry = RngRegistry(seed)
    nodes = mixed_fleet(config, registry.stream("fleet"), requester_id)
    StaticPlacement(config.area, config.area, registry.stream("placement")).place(nodes)
    topology = Topology(nodes, DiscRadio(range_m=config.radio_range))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    return topology, providers, nodes, registry


def build_agent_system(
    config: ClusterConfig,
    seed: int,
    mobility: Optional[MobilityModel] = None,
    reliable_channel: bool = False,
    requester_id: str = "requester",
    **system_kwargs,
) -> AgentSystem:
    """A full agent deployment for protocol-level experiments."""
    registry = RngRegistry(seed)
    nodes = mixed_fleet(config, registry.stream("fleet"), requester_id)
    return AgentSystem(
        nodes,
        seed=seed,
        radio=DiscRadio(range_m=config.radio_range),
        mobility=mobility,
        reliable_channel=reliable_channel,
        **system_kwargs,
    )


def uniform_fleet(
    n_nodes: int,
    cpu_mean: float,
    cpu_spread: float,
    rng: np.random.Generator,
    requester_id: str = "requester",
) -> List[Node]:
    """Fleet with controlled CPU heterogeneity (for E7).

    Node CPU capacities are drawn uniformly from
    ``[cpu_mean·(1−spread), cpu_mean·(1+spread)]``; ``spread=0`` gives a
    homogeneous fleet of identical total compute. Other resources follow
    the PDA profile scaled by the same factor.
    """
    if not (0.0 <= cpu_spread <= 1.0):
        raise ValueError("cpu_spread must be in [0, 1]")
    base = NODE_CLASS_PROFILES[NodeClass.PDA]
    base_cpu = base.get(ResourceKind.CPU)
    nodes = []
    for i in range(n_nodes):
        node_id = requester_id if i == 0 else f"n{i - 1}"
        factor = float(
            rng.uniform(1.0 - cpu_spread, 1.0 + cpu_spread)
        ) * (cpu_mean / base_cpu)
        nodes.append(
            Node(node_id, node_class=NodeClass.PDA, capacity=base.scaled(factor))
        )
    return nodes
