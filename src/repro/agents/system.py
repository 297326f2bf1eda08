"""AgentSystem: one-stop wiring of a complete simulated deployment.

Builds (in order): engine → nodes → mobility placement → topology →
channel → network service → one :class:`ProviderAgent` per node, and
offers helpers to run negotiations and advance mobility. This is the
entry point examples and experiments use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.agents.organizer import OrganizerAgent
from repro.agents.provider import ProviderAgent
from repro.core.negotiation import NegotiationOutcome
from repro.core.selection import SelectionPolicy
from repro.errors import UnknownNodeError
from repro.network.channel import ChannelModel
from repro.network.messaging import NetworkService
from repro.network.mobility import MobilityModel, StaticPlacement
from repro.network.radio import DiscRadio, RadioModel
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.resources.provider import QoSProvider
from repro.services.service import Service
from repro.sim.engine import Engine
from repro.sim.events import weak_callback


class AgentSystem:
    """A fully wired simulated ad-hoc deployment.

    Args:
        nodes: The participating devices.
        seed: Master seed for all RNG streams.
        radio: Radio model (default: 100 m disc).
        mobility: Mobility model (default: static uniform placement in a
            120×120 m area — mostly one hop under the default 100 m
            radio, matching the paper's one-hop broadcast neighborhood).
        reliable_channel: Disable message loss (isolates algorithmic
            behaviour from the lossy channel).
        selection: Winner-selection policy for organizers.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        seed: int = 0,
        radio: Optional[RadioModel] = None,
        mobility: Optional[MobilityModel] = None,
        reliable_channel: bool = False,
        selection: Optional[SelectionPolicy] = None,
        max_hops: int = 1,
    ) -> None:
        self.engine = Engine(seed=seed)
        self.nodes: Dict[str, Node] = {n.node_id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise ValueError("duplicate node ids")
        self.radio = radio if radio is not None else DiscRadio()
        self.mobility = (
            mobility
            if mobility is not None
            else StaticPlacement(120.0, 120.0, self.engine.rng.stream("placement"))
        )
        # Membership is fixed for the system's lifetime: reuse one node
        # list for placement and every mobility tick instead of
        # re-materializing it per tick.
        self._node_list = list(self.nodes.values())
        self.mobility.place(self._node_list)
        self.topology = Topology(self._node_list, self.radio)
        self.channel = ChannelModel(
            self.topology,
            self.engine.rng.stream("channel"),
            reliable=reliable_channel,
        )
        self.network = NetworkService(self.engine, self.topology, self.channel)
        self.selection = selection
        self.max_hops = max_hops

        self.providers: Dict[str, QoSProvider] = {}
        self.provider_agents: Dict[str, ProviderAgent] = {}
        self.organizers: Dict[str, OrganizerAgent] = {}
        for node in self.nodes.values():
            agent = ProviderAgent(self.engine, node, self.network)
            self.provider_agents[node.node_id] = agent
            self.providers[node.node_id] = agent.provider

    # -- organizers -----------------------------------------------------------

    def organizer(self, node_id: str) -> OrganizerAgent:
        """Get (or lazily create) the organizer role on ``node_id``.

        The organizer takes over the node's inbox: it handles
        PROPOSE/CONFIRM/REFUSE itself, and chains CFP and AWARD to the
        node's provider agent, so the node still answers other
        organizers' CFPs and AWARDs.
        """
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        if node_id not in self.organizers:
            provider_agent = self.provider_agents[node_id]
            organizer = OrganizerAgent(
                self.engine,
                self.nodes[node_id],
                self.network,
                self.topology,
                selection=self.selection,
                max_hops=self.max_hops,
            )
            # Chain: organizer handles its kinds, provider handles CFP/AWARD.
            for kind in ("CFP", "AWARD"):
                organizer.on(kind, provider_agent.handler(kind))
            self.organizers[node_id] = organizer
        return self.organizers[node_id]

    # -- running -----------------------------------------------------------

    def negotiate(self, service: Service) -> Optional[NegotiationOutcome]:
        """Run one negotiation end-to-end on the simulated network.

        Steps the engine until the organizer completes and returns its
        outcome (``None`` if the engine ran dry first).

        Args:
            service: The service to allocate (requester must be a node).
        """
        organizer = self.organizer(service.requester)
        result: List[NegotiationOutcome] = []
        organizer.request_service(service, on_complete=result.append)
        # Step (not run-to-exhaustion) so long-lived background activity
        # (mobility ticks) does not get fast-forwarded past the horizon.
        while not result and self.engine.step():
            pass
        return result[0] if result else None

    def step_mobility(self, dt: float) -> None:
        """Advance node positions by ``dt`` and rebuild the topology.

        The rebuild advances the topology's cache epoch, so any cached
        neighborhoods/routes from before the move are dropped."""
        self.topology.advance_mobility(self.mobility, self._node_list, dt)

    def start_mobility_process(self, tick: float = 1.0, until: float = float("inf")) -> None:
        """Schedule periodic mobility advancement on the engine: a step of
        ``tick`` seconds every ``tick`` seconds, the next one scheduled
        while ``now + tick <= until``. Each tick is a weak callback over
        :meth:`_tick_mobility`, so a tick still pending when the system
        is dropped does not keep it alive; one process per system."""
        self._mobility_tick = tick
        self._mobility_until = until
        self.engine.schedule(tick, weak_callback(self._tick_mobility))

    def _tick_mobility(self, now: float) -> None:
        tick = self._mobility_tick
        self.step_mobility(tick)
        if now + tick <= self._mobility_until:
            self.engine.schedule(tick, weak_callback(self._tick_mobility))

    def __repr__(self) -> str:
        return f"<AgentSystem nodes={len(self.nodes)} t={self.engine.now:.3f}>"
