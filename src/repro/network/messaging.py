"""Typed messages and the network delivery service.

:class:`NetworkService` binds the engine, topology and channel model into
the send/broadcast API agents use. Deliveries are engine events at
:class:`~repro.sim.events.Priority.DELIVERY`; each registered node gets an
inbox callback. The experiments count protocol messages with
:attr:`NetworkService.sent_count` and :attr:`NetworkService.lost_count`;
each transmission is also emitted to the engine's trace sink (category
``"net"``) when one is attached.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MethodType
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import UnknownNodeError
from repro.network.channel import ChannelModel
from repro.network.topology import Topology
from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.sim.sequences import Sequence

_message_ids = Sequence()


@dataclass(frozen=True)
class Message:
    """One protocol message.

    Attributes:
        sender: Source node id.
        recipient: Destination node id (for broadcasts, the concrete
            neighbor the copy was delivered to).
        kind: Protocol message kind (e.g. ``"CFP"``, ``"PROPOSE"``).
        payload: Free-form body.
        size_kb: Simulated wire size, drives transmission latency.
        mid: Unique message id.
        broadcast: Whether this copy was part of a broadcast.
    """

    sender: str
    recipient: str
    kind: str
    payload: Any
    size_kb: float = 1.0
    mid: int = field(default_factory=_message_ids.next)
    broadcast: bool = False


InboxHandler = Callable[[Message, float], None]
"""Callback invoked as ``handler(message, now)`` on delivery."""


class NetworkService:
    """Message delivery over the simulated ad-hoc network.

    Args:
        engine: The simulation engine (clock + event queue).
        topology: Connectivity source.
        channel: Latency/loss model.
    """

    def __init__(self, engine: Engine, topology: Topology, channel: ChannelModel) -> None:
        self.engine = engine
        self.topology = topology
        self.channel = channel
        # node id -> a zero-argument callable returning its inbox handler
        # (None once a weakly held agent is gone); see register().
        self._inboxes: Dict[str, Callable[[], Optional[InboxHandler]]] = {}
        self.sent_count = 0
        self.delivered_count = 0
        self.lost_count = 0

    # -- registration ------------------------------------------------------------

    def register(self, node_id: str, handler: InboxHandler) -> None:
        """Attach the inbox handler for ``node_id`` (one per node).

        A bound method (an agent's inbox) is held weakly, so the service
        never keeps an agent alive: its owner must keep it reachable,
        and a message to a freed agent is lost as if no agent were
        attached. Any other callable is held strongly.
        """
        if node_id not in self.topology:
            raise UnknownNodeError(node_id)
        if isinstance(handler, MethodType):
            self._inboxes[node_id] = weakref.WeakMethod(handler)
        else:
            self._inboxes[node_id] = lambda: handler

    def unregister(self, node_id: str) -> None:
        self._inboxes.pop(node_id, None)

    # -- sending ------------------------------------------------------------

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        size_kb: float = 1.0,
    ) -> Optional[Message]:
        """Unicast a message; returns it, or ``None`` if lost in transit.

        A returned message is *scheduled* for delivery, not yet delivered.
        """
        message = Message(
            sender=sender, recipient=recipient, kind=kind,
            payload=payload, size_kb=size_kb,
        )
        return self._transmit(message)

    def send_routed(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        size_kb: float = 1.0,
    ) -> Optional[Message]:
        """Unicast over the best multi-hop route (relayed extension).

        The route is source-computed at send time (abstracting an ad-hoc
        routing protocol such as DSR) and served by the topology's
        per-epoch route cache — repeated sends between the same pair in
        an unchanged topology pay no search. Each hop independently
        suffers the link's loss and latency, so end-to-end delivery
        probability is the product of the per-hop survival rates and
        latency is the sum of per-hop latencies. Falls back to plain
        :meth:`send` for direct links. Counts one radio transmission per
        hop.
        """
        if sender == recipient:
            return self.send(sender, recipient, kind, payload, size_kb)
        route = self.topology.shortest_route(sender, recipient)
        if route is None:
            self.sent_count += 1
            self.lost_count += 1
            self.engine.emit("net", "unroutable", kind=kind, src=sender, dst=recipient)
            return None
        if len(route) <= 2:
            return self.send(sender, recipient, kind, payload, size_kb)
        total_latency = 0.0
        for u, v in zip(route, route[1:]):
            self.sent_count += 1
            hop_latency = self.channel.transmit(u, v, size_kb)
            if hop_latency is None or not self.topology.node(v).alive:
                self.lost_count += 1
                self.engine.emit(
                    "net", "lost",
                    kind=kind, src=sender, dst=recipient, hop=f"{u}->{v}",
                )
                return None
            total_latency += hop_latency
        message = Message(
            sender=sender, recipient=recipient, kind=kind,
            payload=payload, size_kb=size_kb,
        )
        self.engine.emit(
            "net", "sent_routed",
            mid=message.mid, kind=kind, src=sender, dst=recipient,
            hops=len(route) - 1,
        )
        self.engine.schedule(
            total_latency,
            lambda now, m=message: self._deliver(m, now),
            priority=Priority.DELIVERY,
        )
        return message

    def broadcast(
        self,
        sender: str,
        kind: str,
        payload: Any,
        size_kb: float = 1.0,
    ) -> Tuple[Message, ...]:
        """One-hop broadcast to every current neighbor of ``sender``.

        This is the paper's step 1: "The Negotiation Organizer broadcasts
        the description of each service, as well as user's preferences".
        Each neighbor's copy suffers loss/latency independently.

        Returns:
            The message copies scheduled for delivery (lost copies
            excluded).
        """
        delivered = []
        for neighbor in self.topology.neighbors(sender):
            message = Message(
                sender=sender, recipient=neighbor, kind=kind,
                payload=payload, size_kb=size_kb, broadcast=True,
            )
            if self._transmit(message) is not None:
                delivered.append(message)
        return tuple(delivered)

    def _transmit(self, message: Message) -> Optional[Message]:
        self.sent_count += 1
        dead_target = (
            message.recipient in self.topology
            and not self.topology.node(message.recipient).alive
        )
        latency = self.channel.transmit(
            message.sender, message.recipient, message.size_kb
        )
        if latency is None or dead_target:
            self.lost_count += 1
            self.engine.emit(
                "net", "lost",
                mid=message.mid, kind=message.kind,
                src=message.sender, dst=message.recipient,
            )
            return None
        self.engine.emit(
            "net", "sent",
            mid=message.mid, kind=message.kind,
            src=message.sender, dst=message.recipient, size_kb=message.size_kb,
        )
        self.engine.schedule(
            latency,
            lambda now, m=message: self._deliver(m, now),
            priority=Priority.DELIVERY,
        )
        return message

    def _deliver(self, message: Message, now: float) -> None:
        node = self.topology.node(message.recipient) if message.recipient in self.topology else None
        if node is None or not node.alive:
            self.lost_count += 1
            return
        inbox = self._inboxes.get(message.recipient)
        handler = None if inbox is None else inbox()
        if handler is None:
            # No agent attached: the radio heard it, nobody was listening.
            self.lost_count += 1
            return
        self.delivered_count += 1
        self.engine.emit(
            "net", "delivered",
            mid=message.mid, kind=message.kind,
            src=message.sender, dst=message.recipient,
        )
        handler(message, now)
