"""Agent plumbing: inbox registration and kind-based dispatch."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.network.messaging import Message, NetworkService
from repro.resources.node import Node
from repro.sim.engine import Engine

Handler = Callable[[Message, float], None]


class Agent:
    """Base class binding a node to the network with message dispatch.

    A subclass names the methods that handle its own message kinds in
    :attr:`HANDLERS`; :meth:`on` registers a handler for a kind on one
    instance, ahead of the class's. Unknown kinds are counted but
    otherwise ignored (an agent is not obliged to speak every protocol).

    The network holds an agent's inbox weakly, and no agent holds a
    bound method of its own, so whoever owns the agent (an
    :class:`~repro.agents.system.AgentSystem`) must keep it reachable
    for as long as it should receive messages, and dropping the owner
    frees its agents by reference counting.
    """

    #: Message kind -> name of the method that handles it.
    HANDLERS: Dict[str, str] = {}

    def __init__(self, engine: Engine, node: Node, network: NetworkService) -> None:
        self.engine = engine
        self.node = node
        self.network = network
        self._handlers: Dict[str, Handler] = {}
        self.unhandled_count = 0
        network.register(node.node_id, self._receive)

    @property
    def node_id(self) -> str:
        return self.node.node_id

    def on(self, kind: str, handler: Handler) -> None:
        """Register the handler for message ``kind`` on this agent (one
        per kind; it replaces the class's own)."""
        self._handlers[kind] = handler

    def handler(self, kind: str) -> Optional[Handler]:
        """What handles message ``kind`` here: the handler registered with
        :meth:`on`, else the method :attr:`HANDLERS` names, else ``None``."""
        handler = self._handlers.get(kind)
        if handler is None:
            name = self.HANDLERS.get(kind)
            if name is not None:
                handler = getattr(self, name)
        return handler

    def _receive(self, message: Message, now: float) -> None:
        if not self.node.alive:
            return
        handler = self.handler(message.kind)
        if handler is None:
            self.unhandled_count += 1
            return
        handler(message, now)

    # -- convenience senders ------------------------------------------------

    def send(self, recipient: str, kind: str, payload: Any, size_kb: float = 1.0) -> None:
        """Unicast from this agent's node."""
        if not self.node.alive:
            return
        self.network.send(self.node_id, recipient, kind, payload, size_kb)

    def broadcast(self, kind: str, payload: Any, size_kb: float = 1.0) -> int:
        """One-hop broadcast; returns the number of copies not lost."""
        if not self.node.alive:
            return 0
        return len(self.network.broadcast(self.node_id, kind, payload, size_kb))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} node={self.node_id!r}>"
