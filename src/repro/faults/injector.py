"""The fault injector: a :class:`~repro.faults.plan.FaultPlan` made live.

:class:`FaultInjector` executes one plan against one run, at the
existing seams only:

* **node liveness** — :meth:`FaultInjector.install` schedules crash /
  recover events on the driver's engine, driving
  :meth:`~repro.resources.node.Node.fail` and friends exactly like the
  caller-scheduled churn the driver already handles;
* **topology** — a partition adds a cut between its two groups at its
  start and removes it at its heal
  (:meth:`~repro.network.topology.Topology.block_links` /
  ``unblock_links``);
* **negotiation** — the injector doubles as the ``faults`` argument of
  :func:`~repro.core.negotiation.negotiate`: dropped/stale PROPOSE
  filtering, and the award handshake with bounded deterministic
  exponential backoff; both run every message they model through the
  Gilbert–Elliott burst-loss chains (:meth:`FaultInjector.link_survives`).

Determinism contract: all randomness comes from three named child
streams of the run's registry — ``faults:link`` (burst-loss chains),
``faults:agent`` (PROPOSE/refusal draws) and ``faults:crash`` (hazard
times and victims). Streams are created lazily, only when the plan
component that needs them exists, and named streams are independently
derived — so an empty plan consumes no draws and perturbs nothing, and
adding one fault family never shifts another's draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.faults.plan import AWARD_ATTEMPTS, EMPTY_PLAN, FaultPlan, award_backoff
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import InhomogeneousPoissonProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.proposal import Proposal
    from repro.sessions.driver import SessionDriver

class FaultInjector:
    """Executes one :class:`~repro.faults.plan.FaultPlan` for one run.

    Args:
        plan: The declarative fault plan.
        registry: The run's RNG registry; the injector draws only from
            its ``faults:*`` child streams.
        horizon: Hazard-stream window (crash events beyond it are not
            generated; partitions carry their own times).
        protected: Node ids exempt from crash victimhood
            (typically the requesters — a dead organizer is a different
            experiment).
    """

    def __init__(
        self,
        plan: FaultPlan,
        registry: RngRegistry,
        horizon: float = 0.0,
        protected: Iterable[str] = (),
    ) -> None:
        self.plan = plan
        self.registry = registry
        self.horizon = float(horizon)
        self.protected = frozenset(protected)
        self._link_rng: Optional[np.random.Generator] = None
        self._agent_rng: Optional[np.random.Generator] = None
        #: Per-directed-link Gilbert–Elliott state (True = bad).
        self._chains: Dict[Tuple[str, str], bool] = {}

    # -- streams (lazy: an absent fault family costs no stream) -----------

    def _link_stream(self) -> np.random.Generator:
        if self._link_rng is None:
            self._link_rng = self.registry.stream("faults:link")
        return self._link_rng

    def _agent_stream(self) -> np.random.Generator:
        if self._agent_rng is None:
            self._agent_rng = self.registry.stream("faults:agent")
        return self._agent_rng

    # -- link faults -------------------------------------------------------

    def link_survives(self, src: str, dst: str) -> bool:
        """Advance the (src → dst) burst-loss chain one message and
        decide survival. No-op (``True``, zero draws) without a link
        model."""
        ge = self.plan.link
        if ge is None:
            return True
        rng = self._link_stream()
        key = (src, dst)
        bad = self._chains.get(key, False)
        u = float(rng.random())
        bad = not (u < ge.p_bg) if bad else (u < ge.p_gb)
        self._chains[key] = bad
        loss = ge.loss_bad if bad else ge.loss_good
        return not (float(rng.random()) < loss)

    # -- agent faults (the ``faults`` argument of negotiate()) -------------

    def filter_proposals(
        self,
        requester: str,
        audience: Tuple[str, ...],
        by_task: Dict[str, List["Proposal"]],
    ) -> Tuple[Dict[str, List["Proposal"]], frozenset]:
        """Apply dropped/stale PROPOSE faults to one negotiation's
        collected proposals.

        Per responding remote node, in audience order: a drop draw
        (the bundle vanished), a burst-loss draw on the PROPOSE link,
        then a staleness draw. Returns the surviving proposals and the
        stale node set (evaluated normally, rejected at award time).
        The requester's own proposals never traverse radio and are
        exempt. Zero draws when the plan has no agent or link faults.
        """
        agents = self.plan.agents
        drop_p = agents.drop_propose if agents is not None else 0.0
        stale_p = agents.stale_propose if agents is not None else 0.0
        if drop_p == 0.0 and stale_p == 0.0 and self.plan.link is None:
            return by_task, frozenset()
        responding = [
            node_id
            for node_id in audience
            if node_id != requester
            and any(
                p.node_id == node_id
                for plist in by_task.values()
                for p in plist
            )
        ]
        dropped: set = set()
        stale: set = set()
        for node_id in responding:
            if drop_p > 0.0 and float(self._agent_stream().random()) < drop_p:
                dropped.add(node_id)
                continue
            if not self.link_survives(node_id, requester):
                dropped.add(node_id)
                continue
            if stale_p > 0.0 and float(self._agent_stream().random()) < stale_p:
                stale.add(node_id)
        if dropped:
            by_task = {
                task_id: [p for p in plist if p.node_id not in dropped]
                for task_id, plist in by_task.items()
            }
        return by_task, frozenset(stale)

    def award_handshake(
        self, requester: str, winner: str
    ) -> Tuple[bool, int, float]:
        """The hardened step-4 handshake: AWARD out, ACK back.

        Returns ``(acked, retries, backoff_delay)``. A refusing winner
        (``AgentFaults.refuse_award``) never acks regardless of
        retries. Otherwise each attempt transmits the award and awaits
        the ack over the burst-loss chains; a lost round waits
        :func:`~repro.faults.plan.award_backoff` (simulated time,
        returned for accounting) and retries, up to
        :data:`~repro.faults.plan.AWARD_ATTEMPTS` transmissions — then
        the caller falls through down the ranking.
        """
        agents = self.plan.agents
        if agents is not None and agents.refuse_award > 0.0:
            if float(self._agent_stream().random()) < agents.refuse_award:
                return False, 0, 0.0
        if self.plan.link is None:
            return True, 0, 0.0
        retries = 0
        delay = 0.0
        for attempt in range(AWARD_ATTEMPTS):
            if self.link_survives(requester, winner) and self.link_survives(
                winner, requester
            ):
                return True, retries, delay
            if attempt + 1 < AWARD_ATTEMPTS:
                retries += 1
                delay += award_backoff(attempt)
        return False, retries, delay

    # -- node faults -------------------------------------------------------

    def crash_schedule(
        self, node_ids: Tuple[str, ...]
    ) -> Tuple[Tuple[float, str], ...]:
        """The hazard stream realized: ``(time, victim)`` crash events
        inside the horizon, replay-exact given the seed.

        Times come from the inhomogeneous Poisson process over the
        hazard shape; each event's victim is drawn uniformly from the
        eligible (non-protected) ids. Consumes the ``faults:crash``
        stream; call at most once per run.
        """
        hazard = self.plan.crashes
        if hazard is None:
            return ()
        eligible = sorted(
            node_id for node_id in node_ids if node_id not in self.protected
        )
        if not eligible:
            return ()
        rng = self.registry.stream("faults:crash")
        times = InhomogeneousPoissonProcess(hazard.shape).arrivals(
            rng, self.horizon
        )
        return tuple(
            (t, eligible[int(rng.integers(0, len(eligible)))]) for t in times
        )

    # -- installation ------------------------------------------------------

    def install(self, driver: "SessionDriver") -> None:
        """Wire the plan into a session driver's run.

        Schedules partitions (block at start, heal at end) and hazard
        crashes (with optional recovery) on the driver's engine, and
        registers this injector as the driver's negotiation fault
        context. Partition support needs a topology that can cut links
        (:class:`~repro.network.topology.Topology`); the sharded facade
        cannot yet.
        """
        driver.faults = self
        engine = driver.engine
        topology = driver.topology
        if self.plan.partitions and not hasattr(topology, "block_links"):
            raise NotImplementedError(
                "partition faults need a Topology with link overlays; "
                f"{type(topology).__name__} has none (sharded clusters "
                "are not partition-aware yet)"
            )
        for partition in self.plan.partitions:
            groups = (partition.group_a, partition.group_b)
            links = len(partition.group_a) * len(partition.group_b)

            def _block(now: float, groups=groups, links=links) -> None:
                topology.block_links(*groups)
                engine.emit("faults", "partition", links=links)

            def _heal(now: float, groups=groups, links=links) -> None:
                topology.unblock_links(*groups)
                engine.emit("faults", "heal", links=links)

            engine.schedule_at(partition.start, _block)
            engine.schedule_at(partition.heal_at, _heal)

        hazard = self.plan.crashes
        if hazard is not None:
            for crash_at, victim in self.crash_schedule(topology.node_ids):

                def _crash(now: float, victim=victim) -> None:
                    node = topology.node(victim)
                    if not node.alive:
                        return
                    node.fail()
                    topology.rebuild()
                    engine.emit("faults", "crash", node=victim)
                    if hazard.recover_after is not None:
                        engine.schedule(
                            hazard.recover_after,
                            lambda now, victim=victim: _recover(victim),
                        )

                def _recover(victim: str) -> None:
                    node = topology.node(victim)
                    if node.alive:
                        return
                    node.recover()
                    if node.alive:  # battery-guarded: drained stays dead
                        topology.rebuild()
                        engine.emit("faults", "recover", node=victim)

                engine.schedule_at(crash_at, _crash)


def make_injector(
    plan: Optional[FaultPlan],
    registry: RngRegistry,
    horizon: float,
    protected: Iterable[str] = (),
) -> Optional[FaultInjector]:
    """The one gate for run wiring: an injector when the plan injects
    anything, else ``None`` (the bit-identical no-op path)."""
    if plan is None or plan is EMPTY_PLAN or plan.empty:
        return None
    return FaultInjector(plan, registry, horizon=horizon, protected=protected)


__all__ = [
    "FaultInjector",
    "make_injector",
]
