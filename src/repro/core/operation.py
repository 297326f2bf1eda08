"""The operation phase: monitoring, failures, reconfiguration.

Paper Section 4: *"Operation: Control and monitoring of partners'
execution, resolution of conflicts and, possibly, the coalition
reconfiguration due to partial failures."* The paper focuses on formation;
this module implements the natural operation-phase semantics its life
cycle implies:

* every awarded task runs for its nominal duration on its winner, starting
  as soon as all its precedence predecessors (if the service declares any;
  see :class:`~repro.services.service.Service`) have completed — the
  paper's independent tasks all start immediately;
* if the winner fails mid-execution, the organizer *reconfigures*: it
  re-negotiates the orphaned tasks among the currently reachable nodes
  (re-running the Section 4.2 protocol for the remainder), releasing the
  dead node's awards;
* tasks whose reconfiguration finds no taker are lost;
* when all tasks finish, the coalition dissolves and releases resources.

Failure injection is an explicit schedule, so experiments (E8) control it
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.coalition import Coalition, TaskAward
from repro.core.negotiation import negotiate, release_award, release_coalition
from repro.core.selection import SelectionPolicy
from repro.network.topology import Topology
from repro.resources.provider import QoSProvider
from repro.services.service import Service
from repro.sim.engine import Engine


@dataclass
class TaskOutcome:
    """Final status of one task after the operation phase.

    ``status`` is one of ``"completed"``, ``"lost"``.
    """

    task_id: str
    status: str
    node_id: Optional[str]
    finished_at: Optional[float]
    reallocations: int = 0


@dataclass
class OperationReport:
    """Result of running a coalition's operation phase to completion.

    Attributes:
        outcomes: Per-task final outcomes, keyed by task id.
        reconfigurations: Number of reconfiguration rounds triggered.
        failures_injected: Node failures that actually hit the coalition.
        dissolved_at: Time the coalition dissolved.
        dropped_awards: ``(node_id, task_id)`` pairs a node failed on
            mid-execution — recorded even when reconfiguration rescued
            the task, so reputation trackers can debit the crash itself.
    """

    outcomes: Dict[str, TaskOutcome]
    reconfigurations: int
    failures_injected: int
    dissolved_at: float
    dropped_awards: Tuple[Tuple[str, str], ...] = ()
    started_at: float = 0.0

    @property
    def makespan(self) -> float:
        """Start-to-last-completion span (0.0 when nothing completed).

        With precedence edges this is bounded below by the service's
        :meth:`~repro.services.service.Service.critical_path_length`.
        """
        finishes = [
            o.finished_at for o in self.outcomes.values()
            if o.status == "completed" and o.finished_at is not None
        ]
        if not finishes:
            return 0.0
        return max(finishes) - self.started_at

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "completed")

    @property
    def lost(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "lost")

    @property
    def recovery_rate(self) -> float:
        """Fraction of failure-affected tasks that still completed."""
        affected = [o for o in self.outcomes.values() if o.reallocations > 0 or o.status == "lost"]
        if not affected:
            return 1.0
        return sum(1 for o in affected if o.status == "completed") / len(affected)


def run_operation_phase(
    coalition: Coalition,
    topology: Topology,
    providers: Mapping[str, QoSProvider],
    engine: Engine,
    failures: Sequence[Tuple[float, str]] = (),
    selection: Optional[SelectionPolicy] = None,
    allow_reconfiguration: bool = True,
) -> OperationReport:
    """Execute a formed coalition to dissolution on the engine.

    Args:
        coalition: A complete coalition in phase FORMING.
        topology: Live topology (rebuilt after each failure).
        providers: node id → provider (for reconfiguration awards).
        engine: The simulation engine; this call runs it to quiescence.
        failures: ``(time_offset, node_id)`` crash injections, offsets
            relative to operation start.
        selection: Selection policy for reconfiguration negotiations.
        allow_reconfiguration: When ``False`` orphaned tasks are simply
            lost (the no-recovery baseline of experiment E8).

    Returns:
        An :class:`OperationReport`.
    """
    service = coalition.service
    start = engine.now
    coalition.start_operation(start)

    outcomes: Dict[str, TaskOutcome] = {}
    state = {"reconfigs": 0, "hits": 0}
    dropped: List[Tuple[str, str]] = []
    running: Dict[str, TaskAward] = dict(coalition.awards)
    remaining: Dict[str, float] = {
        t.task_id: t.duration for t in service.tasks if t.task_id in running
    }
    # Tasks never awarded during formation are lost from the start.
    for task in service.tasks:
        if task.task_id not in running:
            outcomes[task.task_id] = TaskOutcome(
                task_id=task.task_id, status="lost", node_id=None, finished_at=None
            )

    completed: set = set()
    started: set = set()

    def _preds_done(task_id: str) -> bool:
        return all(p in completed for p in service.predecessors(task_id))

    def try_start(task_id: str) -> None:
        """Start a task iff it holds an award, hasn't started, and every
        precedence predecessor has completed (the paper's independent
        tasks have no predecessors and start immediately)."""
        if task_id in started or task_id not in running:
            return
        if not _preds_done(task_id):
            return
        started.add(task_id)
        generation = outcomes.get(task_id)
        gen_count = generation.reallocations if generation else 0

        def _cb(now: float, expected_gen: int = gen_count) -> None:
            award = running.get(task_id)
            if award is None:
                return  # lost/superseded while executing
            prior = outcomes.get(task_id)
            current_gen = prior.reallocations if prior else 0
            if current_gen != expected_gen:
                return  # a reallocation restarted this task
            running.pop(task_id, None)
            if award.reservation is not None and award.reservation.live:
                providers[award.node_id].release(award.reservation, now)
            completed.add(task_id)
            outcomes[task_id] = TaskOutcome(
                task_id=task_id,
                status="completed",
                node_id=award.node_id,
                finished_at=now,
                reallocations=current_gen,
            )
            for succ in service.successors(task_id):
                try_start(succ)

        engine.schedule(remaining[task_id], _cb)

    def fail_node(node_id: str) -> None:
        def _cb(now: float) -> None:
            node = topology.node(node_id)
            if not node.alive:
                return
            # fail() flips liveness (bumping the topology's cache epoch
            # via the liveness watcher); the rebuild then drops the dead
            # node's radio links from the adjacency itself.
            node.fail()
            topology.rebuild()
            orphans = [tid for tid, a in running.items() if a.node_id == node_id]
            if not orphans:
                return
            state["hits"] += 1
            dropped.extend((node_id, tid) for tid in orphans)
            engine.emit("operation", "failure", node=node_id, orphans=len(orphans))
            if allow_reconfiguration:
                _reconfigure(orphans, now)
            else:
                _abandon(orphans, now)

        engine.schedule(0.0, _cb)

    def _abandon(orphans: List[str], now: float) -> None:
        for tid in orphans:
            award = running.pop(tid, None)
            if award is not None:
                # Idempotent: a lease sweep may have reclaimed it already.
                release_award(providers, award, now, missing_ok=True)
            prior = outcomes.get(tid)
            outcomes[tid] = TaskOutcome(
                task_id=tid, status="lost", node_id=None, finished_at=None,
                reallocations=(prior.reallocations if prior else 0),
            )

    def _reconfigure(orphans: List[str], now: float) -> None:
        state["reconfigs"] += 1
        coalition.reconfigurations += 1
        orphan_tasks = tuple(service.task(tid) for tid in orphans)
        for tid in orphans:
            award = running.pop(tid, None)
            if award is not None:
                # The node is dead; its manager state is moot, but keep
                # the accounting clean for post-mortem inspection.
                release_award(providers, award, now, missing_ok=True)
            prior = outcomes.get(tid)
            reallocs = (prior.reallocations if prior else 0)
            outcomes[tid] = TaskOutcome(
                task_id=tid, status="lost", node_id=None, finished_at=None,
                reallocations=reallocs,
            )
        sub_service = Service(
            name=f"{service.name}:reconfig{state['reconfigs']}",
            tasks=orphan_tasks,
            requester=service.requester,
        )
        outcome = negotiate(
            sub_service, topology, providers, selection=selection, now=now
        )
        for tid, award in outcome.coalition.awards.items():
            original_tid = tid
            running[original_tid] = award
            coalition.add_award(award)
            prior = outcomes.pop(original_tid)
            outcomes[original_tid] = TaskOutcome(
                task_id=original_tid, status="running", node_id=award.node_id,
                finished_at=None, reallocations=prior.reallocations + 1,
            )
            started.discard(original_tid)  # restart from scratch
            try_start(original_tid)

    # Start every ready task (all of them, under the paper's
    # independent-task default) …
    for tid in list(running):
        try_start(tid)
    # … and the failure injections, relative to operation start.
    for offset, node_id in failures:
        engine.schedule(max(0.0, offset), lambda now, n=node_id: fail_node(n))

    engine.run()

    # Tasks still holding awards at quiescence never became runnable —
    # their precedence predecessors were lost. Release and mark lost.
    for tid in list(running):
        award = running.pop(tid)
        # Idempotent: double release at quiescence is benign here.
        release_award(providers, award, engine.now, missing_ok=True)
        prior = outcomes.get(tid)
        outcomes[tid] = TaskOutcome(
            task_id=tid, status="lost", node_id=None, finished_at=None,
            reallocations=(prior.reallocations if prior else 0),
        )
    # Normalize any stale 'running' records (reconfigured then blocked).
    for tid, outcome in list(outcomes.items()):
        if outcome.status == "running":
            outcomes[tid] = TaskOutcome(
                task_id=tid, status="lost", node_id=outcome.node_id,
                finished_at=None, reallocations=outcome.reallocations,
            )

    coalition.dissolve(engine.now)
    release_coalition(coalition, providers, engine.now)
    return OperationReport(
        outcomes=outcomes,
        reconfigurations=state["reconfigs"],
        failures_injected=state["hits"],
        dissolved_at=engine.now,
        dropped_awards=tuple(dropped),
        started_at=start,
    )
