"""Proposal formulation: the Section 5 local QoS optimization heuristic.

The paper's algorithm (inspired by Abdelzaher et al. [1]):

1. Start by selecting user's preferred values for all QoS dimensions.
2. While the set of tasks is not schedulable:

   a. For each task ``T_i`` receiving service at level ``Q_kj < Q_kn``
      (i.e. with room left to degrade),
   b. determine the decrease in local reward resulting from degrading
      attribute ``j`` to ``j+1``,
   c. find the task ``T_m`` whose decrease is minimum and degrade it.

Our implementation considers every ``(task, attribute)`` degradation step,
skips steps whose resulting assignment would violate the spec's ``Deps``,
and breaks reward ties deterministically by (task order, attribute
importance order) so runs are reproducible. Termination is guaranteed:
each iteration strictly increases the total ladder index, which is
bounded by the sum of ladder depths.

Performance: each loop iteration degrades exactly one task, so the
candidate steps (and eq. 1 rewards) of every *other* task are unchanged
from the previous iteration. Moreover a task's cheapest step depends
only on its assignment — not on the node whose headroom is being
probed — so the memo lives on the :class:`~repro.services.task.Task`
itself (``_reward_cache`` / ``_step_cache``, keyed by the assignment's
ladder indices) and is shared by every provider answering the same
CFP: with an audience of 64 nodes, each quality level's reward and best
degradation are computed once, not 64 times. Identical arithmetic is
reused, never recomputed differently, so outcomes stay bit-identical
(asserted in ``tests/test_batch_evaluation.py``). The degrade loop is
the negotiation hot path: every provider runs it for every CFP (see the
``core.formulate`` span of ``benchmarks/perf/run.py --trace 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import InfeasibleTaskError
from repro.core.reward import local_reward
from repro.qos.levels import QualityAssignment
from repro.services.task import Task

SchedulabilityTest = Callable[[Mapping[str, QualityAssignment]], bool]
"""Predicate: can this node serve all tasks at these levels simultaneously?"""


@dataclass
class FormulationResult:
    """Outcome of running the heuristic over a task set.

    Attributes:
        assignments: Final per-task quality assignments (task_id keyed).
        degradations: Number of single-attribute degradation steps taken.
        rewards: Final per-task local reward (eq. 1).
        feasible: Whether a schedulable configuration was found. When
            ``False`` the assignments hold the last (fully degraded)
            state examined.
    """

    assignments: Dict[str, QualityAssignment]
    degradations: int
    rewards: Dict[str, float]
    feasible: bool

    def values(self, task_id: str) -> Dict[str, object]:
        """Concrete attribute→value mapping of one task's assignment."""
        return self.assignments[task_id].values()


def formulate(
    tasks: Sequence[Task], is_schedulable: SchedulabilityTest
) -> FormulationResult:
    """Run the Section 5 heuristic over a set of tasks.

    Degradation steps that would violate the spec's ``Deps`` are
    skipped, and preferred assignments violating them are first repaired
    by degrading the *least important* offending attribute.

    Args:
        tasks: The tasks to serve (the paper's ``T``). Task ids must be
            unique.
        is_schedulable: The Resource-Manager-backed predicate answering
            "can all these levels be served at once?".

    Returns:
        A :class:`FormulationResult`; check ``feasible``.

    Raises:
        InfeasibleTaskError: If even a fully degraded, dependency-valid
            configuration cannot be found (e.g. dependencies are
            unsatisfiable on the acceptable ladders).
    """
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise InfeasibleTaskError("duplicate task ids in formulation")

    # Step 1: everyone at the user's preferred values, repaired to
    # satisfy ``Deps``.
    current: Dict[str, QualityAssignment] = {}
    degradations = 0
    for task in tasks:
        repaired, steps = _repair_dependencies(task.ladder().top())
        if repaired is None:
            raise InfeasibleTaskError(
                f"task {task.task_id!r}: no dependency-valid level exists "
                f"on the acceptable ladders"
            )
        current[task.task_id] = repaired
        degradations += steps

    # eq. 1 rewards and best steps are memoized on the Task (shared
    # across every provider probing this CFP, see the module docs),
    # keyed by the assignment's ladder indices.
    def reward_of(task: Task, assignment: QualityAssignment) -> float:
        key = assignment.index_key()
        value = task._reward_cache.get(key)
        if value is None:
            value = local_reward(assignment)
            task._reward_cache[key] = value
        return value

    # Per-task best candidate step for the *current* assignment; entries
    # are dropped (and lazily re-fetched) only for the degraded task.
    options: Dict[str, Optional[Tuple[float, int, QualityAssignment]]] = {}

    while not is_schedulable(current):
        chosen: Optional[Tuple[Tuple[float, int, int], str, QualityAssignment]] = None
        for t_index, task in enumerate(tasks):
            tid = task.task_id
            if tid not in options:
                skey = current[tid].index_key()
                entry = task._step_cache.get(skey, _MISSING)
                if entry is _MISSING:
                    entry = _best_task_step(task, current[tid], reward_of)
                    task._step_cache[skey] = entry
                options[tid] = entry
            entry = options[tid]
            if entry is None:
                continue
            decrease, a_index, candidate = entry
            key = (decrease, t_index, a_index)
            if chosen is None or key < chosen[0]:
                chosen = (key, tid, candidate)
        if chosen is None:
            return FormulationResult(
                assignments=current,
                degradations=degradations,
                rewards={
                    t.task_id: reward_of(t, current[t.task_id]) for t in tasks
                },
                feasible=False,
            )
        _, task_id, new_assignment = chosen
        current[task_id] = new_assignment
        options.pop(task_id)
        degradations += 1

    return FormulationResult(
        assignments=current,
        degradations=degradations,
        rewards={t.task_id: reward_of(t, current[t.task_id]) for t in tasks},
        feasible=True,
    )


_MISSING = object()
"""Step-cache sentinel: ``None`` is a valid cached value ("cannot degrade")."""


def _best_task_step(
    task: Task,
    assignment: QualityAssignment,
    reward_of: Callable[[Task, QualityAssignment], float],
) -> Optional[Tuple[float, int, QualityAssignment]]:
    """Steps 2a–2b for one task: its minimum-reward-decrease degradation.

    Returns ``(decrease, attribute index, candidate)`` — first-listed
    attribute wins exact ties, matching the pre-memoization scan order —
    or ``None`` when the task cannot degrade at all (already at ``Q_kn``,
    or every remaining step violates dependencies).
    """
    before = reward_of(task, assignment)
    best: Optional[Tuple[float, int, QualityAssignment]] = None
    for a_index, attr in enumerate(assignment.ladder_set.request.attribute_names):
        if not assignment.can_degrade(attr):
            continue
        candidate = assignment.degrade(attr)
        if not candidate.respects_dependencies():
            continue
        decrease = before - reward_of(task, candidate)
        if best is None or (decrease, a_index) < best[:2]:
            best = (decrease, a_index, candidate)
    return best


def _repair_dependencies(
    assignment: QualityAssignment,
) -> Tuple[Optional[QualityAssignment], int]:
    """Degrade (least-important attributes first) until ``Deps`` hold.

    The preferred assignment may itself violate a dependency (e.g. heavy
    codec at 30 fps). Walk degradations in reverse importance order —
    sacrificing the least important attribute first — until valid.

    Returns:
        (valid assignment or None, number of degradation steps taken).
    """
    steps = 0
    current = assignment
    # Bounded by the total ladder volume; each iteration degrades once.
    while not current.respects_dependencies():
        order = list(reversed(current.ladder_set.request.attribute_names))
        progressed = False
        for attr in order:
            if current.can_degrade(attr):
                current = current.degrade(attr)
                steps += 1
                progressed = True
                break
        if not progressed:
            return None, steps
    return current, steps
