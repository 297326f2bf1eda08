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

Performance: step 2c picks each degradation by eq. 1 reward decrease
alone; the node enters only through the stopping test. So every
provider answering a CFP walks the same states, and so does every CFP
whose tasks share the same :class:`~repro.services.task.TaskProfile`s:
the walk of a profile tuple — its states, and each state's summed
resource demand — is built once, memoized on the tuple's first profile
(``_walk_cache``, keyed by the identity of the other profiles and
checked through weak references, because a dead profile's id may be
reused). The references are weak because both orders of a tuple can get
walks (a renegotiation orders its tasks by id), and strong ones would
tie the two profiles into a reference cycle. A walk is extended only as
far as some caller has asked, so a direct :func:`formulate` caller
keeps its early exit and demand is priced only for states some stopping
test reaches. The walk holds no profile — callers pass the tasks
whenever it must extend — so it makes no reference cycle through the
profile it is cached on. Steps and eq. 1 rewards come from the
per-profile memos (``_step_cache`` / ``_reward_cache``, keyed by the
assignment's ladder indices). Outcomes stay bit-identical to the
per-node loop the walk replaced (``tests/test_formulation_golden.py``).
A state's summed demand is a :class:`~repro.resources.capacity.Capacity`
sum, and the walk keeps its row. A node's :func:`first_fit` compares
those rows with its headroom's limits: the rule of
:meth:`~repro.resources.provider.QoSProvider.can_serve`, read once per
node. It is the negotiation hot path (the
``core.formulate_node_proposals`` span of
``benchmarks/perf/run.py --trace 1``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import le
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InfeasibleTaskError
from repro.core.reward import local_reward
from repro.qos.levels import QualityAssignment
from repro.resources.capacity import Capacity, Row
from repro.resources.kinds import COLUMN, ResourceKind
from repro.services.task import Task, TaskProfile

SchedulabilityTest = Callable[[Mapping[str, QualityAssignment]], bool]
"""Predicate: can this node serve all tasks at these levels simultaneously?"""

State = Tuple[QualityAssignment, ...]
"""One point of a walk: an assignment per task, in task-tuple order."""


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
    by degrading the *least important* offending attribute. The result
    is the first state of the walk that ``is_schedulable`` accepts, or
    the last state when none is.

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
    ids = [task.task_id for task in tasks]
    if len(set(ids)) != len(ids):
        raise InfeasibleTaskError("duplicate task ids in formulation")
    walk = _walk_of(tasks)
    steps = 0
    current = dict(zip(ids, walk.states[0]))
    feasible = is_schedulable(current)
    while not feasible and walk.reach(steps + 1, tasks):
        steps += 1
        current = dict(zip(ids, walk.states[steps]))
        feasible = is_schedulable(current)
    return FormulationResult(
        assignments=current,
        degradations=walk.repairs + steps,
        rewards={
            task.task_id: _reward(task.profile, current[task.task_id])
            for task in tasks
        },
        feasible=feasible,
    )


def first_fit(
    tasks: Sequence[Task], limits: Row, battery: float
) -> Optional[State]:
    """The first state of the walk whose summed demand fits a node.

    A state fits when its summed demand is at most ``limits`` (a
    headroom's :meth:`~repro.resources.capacity.Capacity.limits`) on
    every kind and its ENERGY is at most ``battery``: the test of
    :meth:`~repro.resources.provider.QoSProvider.can_serve`. Rows are
    compared, never rebuilt: each is priced once per walk, the first
    time any node's scan reaches it.

    Returns:
        The fitting state, or ``None`` when none does.

    Raises:
        InfeasibleTaskError: If some task has no dependency-valid level
            (as :func:`formulate`).
    """
    walk = _walk_of(tasks)
    rows = walk.rows
    energy = COLUMN[ResourceKind.ENERGY]
    i = 0
    while i < len(rows) or walk.price_next(tasks):
        row = rows[i]
        if row[energy] <= battery and all(map(le, row, limits)):
            return walk.states[i]
        i += 1
    return None


class _Walk:
    """The Section 5 walk of one profile tuple, made as far as asked.

    ``states[i]`` is the tuple's state after the dependency repair
    (``repairs`` steps) and ``i`` degradation steps; ``exhausted`` is
    set once the last state has no step left. ``rows`` holds the
    :class:`Capacity` row of the summed demand of a prefix of the
    states. The walk keeps no reference to its profiles (see the module
    docs): every method that may extend it takes tasks over them as
    ``tasks``, and reads only their profiles.
    """

    __slots__ = ("states", "rows", "repairs", "exhausted")

    def __init__(self, tasks: Sequence[Task]) -> None:
        # Step 1: everyone at the user's preferred values, repaired to
        # satisfy ``Deps``.
        top: List[QualityAssignment] = []
        self.repairs = 0
        for task in tasks:
            repaired, steps = _repair_dependencies(task.ladder().top())
            if repaired is None:
                raise InfeasibleTaskError(
                    f"task {task.task_id!r}: no dependency-valid level exists "
                    f"on the acceptable ladders"
                )
            top.append(repaired)
            self.repairs += steps
        self.states: List[State] = [tuple(top)]
        self.rows: List[Row] = []
        self.exhausted = False

    def reach(self, i: int, tasks: Sequence[Task]) -> bool:
        """Extend the walk up to state ``i``; whether that state exists.

        Each extension is one iteration of step 2: the cheapest step of
        every task, ties broken on (decrease, task index, attribute
        index).
        """
        states = self.states
        while len(states) <= i and not self.exhausted:
            last = states[-1]
            chosen: Optional[Tuple[Tuple[float, int, int], QualityAssignment]] = None
            for t_index, (task, assignment) in enumerate(zip(tasks, last)):
                profile = task.profile
                skey = assignment.index_key()
                entry = profile._step_cache.get(skey, _MISSING)
                if entry is _MISSING:
                    entry = _best_task_step(profile, assignment)
                    profile._step_cache[skey] = entry
                if entry is None:
                    continue
                decrease, a_index, candidate = entry
                key = (decrease, t_index, a_index)
                if chosen is None or key < chosen[0]:
                    chosen = (key, candidate)
            if chosen is None:
                self.exhausted = True
            else:
                (_, t_index, _), candidate = chosen
                states.append(last[:t_index] + (candidate,) + last[t_index + 1:])
        return i < len(states)

    def price_next(self, tasks: Sequence[Task]) -> bool:
        """Price the first state without a row; whether one existed.

        The row is that of the :class:`Capacity` sum of the tasks'
        demands at the state, in task order.
        """
        n = len(self.rows)
        if not self.reach(n, tasks):
            return False
        total = Capacity.zero()
        for task, assignment in zip(tasks, self.states[n]):
            total = total + task.profile.demand_at(assignment.values())
        self.rows.append(total.row)
        return True


def _walk_of(tasks: Sequence[Task]) -> _Walk:
    """The walk of the profiles of ``tasks``, memoized on the first."""
    if not tasks:
        return _Walk(tasks)
    first, *others = [task.profile for task in tasks]
    key = tuple(map(id, others))
    entry = first._walk_cache.get(key)
    if entry is not None:
        refs, walk = entry
        if all(ref() is profile for ref, profile in zip(refs, others)):
            return walk
    walk = _Walk(tasks)
    first._walk_cache[key] = (tuple(map(weakref.ref, others)), walk)
    return walk


def _reward(profile: TaskProfile, assignment: QualityAssignment) -> float:
    """eq. 1 reward of ``assignment``, memoized on the profile."""
    key = assignment.index_key()
    value = profile._reward_cache.get(key)
    if value is None:
        value = local_reward(assignment)
        profile._reward_cache[key] = value
    return value


_MISSING = object()
"""Step-cache sentinel: ``None`` is a valid cached value ("cannot degrade")."""


def _best_task_step(
    profile: TaskProfile, assignment: QualityAssignment
) -> Optional[Tuple[float, int, QualityAssignment]]:
    """Steps 2a–2b for one task: its minimum-reward-decrease degradation.

    Returns ``(decrease, attribute index, candidate)`` — first-listed
    attribute wins exact ties, matching the pre-memoization scan order —
    or ``None`` when the task cannot degrade at all (already at ``Q_kn``,
    or every remaining step violates dependencies).
    """
    before = _reward(profile, assignment)
    best: Optional[Tuple[float, int, QualityAssignment]] = None
    for a_index, attr in enumerate(assignment.ladder_set.request.attribute_names):
        if not assignment.can_degrade(attr):
            continue
        candidate = assignment.degrade(attr)
        if not candidate.respects_dependencies():
            continue
        decrease = before - _reward(profile, candidate)
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
