"""Tasks: the unit of allocation.

A task is what one coalition member executes. It bundles:

* the user's :class:`~repro.qos.request.ServiceRequest` (QoS constraints
  ``Q_i`` with their preference orders);
* the :class:`~repro.resources.mapping.DemandModel` profiling resource
  needs per quality level (the Section 5 a-priori analysis);
* the data-movement profile: input/output sizes, which drive the
  communication cost of executing the task remotely (the paper's
  "processing on the server may require additional data communication").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.qos.levels import DegradationLadder
from repro.qos.request import ServiceRequest
from repro.resources.capacity import Capacity
from repro.resources.mapping import DemandModel
from repro.sim.sequences import Sequence

_task_seq = Sequence()


@dataclass
class Task:
    """One independently allocatable unit of work.

    Attributes:
        task_id: Unique identifier.
        request: QoS constraints and user preferences for this task.
        demand_model: Quality level → resource demand profile.
        input_kb: Data shipped to the executing node before it can start.
        output_kb: Data shipped back on completion.
        duration: Nominal execution time in simulated seconds (resources
            stay reserved for this long during the operation phase).

    Ladders, demand vectors, eq. 1 rewards, degradation steps and whole
    degrade walks are memoized per task: every provider a CFP reaches
    probes the *same* quality levels of the same task, so the answers
    (pure functions of the immutable request / demand model) are shared
    across the whole negotiation instead of recomputed per node. The
    caches never change results — only who pays for them.
    ``_reward_cache``, ``_step_cache`` and ``_walk_cache`` belong to the
    formulation heuristic (:mod:`repro.core.formulation`), which owns
    their key layout: ``_walk_cache`` holds the walks of the task tuples
    this task heads, keyed by the identity of the tuple's other tasks
    and checked through weak references to them, so a walk never keeps
    another task alive. Swapping ``request`` or ``demand_model`` on a
    live task is not supported — construct a new ``Task`` instead.
    """

    task_id: str
    request: ServiceRequest
    demand_model: DemandModel
    input_kb: float = 10.0
    output_kb: float = 10.0
    duration: float = 10.0
    _ladder: Optional[DegradationLadder] = field(
        default=None, init=False, repr=False, compare=False,
    )
    _demand_cache: Dict[Tuple, Capacity] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )
    _reward_cache: Dict[Tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )
    _step_cache: Dict[Tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )
    _walk_cache: Dict[Tuple[int, ...], Tuple[Tuple[Any, ...], object]] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )

    @classmethod
    def fresh_id(cls, prefix: str = "task") -> str:
        """Generate a unique task id."""
        return f"{prefix}-{_task_seq.next()}"

    def ladder(self) -> DegradationLadder:
        """The degradation ladder of this task's request (memoized)."""
        if self._ladder is None:
            self._ladder = DegradationLadder.from_request(self.request)
        return self._ladder

    def demand_at(self, values: Mapping[str, Any]) -> Capacity:
        """Resource demand of serving this task at quality ``values``.

        Memoized per exact quality level (type-sensitive on the values,
        so ``1`` and ``1.0`` cannot alias); :class:`Capacity` vectors are
        immutable, so sharing the cached instance is safe.
        """
        key = tuple((k, v.__class__, v) for k, v in sorted(values.items()))
        cached = self._demand_cache.get(key)
        if cached is None:
            cached = self.demand_model.demand(values)
            self._demand_cache[key] = cached
        return cached

    def transfer_kb(self) -> float:
        """Total data moved when the task executes remotely."""
        return self.input_kb + self.output_kb

    def __repr__(self) -> str:
        return f"<Task {self.task_id!r} request={self.request.name!r}>"
