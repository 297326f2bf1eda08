"""Tasks: the unit of allocation.

A task is what one coalition member executes. It bundles:

* the user's :class:`~repro.qos.request.ServiceRequest` (QoS constraints
  ``Q_i`` with their preference orders);
* the :class:`~repro.resources.mapping.DemandModel` profiling resource
  needs per quality level (the Section 5 a-priori analysis);
* the data-movement profile: input/output sizes, which drive the
  communication cost of executing the task remotely (the paper's
  "processing on the server may require additional data communication").

The first two belong to the service, not to one request for it, so they
live in a :class:`TaskProfile` that any number of tasks can share; a
:class:`Task` is the per-request shell around one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.qos.levels import DegradationLadder
from repro.qos.request import ServiceRequest
from repro.resources.capacity import Capacity
from repro.resources.mapping import DemandModel
from repro.sim.sequences import Sequence

_task_seq = Sequence()


@dataclass(frozen=True)
class TaskProfile:
    """The immutable, shareable part of a task: what it asks for and
    what each quality level costs.

    Attributes:
        request: QoS constraints and user preferences.
        demand_model: Quality level → resource demand profile.

    Ladders, demand vectors, eq. 1 rewards, degradation steps and whole
    degrade walks are memoized here: every provider a CFP reaches probes
    the *same* quality levels, and so does every later request of a
    task with the same profile, so the answers (pure functions of the
    request and demand model) are computed once per profile instead of
    once per node or per session. The memos never change results — only
    who pays for them — and they die with the profile, by reference
    counting. ``_reward_cache``, ``_step_cache`` and ``_walk_cache``
    belong to the formulation heuristic (:mod:`repro.core.formulation`),
    which owns their key layout: ``_walk_cache`` holds the walks of the
    profile tuples this profile heads, keyed by the identity of the
    tuple's other profiles and checked through weak references to them,
    so a walk never keeps another profile alive.
    """

    request: ServiceRequest
    demand_model: DemandModel
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

    def ladder(self) -> DegradationLadder:
        """The degradation ladder of the request (memoized)."""
        if self._ladder is None:
            # A cache fill, not a mutation: the ladder is a pure
            # function of the frozen request.
            object.__setattr__(
                self, "_ladder", DegradationLadder.from_request(self.request)
            )
        return self._ladder

    def demand_at(self, values: Mapping[str, Any]) -> Capacity:
        """Resource demand of serving at quality ``values``.

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


@dataclass(init=False)
class Task:
    """One independently allocatable unit of work.

    ``Task(task_id, request, demand_model, input_kb, output_kb,
    duration)`` builds a task over a fresh :class:`TaskProfile`;
    :meth:`reissue` makes another task over the same one.

    Attributes:
        task_id: Unique identifier.
        profile: The shared request and demand model, with their memos.
        input_kb: Data shipped to the executing node before it can start.
        output_kb: Data shipped back on completion.
        duration: Nominal execution time in simulated seconds (resources
            stay reserved for this long during the operation phase).
    """

    task_id: str
    profile: TaskProfile
    input_kb: float
    output_kb: float
    duration: float

    def __init__(
        self,
        task_id: str,
        request: ServiceRequest,
        demand_model: DemandModel,
        input_kb: float = 10.0,
        output_kb: float = 10.0,
        duration: float = 10.0,
    ) -> None:
        self.task_id = task_id
        self.profile = TaskProfile(request, demand_model)
        self.input_kb = input_kb
        self.output_kb = output_kb
        self.duration = duration

    @classmethod
    def fresh_id(cls, prefix: str = "task") -> str:
        """Generate a unique task id."""
        return f"{prefix}-{_task_seq.next()}"

    def reissue(self, task_id: str) -> "Task":
        """This task under another id: the same profile, data sizes and
        duration."""
        task = copy.copy(self)
        task.task_id = task_id
        return task

    @property
    def request(self) -> ServiceRequest:
        """QoS constraints and user preferences (the profile's)."""
        return self.profile.request

    @property
    def demand_model(self) -> DemandModel:
        """Quality level → resource demand profile (the profile's)."""
        return self.profile.demand_model

    def ladder(self) -> DegradationLadder:
        """The degradation ladder of this task's request (memoized on
        the profile)."""
        return self.profile.ladder()

    def demand_at(self, values: Mapping[str, Any]) -> Capacity:
        """Resource demand of serving this task at quality ``values``
        (memoized on the profile; see :meth:`TaskProfile.demand_at`)."""
        return self.profile.demand_at(values)

    def transfer_kb(self) -> float:
        """Total data moved when the task executes remotely."""
        return self.input_kb + self.output_kb

    def __repr__(self) -> str:
        return f"<Task {self.task_id!r} request={self.request.name!r}>"
