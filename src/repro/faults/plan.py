"""Declarative fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is a frozen value describing every fault a run
injects — link faults (Gilbert–Elliott burst loss, partitions), node
faults (crash/recover hazard) and agent faults (dropped/stale PROPOSE,
refuse-after-award). The hardened award handshake that survives them
spends a fixed budget: :data:`AWARD_ATTEMPTS` transmissions, with
:func:`award_backoff` between them. Like
:class:`~repro.sessions.policy.SessionPolicy`, a plan never holds RNG
state: every random draw the plan implies is made by the
:class:`~repro.faults.injector.FaultInjector` from named child streams
of the run's :class:`~repro.sim.rng.RngRegistry`, so a faulted run
stays a pure function of its seed and :data:`EMPTY_PLAN` is
bit-identical to running without the subsystem at all.

Closed forms
------------
The Gilbert–Elliott chain's stationary distribution anchors the
property tests: with transition probabilities ``p_gb`` (good → bad)
and ``p_bg`` (bad → good), the stationary probability of the bad state
is ``p_gb / (p_gb + p_bg)`` and the expected per-message loss rate is
the loss probabilities' stationary mixture
(:meth:`GilbertElliott.stationary_loss`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.workloads.rates import RateShape


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss model for a link (Gilbert–Elliott).

    Each transmitted message first advances the link's two-state
    Markov chain (good ↔ bad), then is lost with the current state's
    loss probability. Bursts arise naturally: a small ``p_bg`` keeps
    the chain in the bad state for runs of messages.

    Attributes:
        p_gb: Per-message probability of moving good → bad.
        p_bg: Per-message probability of moving bad → good.
        loss_good: Loss probability while in the good state.
        loss_bad: Loss probability while in the bad state.
    """

    p_gb: float = 0.01
    p_bg: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 0.8

    def __post_init__(self) -> None:
        _check_probability("p_gb", self.p_gb)
        _check_probability("p_bg", self.p_bg)
        _check_probability("loss_good", self.loss_good)
        _check_probability("loss_bad", self.loss_bad)

    @property
    def stationary_bad(self) -> float:
        """Stationary probability of the bad state (0 when the chain
        never leaves good)."""
        total = self.p_gb + self.p_bg
        return self.p_gb / total if total > 0 else 0.0

    @property
    def stationary_loss(self) -> float:
        """Expected per-message loss rate under the stationary
        distribution — the closed form the property tests pin."""
        pi_bad = self.stationary_bad
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad


@dataclass(frozen=True)
class Partition:
    """A scheduled bidirectional partition between two node sets.

    From ``start`` every direct link between a node of ``group_a`` and
    a node of ``group_b`` is blocked (both directions); the partition
    heals at ``start + duration`` and the blocked links come back
    exactly as the radio model dictates — routes after the heal are
    bit-identical to a never-partitioned topology (the property test
    in ``tests/test_faults.py``). Deterministic — no RNG.
    """

    start: float
    duration: float
    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError(
                f"partition needs start >= 0 and duration > 0, got {self}"
            )
        object.__setattr__(self, "group_a", tuple(self.group_a))
        object.__setattr__(self, "group_b", tuple(self.group_b))
        if not self.group_a or not self.group_b:
            raise ValueError("partition groups must both be non-empty")
        overlap = set(self.group_a) & set(self.group_b)
        if overlap:
            raise ValueError(
                f"partition groups overlap: {sorted(overlap)}"
            )

    @property
    def heal_at(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class CrashHazard:
    """Crash (and optional recover) events from an inhomogeneous
    Poisson hazard stream.

    Event times come from an
    :class:`~repro.workloads.arrivals.InhomogeneousPoissonProcess`
    over ``shape`` (a :class:`~repro.workloads.rates.RateShape`, so the
    hazard can ramp, cycle or spike); each event crashes one victim
    drawn uniformly from the eligible (non-protected) nodes. With
    ``recover_after`` set, the victim reboots that many seconds later
    (battery-guarded: a node drained to death stays dead).

    All draws come from the injector's ``faults:crash`` stream — the
    schedule is replay-exact given the seed.
    """

    shape: RateShape
    recover_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.recover_after is not None and self.recover_after <= 0:
            raise ValueError(
                f"recover_after must be positive, got {self.recover_after}"
            )


@dataclass(frozen=True)
class AgentFaults:
    """Protocol-level misbehaviour during negotiation.

    Attributes:
        drop_propose: Probability a responding node's PROPOSE bundle is
            lost before the organizer sees it (the node formulated, the
            message vanished).
        stale_propose: Probability a node's PROPOSE is stale — the
            organizer evaluates it, but the award-time admission
            re-check rejects it (the state it was formulated against no
            longer holds), forcing fall-through down the ranking.
        refuse_award: Probability an awarded node refuses after the
            award — it never acknowledges, no matter how many retries,
            so the organizer releases the reservation and falls
            through.
    """

    drop_propose: float = 0.0
    stale_propose: float = 0.0
    refuse_award: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("drop_propose", self.drop_propose)
        _check_probability("stale_propose", self.stale_propose)
        _check_probability("refuse_award", self.refuse_award)

    @property
    def empty(self) -> bool:
        return (
            self.drop_propose == 0.0
            and self.stale_propose == 0.0
            and self.refuse_award == 0.0
        )


#: Transmissions per award in the hardened handshake.
AWARD_ATTEMPTS = 3


def award_backoff(attempt: int) -> float:
    """Simulated seconds waited after failed award attempt ``attempt``
    (0-based): exponential from 0.05 s, capped at 1 s. A pure function of
    the attempt index — no jitter, no RNG — so retry accounting is
    replay-exact."""
    return min(0.05 * 2.0 ** attempt, 1.0)


@dataclass(frozen=True)
class FaultPlan:
    """Everything a run injects, as one frozen declarative value.

    An all-defaults plan is *empty*: it schedules nothing and consumes
    no RNG draws — running with it is bit-identical
    to running without the fault subsystem (``tests/test_faults.py``).
    """

    link: Optional[GilbertElliott] = None
    partitions: Tuple[Partition, ...] = ()
    crashes: Optional[CrashHazard] = None
    agents: Optional[AgentFaults] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @property
    def empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return (
            self.link is None
            and not self.partitions
            and self.crashes is None
            and (self.agents is None or self.agents.empty)
        )

    def replace(self, **changes) -> "FaultPlan":
        """A copy with fields changed (sweep helper, like
        :meth:`~repro.sessions.policy.SessionPolicy.replace`)."""
        return dataclasses.replace(self, **changes)


#: The canonical no-fault plan (what :class:`~repro.workloads.
#: contention.ContentionConfig` defaults to).
EMPTY_PLAN = FaultPlan()
