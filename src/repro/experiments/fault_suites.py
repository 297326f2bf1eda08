"""The E23 suite: fault injection and graceful degradation at 512 nodes.

One suite, one question: when the cluster actually misbehaves — bursty
link loss on the PROPOSE/AWARD legs, network partitions that sever
whole coalitions from their organizers, crash hazards with delayed
recovery — does the hardened protocol (bounded award retry/backoff,
idempotent release, partition-grace keepalive) *degrade* sessions
instead of dropping them, and recover in place when the fault clears?

Each sweep point is one :class:`~repro.faults.plan.FaultPlan` regime on
the same 512-node streaming-contention cluster (constant density, the
E22 workload shape, unsharded so partitions can overlay the global
topology). The axes:

* **loss burstiness** — a calm vs bursty Gilbert–Elliott chain on every
  radio leg of the negotiation (dropped PROPOSE bundles, lost
  AWARD/ACK rounds retried under the bounded backoff policy);
* **partition duration** — none, 10 s (heals *inside* the 15 s
  partition-grace window: sessions degrade, then recover in place
  without renegotiating) or 25 s (outlives the grace window: suspended
  members expire and are renegotiated or dropped);
* **crash hazard** — an inhomogeneous-Poisson crash stream over the
  helpers with 25 s recovery, off or on.

Every column is a pure function of the seed (the injector draws only
from the ``faults:*`` registry streams), so the bit-identical
parallel==serial guarantee holds and CI gates the committed
``BENCH_E23.json`` exactly like every other suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.experiments.config import SweepConfig
from repro.experiments.plan import SuitePlan, SweepPoint
from repro.experiments.reporting import Table
from repro.faults.plan import (
    AgentFaults,
    CrashHazard,
    FaultPlan,
    GilbertElliott,
    Partition,
)
from repro.sessions.policy import SessionPolicy
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.contention import ContentionConfig, requester_id
from repro.workloads.rates import ConstantRate

#: The sweep's two link regimes: long quiet spells with mild bad-state
#: loss vs frequent long bursts losing most of what they touch.
_CALM = GilbertElliott(p_gb=0.002, p_bg=0.5, loss_good=0.0, loss_bad=0.3)
_BURSTY = GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.8)

#: Mild agent misbehaviour present in every regime, so award handshakes
#: and stale-proposal rejection are exercised throughout the sweep.
_AGENTS = AgentFaults(drop_propose=0.02, stale_propose=0.02, refuse_award=0.01)

_N_NODES = 512
_N_REQUESTERS = 4
#: Seconds a session tolerates an unreachable member before giving up
#: on the partition healing (the E23 grace window; the 10 s partition
#: heals inside it, the 25 s one does not).
_GRACE = 15.0


def _partition_groups() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The two sides of every E23 partition: requesters plus the even
    helpers vs the odd helpers — so roughly half of each coalition ends
    up across the cut from its organizer."""
    helpers = _N_NODES - _N_REQUESTERS
    group_a = tuple(requester_id(k) for k in range(_N_REQUESTERS)) + tuple(
        f"n{i}" for i in range(0, helpers, 2)
    )
    group_b = tuple(f"n{i}" for i in range(1, helpers, 2))
    return group_a, group_b


def _e23_plan_for(
    link: GilbertElliott,
    partition_start: float,
    partition_duration: Optional[float],
    crash: bool,
) -> FaultPlan:
    group_a, group_b = _partition_groups()
    partitions = ()
    if partition_duration is not None:
        partitions = (
            Partition(
                start=partition_start,
                duration=partition_duration,
                group_a=group_a,
                group_b=group_b,
            ),
        )
    # ~1 crash/s over 508 helpers keeps ~4% of the fleet down at any
    # instant (25 s reboots) — rare enough that most coalitions never
    # notice, common enough that some lose a member mid-session.
    crashes = (
        CrashHazard(shape=ConstantRate(1.0), recover_after=25.0)
        if crash
        else None
    )
    return FaultPlan(
        link=link, partitions=partitions, crashes=crashes, agents=_AGENTS
    )


def _e23_config(plan: FaultPlan, horizon: float) -> ContentionConfig:
    """One E23 sweep point: the E22 workload shape (constant density,
    K = 4 requesters, streaming sessions) on an unsharded 512-node
    cluster, with the point's fault plan and the partition-grace
    keepalive enabled."""
    return ContentionConfig(
        n_requesters=_N_REQUESTERS,
        families=("movie", "speech", "sensor-fusion", "navigation"),
        # Denser than the default one-per-40 s: several sessions per
        # requester are live at once, so every partition window catches
        # coalitions mid-operation instead of between sessions.
        arrival=PoissonProcess(rate=1.0 / 12.0),
        horizon=horizon,
        n_nodes=_N_NODES,
        area=60.0 * float(np.sqrt(_N_NODES)),
        radio_range=100.0,
        sessions=SessionPolicy(
            # Probe every 2.5 s so even a short overlap between a
            # session's span and the partition window gets noticed.
            keepalive=2.5,
            partition_grace=_GRACE,
        ),
        faults=plan,
    )


def e23_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Tentpole (ROADMAP: robustness): availability, recovery time and
    the degraded-vs-dropped split under injected faults.

    The headline is the middle of the table: with a partition shorter
    than the grace window, sessions should *degrade and recover in
    place* (recoveries > 0, drop rate near the no-partition regime);
    once the partition outlives the grace window, suspended members
    expire into renegotiations and the drop rate climbs. Availability
    decreases with burstiness and partition length but never collapses
    to zero — the bounded award retries keep admissions landing even on
    lossy links, at a visible retry cost.
    """
    horizon = 60.0 if sweep.quick else 120.0
    partition_start = horizon / 3.0
    regimes = [
        ("calm", _CALM, None, False),
        ("bursty", _BURSTY, None, False),
        ("calm-part10", _CALM, 10.0, False),
        ("bursty-part10", _BURSTY, 10.0, False),
        ("calm-part25", _CALM, 25.0, False),
        ("bursty-part25", _BURSTY, 25.0, False),
        ("calm-part10-crash", _CALM, 10.0, True),
        ("bursty-part25-crash", _BURSTY, 25.0, True),
    ]
    if sweep.quick:
        keep = {"bursty", "calm-part10", "bursty-part25", "bursty-part25-crash"}
        regimes = [r for r in regimes if r[0] in keep]
    table = Table(
        "E23 — fault injection: availability, recovery, degraded vs "
        "dropped (512 nodes)",
        ["fault regime", "availability", "mean recovery (s)",
         "degraded sessions", "drop rate", "award retries"],
        caption="512-node streaming contention (K = 4 requesters, "
                "Poisson arrivals, constant density) under declarative "
                "fault plans: Gilbert–Elliott burst loss on every "
                "negotiation radio leg (calm vs bursty chain), "
                "bidirectional partitions of 10 s (heals inside the "
                "15 s partition-grace window — sessions recover in "
                "place) or 25 s (outlives it — suspended members are "
                "renegotiated), and an optional crash hazard "
                "(1 event/s over the helpers, 25 s reboots). Award "
                "rounds use the "
                "bounded retry/backoff handshake; releases are "
                "idempotent. availability = fraction of admitted-"
                "session time spent OPERATING; recoveries are "
                "DEGRADED→OPERATING episodes. All columns are pure "
                "functions of the seed.",
    )
    points = []
    for label, link, duration, crash in regimes:
        plan = _e23_plan_for(link, partition_start, duration, crash)
        config = _e23_config(plan, horizon)

        def run(seed: int, config=config) -> Dict[str, float]:
            from repro.workloads.contention import run_contention

            result = run_contention(seed, config)
            row = result.resilience.metrics()
            row["drop_rate"] = result.metrics()["drop_rate"]
            return row

        points.append(SweepPoint(
            label=label, run=run,
            keys=("availability", "mean_recovery_s", "degraded_sessions",
                  "drop_rate", "award_retries"),
        ))
    return SuitePlan("E23", table, points)
