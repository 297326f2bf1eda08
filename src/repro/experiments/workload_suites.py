"""The E15–E17 and E20 suites: scenario workloads under contention.

Built entirely on :mod:`repro.workloads` — suites *name* scenarios from
the registry and sweep one field of the scenario's
:class:`~repro.workloads.contention.ContentionConfig` via
:meth:`~repro.workloads.contention.ContentionConfig.replace`, instead of
hand-building clusters and loops:

* **E15** — contention sweep: the ``contention-mix`` scenario with the
  requester count K swept; success, utility, and Jain fairness should
  degrade gracefully as K self-interested requesters share one cluster;
* **E16** — saturation sweep: the ``saturation-trio`` scenario with the
  per-requester Poisson arrival rate swept; concurrency climbs until
  admission control starts refusing sessions;
* **E17** — coalition vs single node for the three **new** service
  families (speech recognition, sensor-fusion telemetry, navigation
  rendering) — the E1 claim re-checked off the paper's beaten path;
* **E20** — streaming sessions under churn: the ``streaming-mix``
  scenario (crash and battery churn), swept over mobility × arrival
  rate × session length; admitted coalitions run their operation phase
  *inside* the contention window (in-place renegotiation — see
  :mod:`repro.sessions`);
* **E21** — realistic arrival streams: the ``diurnal-mix`` and
  ``flash-crowd`` scenarios (inhomogeneous Poisson arrivals, streaming
  sessions) against a rate-matched homogeneous Poisson control, swept
  over arrival shape × requester count. Same expected offered load —
  different *clustering* in time — so any success/drop-rate separation
  is attributable to burstiness alone.

Each plan builder returns a :class:`~repro.experiments.plan.SuitePlan`
and is registered in :data:`repro.experiments.suites.SUITE_PLANS`
next to E1–E14, so the suites run on the shared process pool
with the bit-identical parallel==serial guarantee intact
(every replication is a pure function of its seed; see
:mod:`repro.workloads.contention`).
"""

from __future__ import annotations

from typing import Dict

from repro.core import baselines
from repro.core.negotiation import negotiate
from repro.experiments.config import ClusterConfig, SweepConfig
from repro.experiments.plan import SuitePlan, SweepPoint
from repro.experiments.reporting import Table
from repro.experiments.scenario import build_cluster
from repro.metrics.utility import outcome_utility
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.contention import ContentionConfig, run_contention
from repro.workloads.registry import get_scenario
from repro.workloads.services import NEW_SERVICE_FAMILIES, build_service


def _contention_point(label, config: ContentionConfig, keys) -> SweepPoint:
    """A sweep point replicating ``run_contention(seed, config)``."""

    def run(seed: int) -> Dict[str, float]:
        return run_contention(seed, config).metrics()

    return SweepPoint(label=label, run=run, keys=keys)


# ==========================================================================
# E15 — contention sweep over requester count
# ==========================================================================


def e15_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension (ROADMAP: multi-requester contention): K self-interested
    requesters with independent Poisson arrival streams share one
    cluster's providers.

    Sweeps the requester count of the ``contention-mix`` scenario
    (movie/speech/sensor-fusion/navigation requesters, 20 nodes). With
    one requester admission hardly ever fails; as K grows, sessions
    overlap, later arrivals see depleted providers, and success/utility
    fall while concurrency rises. Jain fairness over per-requester
    success rates should stay high — the protocol has no requester
    priority, so no one starves.
    """
    counts = (1, 2, 4) if sweep.quick else (1, 2, 4, 8)
    horizon = 120.0 if sweep.quick else 240.0
    base = get_scenario("contention-mix").config.replace(horizon=horizon)
    table = Table(
        "E15 — multi-requester contention (contention-mix scenario, "
        f"{base.n_nodes} nodes)",
        ["requesters", "offered sessions", "success rate", "mean utility",
         "fairness (Jain)", "mean concurrent"],
        caption="Per-requester Poisson arrivals (one session per 40 s), "
                "families cycling movie/speech/sensor-fusion/navigation; "
                "sessions hold real reservations for their duration. "
                "Fairness = Jain index over per-requester success rates.",
    )
    keys = ("offered", "success_rate", "utility", "fairness", "mean_concurrent")
    points = [
        _contention_point(k, base.replace(n_requesters=k), keys) for k in counts
    ]
    return SuitePlan("E15", table, points)


# ==========================================================================
# E16 — arrival-rate saturation sweep
# ==========================================================================


def e16_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension (ROADMAP: stochastic arrivals): drive one contention
    scenario from a trickle into saturation.

    Sweeps the per-requester Poisson arrival rate of the
    ``saturation-trio`` scenario (speech/movie/navigation on 14 nodes).
    At low rates sessions rarely overlap and nearly all are admitted;
    past the knee the offered load exceeds what the providers can hold
    concurrently and the success rate bends down while peak concurrency
    saturates — the classic admission-control saturation curve.
    """
    rates = (0.01, 0.04) if sweep.quick else (0.005, 0.01, 0.02, 0.04, 0.08)
    horizon = 120.0 if sweep.quick else 240.0
    base = get_scenario("saturation-trio").config.replace(horizon=horizon)
    table = Table(
        "E16 — arrival-rate saturation (saturation-trio scenario, "
        f"{base.n_nodes} nodes)",
        ["rate (1/s/req)", "offered sessions", "success rate",
         "mean utility", "mean concurrent", "peak concurrent"],
        caption="Homogeneous Poisson arrivals per requester; rate is per "
                "requester, so offered load ≈ 3·rate·horizon sessions. "
                "Sessions hold reservations for 20–30 s each.",
    )
    keys = ("offered", "success_rate", "utility", "mean_concurrent",
            "peak_concurrent")
    points = [
        _contention_point(rate, base.replace(arrival=PoissonProcess(rate)), keys)
        for rate in rates
    ]
    return SuitePlan("E16", table, points)


# ==========================================================================
# E17 — coalition vs single node on the new service families
# ==========================================================================


def e17_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Claim (§1, §4.1) re-checked on the new families: coalitions
    satisfy requests a single weak node cannot — for speech
    recognition, sensor-fusion telemetry, and navigation rendering.

    Mirrors E1's protocol (phone requester, mixed 12-node cluster,
    solo baseline vs coalition negotiation) with the sweep axis being
    the service family instead of the neighborhood size. Each family is
    calibrated so its preferred quality exceeds any handheld
    (coalition necessary) while its worst acceptable quality fits a
    PDA (solo execution possible but heavily degraded).
    """
    families = tuple(NEW_SERVICE_FAMILIES)
    table = Table(
        "E17 — coalition vs single node on the new service families",
        ["family", "single success", "single utility", "coalition success",
         "coalition utility", "coalition size"],
        caption="12-node mixed cluster, phone requester; compare with E1's "
                "movie-playback rows. Calibration targets per family are "
                "documented in docs/workloads.md.",
    )
    points = []
    for family in families:
        def run(seed: int, family=family) -> Dict[str, float]:
            config = ClusterConfig(n_nodes=12)
            topology, providers, _nodes, _registry = build_cluster(config, seed)
            service = build_service(family, requester="requester")
            single = baselines.single_node(service, topology, providers)
            coal = negotiate(service, topology, providers, commit=False)
            return {
                "single_success": float(single.success),
                "single_utility": outcome_utility(single),
                "coal_success": float(coal.success),
                "coal_utility": outcome_utility(coal),
                "coal_size": float(coal.coalition.size),
            }

        points.append(SweepPoint(
            label=family, run=run,
            keys=("single_success", "single_utility", "coal_success",
                  "coal_utility", "coal_size"),
        ))
    return SuitePlan("E17", table, points)


# ==========================================================================
# E20 — streaming sessions under churn
# ==========================================================================


def e20_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension (ROADMAP: operation phase under contention): admitted
    coalitions *stream* — their operation phase runs inside the
    contention window, against crash churn, battery drain and
    (optionally) node mobility.

    Sweeps the ``streaming-mix`` scenario (4 mixed requesters, 20
    nodes, exponential crash hazard 1/200 s per helper, 30 J/s upkeep
    drain per held award) over mobility model × per-requester arrival
    rate × session-length multiplier. Sustained utility — admission
    utility integrated over the planned span — separates from plain
    admission utility as churn rises: renegotiations recover most
    member deaths at a small sustained-utility cost, and longer
    sessions (×2) see more churn per session, pushing the
    renegotiation rate up and dropping the sessions whose retry budget
    runs out.
    """
    mobilities = ("static", "waypoint")
    rates = (1.0 / 60.0,) if sweep.quick else (1.0 / 60.0, 1.0 / 30.0)
    scales = (1.0,) if sweep.quick else (1.0, 2.0)
    horizon = 120.0 if sweep.quick else 240.0
    base = get_scenario("streaming-mix").config.replace(horizon=horizon)
    table = Table(
        "E20 — streaming sessions under churn (streaming-mix scenario, "
        f"{base.n_nodes} nodes)",
        ["mobility × rate × length", "offered sessions", "success rate",
         "sustained utility", "renegotiation rate", "drop rate"],
        caption="Admitted coalitions run their operation phase inside the "
                "contention window: helper crashes (exp. hazard 1/200 s) and "
                "30 J/s-per-award streaming drain orphan tasks mid-session; "
                "orphans renegotiate in place against the currently contended "
                "cluster (2-attempt budget, 5 s keepalive detection). "
                "Sustained utility integrates delivered utility over the "
                "planned span; renegotiation rate counts attempts per "
                "admitted session; drop rate counts admitted sessions torn "
                "down mid-stream.",
    )
    keys = ("offered", "success_rate", "sustained_utility",
            "renegotiation_rate", "drop_rate")
    points = []
    for mobility in mobilities:
        for rate in rates:
            for scale in scales:
                config = base.replace(
                    arrival=PoissonProcess(rate),
                    sessions=base.sessions.replace(
                        mobility=mobility,
                        mobility_speed=4.0,
                        duration_scale=scale,
                    ),
                )
                label = f"{mobility}-{int(round(1.0 / rate))}s-x{scale:g}"
                points.append(_contention_point(label, config, keys))
    return SuitePlan("E20", table, points)


# ==========================================================================
# E21 — realistic arrival streams (diurnal / flash crowd vs Poisson)
# ==========================================================================


def e21_plan(sweep: SweepConfig = SweepConfig()) -> SuitePlan:
    """Extension (ROADMAP: workload realism): does arrival *shape*
    matter, or only the offered load?

    Sweeps arrival shape × requester count over three streaming
    scenarios that share one cluster (20 nodes, movie/speech/
    sensor-fusion/navigation requesters, operation phase on):

    * ``poisson`` — homogeneous control, rate-matched to the diurnal
      shape's mean over the horizon (same expected session count);
    * ``diurnal`` — the ``diurnal-mix`` scenario: a raised-cosine rate
      from one session per 240 s in the trough to one per 30 s at the
      daily peak;
    * ``flash-crowd`` — the ``flash-crowd`` scenario: a quiet baseline
      until ``t = 80 s``, then a 10 s ramp to one session per 8 s that
      decays away exponentially (τ = 30 s).

    Because the diurnal stream offers the same *expected* load as the
    control but concentrates it around the peak, admission failures and
    mid-stream drops cluster there; the flash crowd is the stress case
    — most arrivals land inside one short burst, so success should dip
    well below the Poisson control at equal requester count.
    """
    counts = (2,) if sweep.quick else (2, 4)
    horizon = 120.0 if sweep.quick else 240.0
    diurnal = get_scenario("diurnal-mix").config.replace(horizon=horizon)
    flash = get_scenario("flash-crowd").config.replace(horizon=horizon)
    # Rate-matched homogeneous control: equal expected arrivals per
    # requester over the horizon, Λ_diurnal(H) / H.
    matched = diurnal.arrival.shape.mean_rate(horizon)
    poisson = diurnal.replace(arrival=PoissonProcess(matched))
    table = Table(
        "E21 — realistic arrival streams (diurnal / flash crowd vs "
        f"rate-matched Poisson, {diurnal.n_nodes} nodes)",
        ["shape × requesters", "offered sessions", "success rate",
         "sustained utility", "renegotiation rate", "drop rate"],
        caption="Streaming sessions (operation phase inside the contention "
                "window, crash hazard 1/200 s, 30 J/s drain). The Poisson "
                "control is rate-matched to the diurnal shape's mean over "
                "the horizon, so rows at equal requester count offer the "
                "same expected load; differences isolate the effect of "
                "arrival clustering. Flash-crowd arrivals concentrate in "
                "one burst at t = 80 s.",
    )
    keys = ("offered", "success_rate", "sustained_utility",
            "renegotiation_rate", "drop_rate")
    points = [
        _contention_point(f"{shape_name}-{k}req", base.replace(n_requesters=k), keys)
        for shape_name, base in (
            ("poisson", poisson), ("diurnal", diurnal), ("flash-crowd", flash)
        )
        for k in counts
    ]
    return SuitePlan("E21", table, points)
