"""Scenario generation: service families, arrivals, fleets, contention.

The paper motivates cooperation with three concrete services (movie
playback, surveillance, conferencing), each requested by a *single*
weak device. This package opens the workload axis the ROADMAP asks
for — "new workloads beyond the paper's three services; multi-requester
contention scenarios" — as a subsystem of its own:

* :mod:`repro.workloads.services` — three **new** calibrated service
  families (speech recognition, sensor-fusion telemetry, map/navigation
  rendering) plus a name → builder registry spanning the paper's
  original three;
* :mod:`repro.workloads.arrivals` — deterministic-given-seed session
  arrival processes (fixed interval, homogeneous Poisson, and
  inhomogeneous Poisson over a rate shape by thinning);
* :mod:`repro.workloads.rates` — the deterministic rate shapes
  (constant, square-wave bursts, diurnal cycle, flash crowd) with
  exact bounds and cumulative intensities;
* :mod:`repro.workloads.fleet` — the named helper-class mixes, the one
  weighted class draw and the placement every fleet shares;
* :mod:`repro.workloads.contention` — K self-interested requesters with
  independent arrival streams competing for one cluster's providers;
  the admitted coalitions' operation phases run *inside* the contention
  window (crashes, battery drain, in-place renegotiation, as the
  :class:`~repro.sessions.SessionPolicy` sets them — see
  :mod:`repro.sessions`);
* :mod:`repro.workloads.registry` — the named
  :class:`~repro.workloads.registry.ScenarioSpec` registry that suites
  and the CLI (``--list-scenarios``) name scenarios through instead of
  re-coding them.

The experiment suites E15–E17, E20 and E21
(:mod:`repro.experiments.workload_suites`) are built on this package;
``docs/workloads.md`` documents the calibration targets and the
contention model.

Layering: this package sits beside :mod:`repro.services` and *below*
:mod:`repro.experiments` and :mod:`repro.shard`. It imports neither,
so importing it (or running a contention scenario) never loads the
experiment layer.
"""

from repro.workloads import arrivals, contention, fleet, rates, registry, services
from repro.workloads.arrivals import (
    ArrivalProcess,
    FixedIntervalProcess,
    InhomogeneousPoissonProcess,
    PoissonProcess,
)
from repro.workloads.rates import (
    BurstRate,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    RateShape,
)
from repro.workloads.contention import (
    ContentionConfig,
    ContentionResult,
    SessionOutcome,
    run_contention,
)
from repro.workloads.registry import (
    SCENARIOS,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register,
)
from repro.workloads.services import (
    NEW_SERVICE_FAMILIES,
    SERVICE_FAMILIES,
    build_service,
    navigation_service,
    sensor_fusion_service,
    speech_recognition_service,
)

__all__ = [
    "arrivals",
    "contention",
    "fleet",
    "rates",
    "registry",
    "services",
    "ArrivalProcess",
    "FixedIntervalProcess",
    "InhomogeneousPoissonProcess",
    "PoissonProcess",
    "BurstRate",
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "RateShape",
    "ContentionConfig",
    "ContentionResult",
    "SessionOutcome",
    "run_contention",
    "SCENARIOS",
    "ScenarioSpec",
    "get_scenario",
    "list_scenarios",
    "register",
    "NEW_SERVICE_FAMILIES",
    "SERVICE_FAMILIES",
    "build_service",
    "navigation_service",
    "sensor_fusion_service",
    "speech_recognition_service",
]
