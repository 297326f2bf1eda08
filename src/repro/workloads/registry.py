"""Named scenario registry: name a scenario instead of coding it.

A :class:`ScenarioSpec` is a name, a one-line description and the
:class:`~repro.workloads.contention.ContentionConfig` the scenario runs.
Suites sweep a scenario through its config
(``get_scenario("contention-mix").config.replace(n_requesters=k)``), so
a scenario and an ad-hoc run are the same value with the same
validation.

:data:`SCENARIOS` is the named registry the suites and the CLI
(``python -m repro.experiments --list-scenarios``) read; new scenarios
register with :func:`register` instead of growing hand-built suite
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sessions.policy import SessionPolicy
from repro.workloads.arrivals import BurstyProcess, DiurnalProcess, FlashCrowdProcess
from repro.workloads.contention import ContentionConfig, ContentionResult, run_contention


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, seedable contention scenario.

    Attributes:
        name: Registry key (kebab-case).
        description: One line for ``--list-scenarios``.
        config: The run the scenario denotes.
    """

    name: str
    description: str
    config: ContentionConfig

    def run(self, seed: int) -> ContentionResult:
        """Run the scenario; a pure function of ``seed``."""
        return run_contention(seed, self.config)

    def metrics_run(self, seed: int) -> Dict[str, float]:
        """``run(seed).metrics()`` — the CLI's replication callable."""
        return self.run(seed).metrics()


#: The named scenario registry, in registration order.
SCENARIOS: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to :data:`SCENARIOS` (duplicate names are a bug)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered spec by name.

    Raises:
        KeyError: For an unknown name (listing the valid ones).
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        ) from None


def list_scenarios() -> List[ScenarioSpec]:
    """Registered specs, in registration order."""
    return list(SCENARIOS.values())


# --------------------------------------------------------------------------
# Built-in scenarios
# --------------------------------------------------------------------------

register(ScenarioSpec(
    "solo-movie",
    "1 movie requester, Poisson arrivals — the no-contention baseline",
    ContentionConfig(n_requesters=1, families=("movie",), n_nodes=12),
))

register(ScenarioSpec(
    "duet-av",
    "movie + conference requesters sharing a 16-node cluster",
    ContentionConfig(n_requesters=2, families=("movie", "conference")),
))

#: The four-family, 20-node cluster the larger scenarios share.
_MIX4 = ContentionConfig(
    n_requesters=4,
    families=("movie", "speech", "sensor-fusion", "navigation"),
    n_nodes=20,
    area=130.0,
    radio_range=110.0,
    mix="contention",
)

register(ScenarioSpec(
    "contention-mix",
    "movie/speech/sensor-fusion/navigation requesters on 20 nodes "
    "(E15 sweeps its requester count)",
    _MIX4,
))

register(ScenarioSpec(
    "saturation-trio",
    "3 mixed requesters on 14 nodes (E16 sweeps its arrival rate)",
    ContentionConfig(
        n_requesters=3, families=("speech", "movie", "navigation"), n_nodes=14
    ),
))

register(ScenarioSpec(
    "burst-octet",
    "8 mixed requesters with bursty synchronized arrivals on 24 nodes",
    _MIX4.replace(
        n_requesters=8,
        n_nodes=24,
        area=140.0,
        radio_range=120.0,
        arrival=BurstyProcess(
            base_rate=1.0 / 120.0,
            burst_rate=1.0 / 12.0,
            period=80.0,
            burst_fraction=0.25,
        ),
    ),
))

register(ScenarioSpec(
    "new-services-trio",
    "the three new families (speech, sensor-fusion, navigation) "
    "contending on 16 nodes",
    ContentionConfig(
        n_requesters=3, families=("speech", "sensor-fusion", "navigation")
    ),
))

#: The streaming churn policy the realistic-arrival scenarios share
#: with ``streaming-mix`` (crash hazard 1/200 s, 30 J/s upkeep drain),
#: so E21's arrival-shape comparison changes nothing but the arrivals.
_STREAMING_MIX4 = _MIX4.replace(sessions=SessionPolicy(
    keepalive=5.0,
    max_renegotiations=2,
    failure_rate=1.0 / 200.0,
    drain=30.0,
))

register(ScenarioSpec(
    "streaming-mix",
    "4 mixed requesters streaming under crash + battery churn "
    "(E20 sweeps its mobility, arrival rate and session length)",
    _STREAMING_MIX4,
))

register(ScenarioSpec(
    "diurnal-mix",
    "4 mixed requesters on a compressed diurnal arrival cycle, "
    "streaming under churn (E21 sweeps shape × requester count)",
    _STREAMING_MIX4.replace(arrival=DiurnalProcess(
        base_rate=1.0 / 240.0, peak_rate=1.0 / 30.0, period=240.0, phase=0.0
    )),
))

register(ScenarioSpec(
    "flash-crowd",
    "4 mixed requesters hit by a flash crowd (linear onset at "
    "t=80 s, exponential decay), streaming under churn",
    _STREAMING_MIX4.replace(arrival=FlashCrowdProcess(
        base_rate=1.0 / 240.0, peak_rate=1.0 / 8.0, onset=80.0, rise=10.0, decay=30.0
    )),
))
