"""Contention runs against the answers of the deleted admission-only loop.

``tests/data/contention_golden.json`` records what the formation-only
contention loop answered for the six scenarios that used to run it
(solo-movie, duet-av, contention-mix, saturation-trio, burst-octet and
new-services-trio; seeds 1–3, each scenario's own horizon, id
sequences rewound before each run as a replication does): every
:class:`~repro.workloads.contention.SessionOutcome` field except
``sustained_utility``, per session in processing order. That loop held
each admitted coalition for its nominal duration and reported its
admission utility as the sustained one. Every contention run now goes
through the :class:`~repro.sessions.SessionDriver`, which must give the
same sessions the same admissions, coalitions and concurrency, with the
fixture as the oracle the loop would otherwise have to stay around as.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.sim.sequences import reset_all_sequences
from repro.workloads.registry import get_scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "contention_golden.json").read_text()
)


@pytest.mark.parametrize("scenario", sorted(GOLDEN["scenarios"]))
def test_streaming_reproduces_admission_only(scenario):
    """The driver's outcomes equal the recorded ones field for field.

    ``sustained_utility`` is the one exception: the driver integrates
    the held utility, ``u·(t_close − t_admit)/D``, which is not ``u``
    in floating point. Over 96 runs of these scenarios (own horizon and
    600 s, seeds 1–8) it differed for 305 of 3,942 admitted sessions,
    by at most 26 ulp (about 6e-15 relative), so an admitted
    session's sustained utility is held to ``rel_tol=1e-13`` of its
    recorded utility, and a rejected one's is exactly 0.
    """
    spec = get_scenario(scenario)
    fields = GOLDEN["fields"]
    for seed, expected in GOLDEN["scenarios"][scenario].items():
        reset_all_sequences()
        result = spec.run(int(seed))
        got = [[getattr(s, f) for f in fields] for s in result.sessions]
        assert got == expected, (scenario, seed)
        for session in result.sessions:
            if session.success:
                assert math.isclose(
                    session.sustained_utility, session.utility, rel_tol=1e-13
                ), (scenario, seed, session)
            else:
                assert session.sustained_utility == 0.0, (scenario, seed, session)
