"""E23 — fault injection: availability, recovery, degraded vs dropped.

The streaming contention workload at 512 nodes under declarative
:class:`~repro.faults.plan.FaultPlan` regimes: Gilbert–Elliott burst
loss on every negotiation radio leg, scheduled partitions of 10 s
(heals inside the 15 s partition-grace window) or 25 s (outlives it),
and an optional crash hazard. The assertions pin the qualitative shape
the hardening must produce: fault-free regimes sit at full
availability; partitions degrade sessions; a heal inside the grace
window recovers sessions in place (recoveries > 0); availability never
collapses even in the harshest regime.
"""

from benchmarks.conftest import run_suite


def test_e23_fault_sweep(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E23", sweep, tmp_path)
    labels = table.column("fault regime")
    availability = [s.mean for s in table.column("availability")]
    degraded = [s.mean for s in table.column("degraded sessions")]
    retries = [s.mean for s in table.column("award retries")]
    rows = dict(zip(labels, zip(availability, degraded, retries)))

    # Availability is a fraction everywhere and never collapses: the
    # bounded retry/backoff handshake keeps sessions landing even under
    # bursty loss plus a 25 s partition.
    assert all(0.5 < a <= 1.0 for a in availability), rows
    # Partition regimes actually degrade sessions ...
    partitioned = [lab for lab in rows if "part" in lab]
    assert partitioned and all(rows[lab][1] > 0.0 for lab in partitioned), rows
    # ... and cost availability relative to their partition-free sibling.
    for lab in partitioned:
        base = lab.split("-part")[0]
        if base in rows:
            assert rows[lab][0] < rows[base][0], (lab, rows)
    # Bursty links make award handshakes retry; calm links rarely do.
    bursty = [lab for lab in rows if lab.startswith("bursty")]
    assert bursty and all(rows[lab][2] > 0.0 for lab in bursty), rows
