"""E10 — offloading economics.

Paper claim (§1, §7): processing locally on the mobile device "may suffer
time penalty and, possibly, battery energy loss"; spreading tasks to
nearby devices with spare resources pays off. Expected shape: with any
laptop neighbor available, the requester's energy cost drops (transfer
energy « execution energy) while utility does not decrease.
"""

from benchmarks.conftest import run_suite


def test_e10_offloading(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E10", sweep, tmp_path)
    for row in table.rows:
        neighbors = row[0]
        local_energy, coal_energy = row[1].mean, row[2].mean
        local_u, coal_u = row[4].mean, row[5].mean
        if neighbors > 0:
            assert coal_energy < local_energy, "offloading must save energy"
            assert coal_u >= local_u - 1e-9, "offloading must not hurt quality"
        else:
            assert coal_energy == local_energy  # nobody to offload to
