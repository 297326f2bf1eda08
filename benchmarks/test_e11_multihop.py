"""E11 — relayed CFP (multi-hop extension).

Extension of the paper's scope (§1 keeps larger fixed infrastructures in
scope; the described broadcast is one-hop). Expected shape: in a sparse
network, raising the hop budget strictly grows the candidate audience and
never lowers success/utility, at the price of more protocol messages.
"""

from benchmarks.conftest import run_suite


def test_e11_multihop(benchmark, sweep, tmp_path):
    table = run_suite(benchmark, "E11", sweep, tmp_path)
    candidates = [s.mean for s in table.column("candidates")]
    utilities = [s.mean for s in table.column("utility")]
    messages = [s.mean for s in table.column("messages")]
    assert all(candidates[i] <= candidates[i + 1] + 1e-9
               for i in range(len(candidates) - 1))
    assert candidates[-1] > candidates[0], "relaying must widen the audience"
    assert utilities[-1] >= utilities[0] - 1e-9
    assert messages[-1] > messages[0], "flooding costs messages"
