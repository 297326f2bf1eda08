"""golden.json agrees with the committed suite report.

The benchmark builds its configurations from ``repro``'s public classes
rather than the suites' private helpers. This check pins that the e18
workload is exactly the E18 128-node point: its golden rows must
reproduce the per-seed samples of the committed ``BENCH_E18.json``. The
contention workloads run shortened horizons (e23 also fewer nodes), so
no suite report holds their rows. No simulation runs here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / "results"

#: (suite, row label, workload, {report column: golden key}).
CASES = [
    ("E18", 128, "e18-negotiate-128", {
        "messages": "messages", "sim time (s)": "time",
        "success": "success", "proposals": "proposals",
    }),
]


@pytest.mark.parametrize("suite,label,workload,columns", CASES,
                         ids=[case[0] for case in CASES])
def test_golden_rows_match_committed_suite_samples(suite, label, workload, columns):
    report = json.loads((RESULTS / f"BENCH_{suite}.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())[workload]
    table = report["table"]
    (row,) = [r for r in table["rows"] if r[0] == label]
    samples = {
        column: cell["__summary__"]["samples"]
        for column, cell in zip(table["columns"][1:], row[1:])
    }
    seeds = report["seeds"]
    assert all(str(seed) in golden for seed in seeds)
    for column, key in columns.items():
        assert [golden[str(seed)][key] for seed in seeds] == samples[column], column
