"""Do two sets of benchmark runs agree within the benchmark's bounds?

    python benchmarks/perf/run.py --json a.json
    python benchmarks/perf/run.py --json b.json
    python benchmarks/perf/compare.py a.json b.json

For every (metric, workload) of the end-to-end metrics it prints each
set's median and quartiles over its repeats, and whether the medians
agree: ``|median(B) - median(A)| <= bound * median(A)``, with the bound
from ``BENCHMARK.json``. Exits 1 if any pair disagrees or is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def collect(report: dict) -> Dict[Tuple[str, str], List[float]]:
    """(metric, workload) → the values of every repeat."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in report["runs"]:
        for metric, entry in run["metrics"].items():
            values.setdefault((metric, run["workload"]), []).append(entry["value"])
    return values


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="run.py --json output of the first set")
    parser.add_argument("b", help="run.py --json output of the second set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a = collect(json.loads(Path(args.a).read_text()))
    b = collect(json.loads(Path(args.b).read_text()))

    disagree = 0
    print(f"{'metric':20s} {'workload':20s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} "
          f"{'diff':>8s} bound")
    for metric, bound in bounds.items():
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (metric, workload)
            if key not in a or key not in b:
                if key in a or key in b:
                    print(f"{metric:20s} {workload:20s} missing from one set")
                    disagree += 1
                continue
            qa, qb = quartiles(a[key]), quartiles(b[key])
            diff = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            ok = abs(diff) <= bound
            disagree += not ok
            fmt = "{:10.4g} {:10.4g} {:10.4g}"
            print(f"{metric:20s} {workload:20s} {fmt.format(*qa):>32s} "
                  f"{fmt.format(*qb):>32s} {diff:+8.1%} {bound:.0%} "
                  f"{'agree' if ok else 'DISAGREE'}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
