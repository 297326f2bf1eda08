#!/usr/bin/env python3
"""Diff two ``BENCH_<suite>.json`` reports (the committed-snapshot CI gate).

Loads an *old* (baseline) and a *new* bench report as
:class:`~repro.experiments.store.RunRecord`\\ s, prints the wall-time
change, then every difference
:meth:`~repro.experiments.store.ResultsStore.compare` finds::

    python tools/bench_diff.py old/BENCH_E18.json new/BENCH_E18.json
    python tools/bench_diff.py a.json b.json --wall-rtol 4.0

Every result table is a pure function of its seeds, so the results gate
is exact: a different suite, seed list, column, row, cell or per-seed
sample fails. Wall time is reported always but gated only when
``--wall-rtol`` is given (runners differ in speed, so that gate is
coarse): a regression is ``new.wall > old.wall * (1 + wall_rtol)``.

Exit codes: 0 = identical results (and wall time within ``--wall-rtol``
when given); 1 = any result difference or a wall-time regression; 2 = a
report is unreadable or malformed, or the invocation is bad.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.store import (  # noqa: E402  (sys.path bootstrap above)
    ResultsStore,
    RunRecord,
)


def load_report(path: Path) -> RunRecord:
    """Load one bench report, exiting with code 2 on malformed input."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read bench report {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    try:
        return RunRecord.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"{path}: not a bench report ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        raise SystemExit(2) from None


def diff_wall_time(
    old: RunRecord, new: RunRecord, wall_rtol: Optional[float]
) -> Tuple[str, Optional[str]]:
    """(report line, regression line or None) for the wall-time change."""
    wa, wb = old.wall_time_s, new.wall_time_s
    change = (wb - wa) / wa if wa > 0 else 0.0
    line = f"  wall time: {wa:.2f}s -> {wb:.2f}s ({change:+.1%})"
    if wall_rtol is not None and wa > 0 and wb > wa * (1.0 + wall_rtol):
        return line, line + f" exceeds --wall-rtol {wall_rtol}"
    return line, None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_diff.py",
        description="Diff two BENCH_<suite>.json reports; exit 1 on any "
                    "result difference (or, with --wall-rtol, a wall-time "
                    "regression).",
    )
    parser.add_argument("old", type=Path, help="baseline bench report")
    parser.add_argument("new", type=Path, help="candidate bench report")
    parser.add_argument(
        "--wall-rtol", type=float, default=None, metavar="FRAC",
        help="also fail when new wall time exceeds old by this fraction "
             "(default: wall time is reported, not gated)",
    )
    args = parser.parse_args(argv)

    old = load_report(args.old)
    new = load_report(args.new)
    wall_line, wall_regression = diff_wall_time(old, new, args.wall_rtol)
    differences = ResultsStore.compare(old, new).differences

    print(f"{old.suite}: {args.old} -> {args.new}")
    print(wall_line)
    for difference in differences:
        print(f"  {difference}")
    if differences:
        print(f"{len(differences)} result difference(s)", file=sys.stderr)
    if wall_regression is not None:
        print(wall_regression, file=sys.stderr)
    if differences or wall_regression is not None:
        return 1
    print("ok: results identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
