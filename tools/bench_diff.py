#!/usr/bin/env python3
"""Diff two ``BENCH_<suite>.json`` reports (perf-trajectory CI gate).

Compares an *old* (baseline) and a *new* bench report of the same suite
and reports, per ``(sweep point, metric)`` cell, how far the new mean
drifted from the old one — plus the wall-time change::

    python tools/bench_diff.py old/BENCH_E15.json new/BENCH_E15.json
    python tools/bench_diff.py a.json b.json --rtol 0 --wall-rtol 0.5
    python tools/bench_diff.py a.json b.json --band bootstrap

Two noise bands decide what counts as a **regression**:

* ``--band rtol`` (the default; stdlib only) — the historical rule::

      |new.mean - old.mean| > rtol * |old.mean| + ci_slack

  where ``ci_slack`` (on by default, disable with ``--no-ci-slack``) is
  the sum of the two cells' 95% normal-approximation CI half-widths.

* ``--band bootstrap`` — the statistically honest rule (needs the
  ``repro`` package importable, for :mod:`repro.metrics.bootstrap`):
  both reports carry per-seed ``samples`` in every summary cell and are
  replicated over the *same* seed list, so the per-seed differences are
  paired. The gate resamples those paired differences (``--resamples``
  resamples, fixed ``--boot-seed``) into a two-sided ``1 - alpha``
  percentile interval — the cell's own noise band. A cell regresses
  when the band excludes zero: deterministic ("exact") metrics have
  identical samples and pass trivially, any consistent drift in them
  yields the degenerate band ``[c, c]`` and fails, and noisy (timing-like) cells pass exactly when their drift is
  statistically indistinguishable from replication noise — no
  hand-picked tolerance anywhere. Cells missing samples (schema-v1
  reports) fall back to the rtol rule and are flagged.

Wall time is *reported* always but only *gated* when ``--wall-rtol`` is
given (CI runners are too noisy to gate by default): a regression is
``new.wall > old.wall * (1 + wall_rtol)``.

Exit codes: 0 = comparable and within tolerance; 1 = at least one
regression; 2 = the reports are not comparable (different suite, seeds,
sweep points, or columns) or the invocation is bad.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

def load_report(path: Path) -> Dict[str, Any]:
    """Load one bench report, exiting with code 2 on malformed input."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read bench report {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    for key in ("suite", "seeds", "wall_time_s", "table"):
        if key not in data:
            print(f"{path}: not a bench report (missing {key!r})", file=sys.stderr)
            raise SystemExit(2)
    return data


def summary_cells(report: Dict[str, Any]) -> Dict[Tuple[str, str], Dict[str, float]]:
    """``(sweep point, column) -> summary dict`` for every Summary cell.

    The first column of every suite table is the sweep-point label;
    the remaining cells are ``{"__summary__": {...}}`` per-metric
    summaries (see ``repro.experiments.reporting``).
    """
    table = report["table"]
    columns = table["columns"]
    cells: Dict[Tuple[str, str], Dict[str, float]] = {}
    for row in table["rows"]:
        point = str(row[0])
        for column, cell in zip(columns[1:], row[1:]):
            if isinstance(cell, dict) and "__summary__" in cell:
                cells[(point, column)] = cell["__summary__"]
    return cells


def check_comparable(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Structural mismatches that make a drift comparison meaningless."""
    problems = []
    if old["suite"] != new["suite"]:
        problems.append(f"suite: {old['suite']!r} != {new['suite']!r}")
    if old["seeds"] != new["seeds"]:
        problems.append(f"seeds: {old['seeds']} != {new['seeds']}")
    ta, tb = old["table"], new["table"]
    if ta["columns"] != tb["columns"]:
        problems.append(f"columns: {ta['columns']} != {tb['columns']}")
    points_a = [str(r[0]) for r in ta["rows"]]
    points_b = [str(r[0]) for r in tb["rows"]]
    if points_a != points_b:
        problems.append(f"sweep points: {points_a} != {points_b}")
    if not problems:
        # Same shape, but a cell may be a summary in one report and a
        # raw value in the other (e.g. a suite changed what it emits).
        only_old = sorted(set(summary_cells(old)) - set(summary_cells(new)))
        only_new = sorted(set(summary_cells(new)) - set(summary_cells(old)))
        for point, column in only_old:
            problems.append(f"[{point}] {column}: summary only in old report")
        for point, column in only_new:
            problems.append(f"[{point}] {column}: summary only in new report")
    return problems


def _bootstrap_module():
    """Import :mod:`repro.metrics.bootstrap`, falling back to the
    checkout's ``src/`` tree next to this script (exit 2 if neither
    works — the default rtol band stays stdlib-only)."""
    try:
        from repro.metrics import bootstrap
        return bootstrap
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        try:
            from repro.metrics import bootstrap
            return bootstrap
        except ImportError:
            print(
                "--band bootstrap needs the repro package importable "
                "(pip install -e . or PYTHONPATH=src)",
                file=sys.stderr,
            )
            raise SystemExit(2) from None


def diff_metrics(
    old: Dict[str, Any],
    new: Dict[str, Any],
    rtol: float,
    ci_slack: bool,
) -> Tuple[List[str], List[str]]:
    """(drift report lines, regression lines) under the rtol band."""
    old_cells = summary_cells(old)
    new_cells = summary_cells(new)
    lines: List[str] = []
    regressions: List[str] = []
    for key in old_cells:
        a, b = old_cells[key], new_cells[key]
        drift = abs(b["mean"] - a["mean"])
        if drift == 0.0:
            continue
        point, column = key
        allowed = rtol * abs(a["mean"])
        if ci_slack:
            allowed += a["ci_half_width"] + b["ci_half_width"]
        line = (
            f"  [{point}] {column}: {a['mean']:.6g} -> {b['mean']:.6g} "
            f"(drift {drift:.3g}, allowed {allowed:.3g})"
        )
        lines.append(line)
        if drift > allowed:
            regressions.append(line)
    return lines, regressions


def diff_metrics_bootstrap(
    old: Dict[str, Any],
    new: Dict[str, Any],
    rtol: float,
    ci_slack: bool,
    alpha: float,
    resamples: int,
    boot_seed: int,
) -> Tuple[List[str], List[str]]:
    """(drift report lines, regression lines) under the bootstrap band.

    Per drifted cell the line shows the paired-difference percentile
    interval the decision is based on. Cells without per-seed samples
    on both sides fall back to the rtol rule (flagged in the line).
    """
    bootstrap = _bootstrap_module()
    old_cells = summary_cells(old)
    new_cells = summary_cells(new)
    lines: List[str] = []
    regressions: List[str] = []
    for key in old_cells:
        a, b = old_cells[key], new_cells[key]
        point, column = key
        sa, sb = a.get("samples"), b.get("samples")
        if sa is None or sb is None or len(sa) != len(sb):
            # Schema-v1 report (or ragged cell): only means survive.
            drift = abs(b["mean"] - a["mean"])
            if drift == 0.0:
                continue
            allowed = rtol * abs(a["mean"])
            if ci_slack:
                allowed += a["ci_half_width"] + b["ci_half_width"]
            line = (
                f"  [{point}] {column}: {a['mean']:.6g} -> {b['mean']:.6g} "
                f"(drift {drift:.3g}, allowed {allowed:.3g}; no samples, "
                f"rtol rule)"
            )
            lines.append(line)
            if drift > allowed:
                regressions.append(line)
            continue
        if list(sa) == list(sb):
            continue  # bit-identical cell: exact pass
        ci = bootstrap.bootstrap_diff_ci(
            sa, sb, alpha=alpha, n_resamples=resamples, seed=boot_seed
        )
        delta = b["mean"] - a["mean"]
        line = (
            f"  [{point}] {column}: {a['mean']:.6g} -> {b['mean']:.6g} "
            f"(Δ {delta:+.3g}, {1 - alpha:.0%} noise band "
            f"[{ci.lo:.3g}, {ci.hi:.3g}])"
        )
        lines.append(line)
        if ci.lo > 0.0 or ci.hi < 0.0:
            regressions.append(line + " excludes zero")
    return lines, regressions


def diff_wall_time(
    old: Dict[str, Any], new: Dict[str, Any], wall_rtol: Optional[float]
) -> Tuple[str, Optional[str]]:
    """(report line, regression line or None) for the wall-time change."""
    wa, wb = float(old["wall_time_s"]), float(new["wall_time_s"])
    change = (wb - wa) / wa if wa > 0 else 0.0
    line = f"  wall time: {wa:.2f}s -> {wb:.2f}s ({change:+.1%})"
    if wall_rtol is not None and wa > 0 and wb > wa * (1.0 + wall_rtol):
        return line, line + f" exceeds --wall-rtol {wall_rtol}"
    return line, None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_diff.py",
        description="Diff two BENCH_<suite>.json reports; exit 1 on metric "
                    "(or, with --wall-rtol, wall-time) regressions beyond "
                    "the noise band.",
    )
    parser.add_argument("old", type=Path, help="baseline bench report")
    parser.add_argument("new", type=Path, help="candidate bench report")
    parser.add_argument(
        "--band", choices=("rtol", "bootstrap"), default="rtol",
        help="noise band deciding regressions: 'rtol' (relative drift + "
             "CI slack, stdlib only) or 'bootstrap' (paired per-seed "
             "percentile interval from the reports' samples; identical "
             "samples pass exactly)",
    )
    parser.add_argument(
        "--rtol", type=float, default=0.05, metavar="FRAC",
        help="relative mean-drift tolerance per metric under --band rtol "
             "(and the fallback for sample-less cells; default 0.05)",
    )
    parser.add_argument(
        "--no-ci-slack", action="store_true",
        help="do not widen the rtol tolerance by the two cells' 95%% CI "
             "half-widths (gate on raw drift only)",
    )
    parser.add_argument(
        "--alpha", type=float, default=0.05, metavar="A",
        help="two-sided miss probability of the bootstrap noise band "
             "(default 0.05 → 95%% interval)",
    )
    parser.add_argument(
        "--resamples", type=int, default=10000, metavar="B",
        help="bootstrap resamples for the noise band (default 10000)",
    )
    parser.add_argument(
        "--boot-seed", type=int, default=1905, metavar="SEED",
        help="seed of the deterministic resampling generator "
             "(default 1905)",
    )
    parser.add_argument(
        "--wall-rtol", type=float, default=None, metavar="FRAC",
        help="also fail when new wall time exceeds old by this fraction "
             "(default: wall time is reported, not gated)",
    )
    args = parser.parse_args(argv)

    old = load_report(args.old)
    new = load_report(args.new)
    problems = check_comparable(old, new)
    if problems:
        print(f"reports are not comparable ({args.old} vs {args.new}):",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2

    if args.band == "bootstrap":
        lines, regressions = diff_metrics_bootstrap(
            old, new, rtol=args.rtol,
            ci_slack=not args.no_ci_slack, alpha=args.alpha,
            resamples=args.resamples, boot_seed=args.boot_seed,
        )
    else:
        lines, regressions = diff_metrics(
            old, new, rtol=args.rtol, ci_slack=not args.no_ci_slack
        )
    wall_line, wall_regression = diff_wall_time(old, new, args.wall_rtol)
    if wall_regression is not None:
        regressions.append(wall_regression)

    suite = old["suite"]
    print(f"{suite}: {args.old} -> {args.new} (band: {args.band})")
    print(wall_line)
    if lines:
        print(f"  {len(lines)} metric cell(s) drifted:")
        for line in lines:
            print(line)
    else:
        print("  all metric means identical")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond the noise band:",
              file=sys.stderr)
        for line in regressions:
            print(line, file=sys.stderr)
        return 1
    print("ok: within the noise band")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
