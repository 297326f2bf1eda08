"""Command-line experiment runner.

Usage::

    python -m repro.experiments                      # every suite (full sweep)
    python -m repro.experiments E1 E3 E9             # run selected suites
    python -m repro.experiments --quick --jobs 4 E5  # parallel smoke sweep
    python -m repro.experiments --list               # list available suites
    python -m repro.experiments --list-scenarios     # named contention scenarios
    python -m repro.experiments --scenario streaming-mix   # one named scenario

Each suite's table prints to stdout (or one JSON report with ``--json``),
and every invocation persists a run record plus a machine-readable
``BENCH_<suite>.json`` report under ``--out`` (default
``benchmarks/results/``, disable with ``--no-save``); exit code 0 on
success.

``--jobs N`` feeds every ``(suite, sweep point, seed)`` work unit of the
whole invocation to one shared fork-based pool
(:class:`~repro.experiments.parallel.Scheduler`), so workers stay busy
across sweep points and suites — and results stay bit-identical to
``--jobs 1``. The full flag reference lives in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments.config import SweepConfig
from repro.experiments.parallel import run_batch
from repro.experiments.store import DEFAULT_ROOT, ResultsStore, RunRecord
from repro.experiments.suites import SUITE_PLANS


def _suite_span() -> str:
    """``"E1–EN"``, computed from :data:`SUITE_PLANS` so the CLI's
    self-description can never drift when suites are added."""
    ids = list(SUITE_PLANS)
    return f"{ids[0]}–{ids[-1]}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=f"Run the {_suite_span()} evaluation suites "
                    f"({len(SUITE_PLANS)} suites).",
    )
    parser.add_argument(
        "suites", nargs="*", metavar="ID",
        help=f"experiment ids to run ({_suite_span()}; default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrunken sweeps and fewer seeds (smoke mode)",
    )
    parser.add_argument(
        "--seeds", type=int, default=8,
        help="number of replication seeds (default 8)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the shared (suite, sweep point, seed) "
             "work-unit pool (1 = serial, 0 or less = all cores, clamped "
             "to the pending unit count); results are bit-identical to "
             "serial",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_ROOT), metavar="DIR",
        help=f"results directory for run records and BENCH_<suite>.json "
             f"reports (default {DEFAULT_ROOT})",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print one JSON report to stdout instead of tables",
    )
    parser.add_argument(
        "--no-save", action="store_true",
        help="do not persist run records or bench reports",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available suite ids and exit"
    )
    parser.add_argument(
        "--list-scenarios", action="store_true",
        help="list the named contention scenarios of the workload registry "
             "(repro.workloads.registry) and exit",
    )
    parser.add_argument(
        "--scenario", metavar="NAME",
        help="run one named contention scenario over the replication "
             "seeds and print its summarized metrics (instead of suites)",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(f"{len(SUITE_PLANS)} suites ({_suite_span()}):")
        for name, builder in SUITE_PLANS.items():
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"{name:>4}  {doc}")
        return 0

    if args.list_scenarios:
        from repro.workloads.registry import list_scenarios

        scenarios = list_scenarios()
        print(f"{len(scenarios)} scenarios:")
        for spec in scenarios:
            print(f"{spec.name:>18}  {spec.description}")
        return 0

    if args.scenario is not None:
        from repro.experiments.runner import summarize_replications
        from repro.workloads.registry import get_scenario

        if args.seeds < 1:
            print("--seeds must be at least 1", file=sys.stderr)
            return 2
        try:
            spec = get_scenario(args.scenario)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        seeds = tuple(range(1, args.seeds + 1))
        summary = summarize_replications(
            (spec.metrics_run(seed) for seed in seeds), seeds
        )
        print(f"{spec.name}: {spec.description}")
        print(f"({len(seeds)} seeds)")
        width = max(len(k) for k in summary)
        for key, stat in summary.items():
            print(f"{key:>{width}}  {stat.mean:.3f}±{stat.std:.3f}")
        return 0

    names = args.suites or list(SUITE_PLANS)
    unknown = [n for n in names if n not in SUITE_PLANS]
    if unknown:
        print(f"unknown suite id(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(SUITE_PLANS)}", file=sys.stderr)
        return 2
    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2

    sweep = SweepConfig(
        seeds=tuple(range(1, args.seeds + 1)),
        quick=args.quick,
        jobs=args.jobs,
    )
    store = None if args.no_save else ResultsStore(args.out)

    def echo(record: RunRecord) -> None:
        if args.json:
            return
        print(record.table.render())
        status = f"[{record.suite}: {record.wall_time_s:.2f}s wall, " \
                 f"jobs={record.jobs}"
        if store is not None:
            status += f", bench → {store.bench_path(record.suite)}"
        print(status + "]")
        print()

    records = run_batch(names, sweep, store=store, echo=echo)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
