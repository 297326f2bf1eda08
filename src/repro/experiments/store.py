"""JSON bench reports for experiment runs.

Every suite invocation produces a :class:`RunRecord` — the sweep config,
seeds, wall time, and the full result table with per-metric summaries —
which :class:`ResultsStore` writes as ``<root>/BENCH_<suite>.json``: the
latest machine-readable report per suite, the artifact CI uploads and
``tools/bench_diff.py`` diffs.

Records round-trip losslessly (``write_bench`` → ``load_bench`` →
``compare`` reports *identical*). :meth:`ResultsStore.compare` is the
one results comparison, and it is exact: the serial-vs-parallel
determinism check, the benchmarks' check against the committed
snapshots and ``tools/bench_diff.py`` all use it. Tables are
reduced in unit order whatever order the units completed in, so only
``wall_time_s`` reflects scheduling: it spans the suite's first unit
starting → its last unit completing, and since suites in a ``jobs > 1``
batch share the pool and interleave, those spans overlap rather than
add up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.experiments.config import SweepConfig
from repro.experiments.reporting import Table
from repro.metrics.stats import Summary

#: Default results root, relative to the *current working directory*
#: (run the CLI from the repo root — or pass ``--out`` — so artifacts
#: land in the checkout's ``benchmarks/results/``).
DEFAULT_ROOT = Path("benchmarks") / "results"

#: Schema version stamped into every bench report. Version 2 added
#: per-seed ``samples`` and the percentile-bootstrap ``boot_lo`` /
#: ``boot_hi`` fields to every summary cell (see
#: :mod:`repro.metrics.bootstrap`); version-1 records still load, their
#: summaries just carry ``None`` for the new fields.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunRecord:
    """One suite invocation: config, timing, and the result table.

    ``wall_time_s`` spans the suite's first work unit starting → its
    last unit completing. Serially that is exactly the suite's own
    duration; in a shared-pool batch
    (:func:`repro.experiments.parallel.run_batch`) suites execute
    interleaved, so spans overlap across suites. Timing is *excluded*
    from :meth:`ResultsStore.compare`, which only judges results.
    """

    suite: str
    run_id: str
    timestamp: str
    seeds: Tuple[int, ...]
    quick: bool
    jobs: int
    wall_time_s: float
    table: Table

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "seeds": list(self.seeds),
            "quick": self.quick,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time_s,
            "table": self.table.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            suite=data["suite"],
            run_id=data["run_id"],
            timestamp=data["timestamp"],
            seeds=tuple(int(s) for s in data["seeds"]),
            quick=bool(data["quick"]),
            jobs=int(data["jobs"]),
            wall_time_s=float(data["wall_time_s"]),
            table=Table.from_dict(data["table"]),
        )


def new_run_record(
    suite: str,
    table: Table,
    sweep: SweepConfig,
    wall_time_s: float,
) -> RunRecord:
    """Stamp a freshly produced table into a persistable record."""
    now = datetime.now(timezone.utc)
    return RunRecord(
        suite=suite,
        run_id=f"{suite}-{now.strftime('%Y%m%dT%H%M%S%f')}",
        timestamp=now.isoformat(),
        seeds=tuple(sweep.effective_seeds),
        quick=sweep.quick,
        jobs=sweep.jobs,
        wall_time_s=wall_time_s,
        table=table,
    )


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two run records' results."""

    identical: bool
    differences: Tuple[str, ...]


class ResultsStore:
    """Directory of ``BENCH_<suite>.json`` reports.

    The store is the determinism contract's referee: ``BENCH_<suite>.json``
    written by a ``--jobs N`` run must load back equal (per
    :meth:`compare`) to the one written by a serial run, which CI
    asserts on every push.

    Args:
        root: Results directory (created on first write). Defaults to
            ``benchmarks/results`` relative to the current directory.
    """

    def __init__(self, root: Union[Path, str] = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    # -- bench reports ------------------------------------------------------

    def bench_path(self, suite: str) -> Path:
        return self.root / f"BENCH_{suite}.json"

    def write_bench(self, record: RunRecord) -> Path:
        """Write/overwrite the suite's ``BENCH_<suite>.json`` report."""
        path = self.bench_path(record.suite)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
        return path

    def load_bench(self, suite: str) -> RunRecord:
        """Load the suite's latest bench report."""
        return RunRecord.from_dict(json.loads(self.bench_path(suite).read_text()))

    # -- comparison ---------------------------------------------------------

    @staticmethod
    def compare(a: RunRecord, b: RunRecord) -> Comparison:
        """Compare two records' *results*, ignoring timing and identity.

        Two runs are identical when they cover the same suite, seeds,
        and sweep points with exactly equal cells, per-seed samples
        included — the criterion for the parallel-vs-serial determinism
        guarantee and for every committed snapshot. Wall time, run id,
        timestamp, and job count may differ. Each difference names its
        row and column; for two summaries it names each seed whose
        sample moved (see :func:`_summary_difference`).
        """
        diffs: List[str] = []
        if a.suite != b.suite:
            diffs.append(f"suite: {a.suite!r} != {b.suite!r}")
        if a.seeds != b.seeds:
            diffs.append(f"seeds: {a.seeds} != {b.seeds}")
        ta, tb = a.table, b.table
        if ta.columns != tb.columns:
            diffs.append(f"columns: {ta.columns} != {tb.columns}")
        if len(ta.rows) != len(tb.rows):
            diffs.append(f"row count: {len(ta.rows)} != {len(tb.rows)}")
        if not diffs:
            for i, (row_a, row_b) in enumerate(zip(ta.rows, tb.rows)):
                for column, cell_a, cell_b in zip(ta.columns, row_a, row_b):
                    if cell_a == cell_b:
                        continue
                    if isinstance(cell_a, Summary) and isinstance(cell_b, Summary):
                        what = _summary_difference(cell_a, cell_b, a.seeds)
                    else:
                        what = f"{cell_a} != {cell_b}"
                    diffs.append(f"row {i} [{column}]: {what}")
        return Comparison(identical=not diffs, differences=tuple(diffs))


def _summary_difference(
    a: Summary, b: Summary, seeds: Tuple[int, ...]
) -> str:
    """What differs between two unequal summaries of the same seeds.

    Names each seed whose per-seed sample moved, with both values; when
    the samples agree (or cannot be paired with the seeds), the first
    differing field instead. A mean-preserving change, such as two
    seeds swapping values, is therefore still named.
    """
    if (
        a.samples is not None
        and b.samples is not None
        and a.samples != b.samples
        and len(a.samples) == len(b.samples) == len(seeds)
    ):
        return "; ".join(
            f"seed {seed}: {x!r} != {y!r}"
            for seed, x, y in zip(seeds, a.samples, b.samples)
            if x != y
        )
    name = next(
        f.name for f in fields(Summary) if getattr(a, f.name) != getattr(b, f.name)
    )
    return f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}"
