"""Shared benchmark fixtures.

Every experiment benchmark runs its E-suite once (rounds=1 — these are
simulation experiments, not micro-benchmarks), prints the result table,
and checks it against the archived copy under ``benchmarks/results/``
(the artifacts EXPERIMENTS.md is rebuilt from). Nothing is written
there: on a mismatch the fresh text lands under pytest's ``tmp_path``
and the assertion names the file — copy it over the archive when a
table is meant to change. Wall-clock columns (header matching
``(wall)``, like ``tools/bench_diff.py --wall-columns``) vary from run
to run and are left out of the comparison.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.plan import run_plan
from repro.experiments.reporting import Table
from repro.experiments.suites import SUITE_PLANS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Headers of machine-dependent columns (``tools/bench_diff.py``'s
#: default ``--wall-columns``).
WALL_COLUMNS = re.compile(r"\(wall\)")


@pytest.fixture(scope="session")
def sweep() -> SweepConfig:
    """Full sweep settings for the experiment benchmarks."""
    return SweepConfig(seeds=(1, 2, 3, 4, 5, 6, 7, 8))


def _without_wall_columns(text: str) -> str:
    """A rendered :class:`Table` minus its wall-clock columns.

    ``Table.render`` lays out a title, an ``=`` rule as wide as the
    title or header, the ``" | "``-joined header, the ``"-+-"`` rule,
    the rows, then a blank line and the caption. Dropping a column
    changes the header width, so the ``=`` rule is dropped too. Text
    of any other shape (the F-figure charts) passes through unchanged.
    """
    lines = text.split("\n")
    if len(lines) < 4 or not lines[3] or set(lines[3]) - set("-+"):
        return text
    wall = {
        i for i, name in enumerate(lines[2].split(" | "))
        if WALL_COLUMNS.search(name)
    }
    if not wall:
        return text
    out = [lines[0]]
    for i, line in enumerate(lines[2:], start=2):
        if not line:
            out += lines[i:]
            break
        sep = "-+-" if i == 3 else " | "
        out.append(sep.join(c for j, c in enumerate(line.split(sep)) if j not in wall))
    return "\n".join(out)


def check_archived(text: str, name: str, tmp_path: pathlib.Path) -> None:
    """Print ``text`` and assert it equals ``benchmarks/results/<name>.txt``
    outside wall-clock columns."""
    print("\n" + text)
    archived = RESULTS_DIR / f"{name}.txt"
    fresh = text + "\n"
    if _without_wall_columns(fresh) != _without_wall_columns(archived.read_text()):
        out = tmp_path / f"{name}.txt"
        out.write_text(fresh)
        raise AssertionError(f"{name} differs from {archived}; fresh table: {out}")


def run_suite(benchmark, name: str, sweep: SweepConfig, tmp_path: pathlib.Path) -> Table:
    """Run suite ``name`` under the benchmark harness and check its table
    against the archived copy."""
    table = benchmark.pedantic(
        lambda: run_plan(SUITE_PLANS[name](sweep), sweep), rounds=1, iterations=1
    )
    check_archived(table.render(), name, tmp_path)
    return table
