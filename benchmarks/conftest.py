"""Shared benchmark fixtures.

Every experiment benchmark runs its E-suite once (rounds=1 — these are
simulation experiments, not micro-benchmarks), prints the result table,
and checks it against the archived copy under ``benchmarks/results/``
(the artifacts EXPERIMENTS.md is rebuilt from). Nothing is written
there: on a mismatch the fresh text lands under pytest's ``tmp_path``
and the assertion names the file — copy it over the archive when a
table is meant to change. Every table is a pure function of its seeds,
so the comparison is exact text equality.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.plan import run_plan
from repro.experiments.reporting import Table
from repro.experiments.suites import SUITE_PLANS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def sweep() -> SweepConfig:
    """Full sweep settings for the experiment benchmarks."""
    return SweepConfig(seeds=(1, 2, 3, 4, 5, 6, 7, 8))


def check_archived(text: str, name: str, tmp_path: pathlib.Path) -> None:
    """Print ``text`` and assert it equals ``benchmarks/results/<name>.txt``."""
    print("\n" + text)
    archived = RESULTS_DIR / f"{name}.txt"
    fresh = text + "\n"
    if fresh != archived.read_text():
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
