"""Seeded replications: one run, the seed-order summary, and
:func:`replicate`, which runs one callable over a seed list through
:func:`repro.experiments.parallel.run_units`.

Determinism contract
--------------------
Serial and parallel runs produce bit-identical summaries because every
replication is a pure function of its seed: all randomness comes from
the seed's own :class:`~repro.sim.rng.RngRegistry`,
:func:`run_replication` rewinds the process-wide id sequences before
each run, and rows are always consumed in seed order by
:func:`summarize_replications` no matter which worker produced them
first. See ``docs/architecture.md`` for the full data flow of a
replication.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.plan import RunFn, WorkUnit
from repro.metrics.stats import Summary, describe
from repro.sim.sequences import reset_all_sequences


def run_replication(run: RunFn, seed: int) -> Dict[str, float]:
    """Run one replication from a clean process state.

    Rewinds the process-wide id sequences first, so the replication is a
    pure function of its seed — identical no matter what ran before it
    in the process, or in which worker it executes.
    """
    reset_all_sequences()
    return run(seed)


def key_mismatch_error(
    seed: int, row_keys: Iterable[str], expected: Iterable[str]
) -> ValueError:
    """The error raised when a replication returns inconsistent metrics."""
    return ValueError(
        f"replication with seed {seed} returned keys {sorted(row_keys)} "
        f"!= expected {sorted(expected)}"
    )


def summarize_replications(
    rows: Iterable[Dict[str, float]],
    seeds: Sequence[int],
) -> Dict[str, Summary]:
    """Key-check rows in seed order and summarize each metric column.

    Every replication must return the same metric keys; missing keys are
    a configuration bug and raise rather than silently averaging over
    different supports. ``rows`` may be lazy; it is fully materialized
    here. A row count different from the seed count (a reduce plumbing
    bug) also raises rather than silently summarizing a truncated zip.
    """
    checked: List[Dict[str, float]] = []
    keys = None
    rows = list(rows)
    if len(rows) != len(seeds):
        raise ValueError(
            f"got {len(rows)} replication rows for {len(seeds)} seeds"
        )
    for seed, row in zip(seeds, rows):
        if keys is None:
            keys = set(row)
        elif set(row) != keys:
            raise key_mismatch_error(seed, row, keys)
        checked.append(row)
    assert keys is not None, "no seeds provided"
    return {k: describe([r[k] for r in checked]) for k in sorted(keys)}


def replicate(
    run: RunFn,
    seeds: Sequence[int],
    jobs: Optional[int] = 1,
) -> Dict[str, Summary]:
    """Run ``run(seed)`` for every seed and summarize each metric column.

    Args:
        run: Replication callable; must derive all randomness from its
            seed argument (e.g. via an internal ``RngRegistry(seed)``),
            so that it computes the same floats in any process, in any
            order — the precondition for the determinism contract.
        seeds: Seeds to replicate over.
        jobs: Worker processes. ``1`` runs serially in-process;
            ``None``/``0`` use every core (clamped to ``len(seeds)``).

    Determinism contract: for the same ``run`` and ``seeds``, every
    ``jobs`` value yields bit-identical summaries — parallelism changes
    wall time only, never results.
    """
    from repro.experiments.parallel import run_units

    units = [WorkUnit(suite="replicate", point_index=0, seed=seed, run=run)
             for seed in seeds]
    return summarize_replications(
        [result.row for result in run_units(units, jobs)], seeds
    )
