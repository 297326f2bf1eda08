"""Smoke tests for the experiment harness and every E-suite."""

from __future__ import annotations

import pytest

from repro.experiments.config import ClusterConfig, SweepConfig
from repro.experiments.reporting import Table
from repro.experiments.runner import replicate
from repro.experiments.scenario import (
    build_agent_system,
    build_cluster,
    mixed_fleet,
    uniform_fleet,
)
from repro.experiments.plan import run_plan
from repro.experiments.suites import SUITE_PLANS
from repro.metrics.stats import Summary
from repro.sim.rng import RngRegistry

QUICK = SweepConfig(seeds=(1, 2), quick=True)


def _run(name: str) -> Table:
    return run_plan(SUITE_PLANS[name](QUICK), QUICK)


# -- reporting ----------------------------------------------------------------


def test_table_rendering_and_columns():
    t = Table("T", ["a", "b"], caption="cap")
    t.add_row(1, 2.5)
    t.add_row("x", Summary(1.0, 0.1, 0.05, 4, 0.9, 1.1))
    text = t.render()
    assert "T" in text and "cap" in text and "1.000±0.050" in text
    assert t.column("a") == [1, "x"]
    with pytest.raises(KeyError):
        t.column("ghost")
    with pytest.raises(ValueError):
        t.add_row(1)
    with pytest.raises(ValueError):
        Table("T", [])


# -- runner ----------------------------------------------------------------


def test_replicate_aggregates():
    out = replicate(lambda seed: {"x": float(seed)}, seeds=(1, 2, 3))
    assert out["x"].mean == pytest.approx(2.0)


def test_replicate_rejects_inconsistent_keys():
    def run(seed):
        return {"x": 1.0} if seed == 1 else {"y": 1.0}

    with pytest.raises(ValueError):
        replicate(run, seeds=(1, 2))


# -- scenarios ----------------------------------------------------------------


def test_mixed_fleet_composition():
    rng = RngRegistry(1).stream("f")
    nodes = mixed_fleet(ClusterConfig(n_nodes=10), rng)
    assert len(nodes) == 10
    assert nodes[0].node_id == "requester"
    from repro.resources.node import NodeClass

    assert nodes[0].node_class is NodeClass.PHONE


def test_build_cluster_is_seed_deterministic():
    a = build_cluster(ClusterConfig(n_nodes=6), seed=9)
    b = build_cluster(ClusterConfig(n_nodes=6), seed=9)
    assert [n.position for n in a[2]] == [n.position for n in b[2]]
    c = build_cluster(ClusterConfig(n_nodes=6), seed=10)
    assert [n.position for n in a[2]] != [n.position for n in c[2]]


def test_uniform_fleet_spread():
    from repro.resources.kinds import ResourceKind

    rng = RngRegistry(1).stream("f")
    homogeneous = uniform_fleet(5, cpu_mean=200.0, cpu_spread=0.0, rng=rng)
    cpus = [n.capacity.get(ResourceKind.CPU) for n in homogeneous]
    assert all(abs(c - 200.0) < 1e-6 for c in cpus)
    spread = uniform_fleet(20, cpu_mean=200.0, cpu_spread=0.5,
                           rng=RngRegistry(2).stream("f"))
    cpus2 = [n.capacity.get(ResourceKind.CPU) for n in spread]
    assert min(cpus2) < 180.0 < 220.0 < max(cpus2)
    with pytest.raises(ValueError):
        uniform_fleet(3, 200.0, 2.0, rng)


def test_build_agent_system():
    system = build_agent_system(ClusterConfig(n_nodes=5), seed=3)
    assert len(system.nodes) == 5


# -- suites (quick smoke + shape assertions) ---------------------------------


@pytest.mark.parametrize("name", sorted(SUITE_PLANS))
def test_suite_runs_and_returns_table(name):
    table = _run(name)
    assert isinstance(table, Table)
    assert len(table.rows) >= 2
    assert table.render()  # renders without error


def test_e1_shape_coalition_beats_single():
    table = _run("E1")
    singles = [s.mean for s in table.column("single success")]
    coals = [s.mean for s in table.column("coalition success")]
    # The weak requester alone never serves the movie; coalitions do.
    assert max(singles) == 0.0
    assert min(coals) > 0.5


def test_e2_shape_zero_regret():
    table = _run("E2")
    regrets = [s.mean for s in table.column("regret vs best")]
    assert all(r == pytest.approx(0.0) for r in regrets)


def test_e3_shape_paper_heuristic_wins():
    table = _run("E3")
    rows = table.rows
    # Under load (fraction < 1) the paper strategy retains >= reward.
    for row in rows[1:]:
        paper, random_ = row[1].mean, row[2].mean
        assert paper >= random_ - 1e-9


def test_e9_shape_positional_weights_protect_top_dim():
    table = _run("E9")
    by_scheme = {row[0]: row[1].mean for row in table.rows}
    assert by_scheme["linear (paper)"] == pytest.approx(100.0)
    assert by_scheme["geometric"] == pytest.approx(100.0)
    assert by_scheme["uniform"] == pytest.approx(0.0)
