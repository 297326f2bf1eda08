"""F1–F3 — trend figures rendered from the experiment sweeps.

The paper contains no figures; these charts are the harness's figure-
style artifacts, regenerated from the same sweeps as the tables:

* **F1** — coalition vs single-node utility over neighborhood size (E1);
* **F2** — protocol messages over node count (E4);
* **F3** — coalition gain over capacity heterogeneity (E7).
"""

from benchmarks.conftest import check_text
from repro.experiments.figures import figure_from_table
from repro.experiments.plan import run_plan
from repro.experiments.suites import SUITE_PLANS


def _table(benchmark, name: str, sweep):
    return benchmark.pedantic(
        lambda: run_plan(SUITE_PLANS[name](sweep), sweep), rounds=1, iterations=1
    )


def test_f1_utility_vs_nodes(benchmark, sweep, tmp_path):
    table = _table(benchmark, "E1", sweep)
    chart = figure_from_table(
        table, "nodes", ["single utility", "coalition utility"],
        title="F1 — utility vs neighborhood size (movie, phone requester)",
        y_label="mean utility",
    )
    check_text(chart.render(), "F1", tmp_path)
    text = chart.render()
    assert "coalition utility" in text and "single utility" in text


def test_f2_messages_vs_nodes(benchmark, sweep, tmp_path):
    table = _table(benchmark, "E4", sweep)
    chart = figure_from_table(
        table, "nodes", ["messages", "proposals"],
        title="F2 — protocol cost vs node count (agent-based)",
        y_label="count",
    )
    check_text(chart.render(), "F2", tmp_path)
    assert "messages" in chart.render()


def test_f3_gain_vs_heterogeneity(benchmark, sweep, tmp_path):
    table = _table(benchmark, "E7", sweep)
    chart = figure_from_table(
        table, "cpu spread", ["solo utility", "coalition utility", "gain"],
        title="F3 — coalition gain vs capacity heterogeneity",
        y_label="utility / gain",
    )
    check_text(chart.render(), "F3", tmp_path)
    assert "gain" in chart.render()
