"""Tests for :mod:`repro.analysis` — the determinism & contract linter.

Fixture files live under ``tests/data/lint/``: one known-violation and
one known-clean module per rule. The tests drive the rules through
:class:`~repro.analysis.ModuleContext` (so package-scoped rules can be
pinned to simulated module names), the engine's suppression and
baseline plumbing, the JSON reporter schema, and the ``lint_repro``
CLI end to end — including the acceptance gate that the repo's own
``src/repro`` tree is clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisEngine,
    Baseline,
    ModuleContext,
    default_rules,
    fingerprint,
    render_json,
    render_text,
    select_rules,
)
from repro.analysis.engine import SUPPRESSION_RULE_ID
from repro.analysis.rules import (
    BlanketExceptRule,
    EpochMutationRule,
    UnboundedRetryRule,
    UnorderedIterationRule,
    UnseededRngRule,
    WallClockRule,
    module_name_of,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "data" / "lint"
LINT_CLI = REPO / "tools" / "lint_repro.py"

#: Fixture stem → (rule instance, module name to lint it under).
#: R2 is package-scoped, so its fixtures masquerade as repro.sim files.
RULE_FIXTURES = {
    "r1": (UnseededRngRule(), None),
    "r2": (WallClockRule(), "repro.sim.fixture"),
    "r3": (UnorderedIterationRule(), None),
    "r4": (BlanketExceptRule(), None),
    "r6": (EpochMutationRule(), None),
    "r7": (UnboundedRetryRule(), None),
}


def load_fixture(name: str, module: str | None = None) -> ModuleContext:
    path = FIXTURES / f"{name}.py"
    return ModuleContext(path.read_text(), f"tests/data/lint/{name}.py", module=module)


def run_rule(rule, name: str, module: str | None = None):
    return list(rule.check(load_fixture(name, module)))


# -- one violation + one clean fixture per rule ------------------------------


@pytest.mark.parametrize("stem", sorted(RULE_FIXTURES))
def test_violation_fixture_flags(stem):
    rule, module = RULE_FIXTURES[stem]
    findings = run_rule(rule, f"{stem}_violation", module)
    assert findings, f"{stem}_violation.py should produce {rule.id} findings"
    assert all(f.rule == rule.id for f in findings)
    assert all(f.line > 0 and f.snippet for f in findings)


@pytest.mark.parametrize("stem", sorted(RULE_FIXTURES))
def test_clean_fixture_passes(stem):
    rule, module = RULE_FIXTURES[stem]
    assert run_rule(rule, f"{stem}_clean", module) == []


# -- per-rule specifics ------------------------------------------------------


def test_r1_counts_each_unseeded_draw():
    findings = run_rule(UnseededRngRule(), "r1_violation")
    # random.random, np.random.choice, bare default_rng
    assert len(findings) == 3
    assert any("default_rng" in f.message for f in findings)


def test_r2_is_package_scoped():
    """R2 covers every ``repro`` module, suites included; only the
    executor's unit timing and the report timestamp may read the host
    clock, and files outside the package are not checked."""
    rule = WallClockRule()
    for module in (
        "repro.workloads.x",
        "repro.faults.x",
        "repro.network.x",
        "repro.experiments.suites",
    ):
        assert run_rule(rule, "r2_violation", module), module
    for module in ("repro.experiments.parallel", "repro.experiments.store", None):
        assert run_rule(rule, "r2_violation", module) == [], module


def test_r3_flags_keys_and_sets_distinctly():
    findings = run_rule(UnorderedIterationRule(), "r3_violation")
    assert len(findings) == 4
    assert sum(".keys()" in f.message for f in findings) == 1


def test_r4_ignores_base_exception_relays():
    findings = run_rule(BlanketExceptRule(), "r4_violation")
    assert len(findings) == 2
    assert any("bare except" in f.message for f in findings)


def test_r6_flags_direct_and_aliased_stores():
    findings = run_rule(EpochMutationRule(), "r6_violation")
    assert len(findings) == 2
    assert {f.context for f in findings} == {
        "MiniTopology.sneak_move",
        "MiniTopology.sneak_alias",
    }


def test_r7_flags_each_unbounded_loop_and_names_the_call():
    findings = run_rule(UnboundedRetryRule(), "r7_violation")
    assert len(findings) == 2
    assert {f.context for f in findings} == {"pump", "insist"}
    assert any("transmit()" in f.message for f in findings)
    assert any("negotiate()" in f.message for f in findings)


# -- suppressions ------------------------------------------------------------

SUPPRESSED_SAME_LINE = """
def f(items):
    for x in set(items):  # repro: allow[R3] feeds an order-free sum
        yield x
"""

SUPPRESSED_BY_NAME_ABOVE = """
def f(items):
    # repro: allow[unordered-iteration] order-free consumer
    for x in set(items):
        yield x
"""

SUPPRESSION_WITHOUT_REASON = """
def f(items):
    for x in set(items):  # repro: allow[R3]
        yield x
"""

SUPPRESSION_WRONG_RULE = """
def f(items):
    for x in set(items):  # repro: allow[R4] not the right rule
        yield x
"""


def _engine():
    return AnalysisEngine(default_rules(), REPO)


def _analyze_source(source: str):
    module = ModuleContext(source, "synthetic.py")
    return _engine().analyze_modules([module])


def test_suppression_on_the_flagged_line():
    report = _analyze_source(SUPPRESSED_SAME_LINE)
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "R3"


def test_suppression_standalone_line_above_by_rule_name():
    report = _analyze_source(SUPPRESSED_BY_NAME_ABOVE)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_suppression_without_reason_suppresses_nothing():
    report = _analyze_source(SUPPRESSION_WITHOUT_REASON)
    rules = {f.rule for f in report.findings}
    assert "R3" in rules  # the violation still fails
    assert SUPPRESSION_RULE_ID in rules  # and the broken allow is reported


def test_suppression_for_other_rule_does_not_apply():
    report = _analyze_source(SUPPRESSION_WRONG_RULE)
    assert [f.rule for f in report.findings] == ["R3"]
    assert report.suppressed == []


# -- baseline ----------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    module = load_fixture("r4_violation")
    engine = _engine()
    before = engine.analyze_modules([module])
    assert before.findings

    baseline = Baseline.from_findings(before.findings)
    path = tmp_path / "baseline.json"
    baseline.save(path)
    reloaded = Baseline.load(path)
    assert len(reloaded.entries) == len(before.findings)

    after = engine.analyze_modules([module], baseline=reloaded)
    assert after.clean
    assert len(after.baselined) == len(before.findings)
    assert after.stale_baseline == []


def test_baseline_is_a_multiset_and_reports_stale(tmp_path):
    source = "def f(a):\n    for x in set(a):\n        yield x\n"
    module = ModuleContext(source, "m.py")
    engine = AnalysisEngine([UnorderedIterationRule()], REPO)
    baseline = Baseline.from_findings(engine.analyze_modules([module]).findings)

    # A second identical violation in the same scope exceeds the budget.
    doubled = ModuleContext(
        "def f(a):\n    for x in set(a):\n        yield x\n"
        "    for x in set(a):\n        yield x\n",
        "m.py",
    )
    report = engine.analyze_modules([doubled], baseline=baseline)
    assert len(report.baselined) == 1
    assert len(report.findings) == 1

    # Fixing the violation leaves the entry stale (reported, not failing).
    fixed = ModuleContext("def f(a):\n    return sorted(set(a))\n", "m.py")
    report = engine.analyze_modules([fixed], baseline=baseline)
    assert report.clean
    assert len(report.stale_baseline) == 1


def test_baseline_fingerprint_ignores_line_numbers():
    module_a = load_fixture("r4_violation")
    shifted = ModuleContext(
        "\n\n\n" + module_a.source, "tests/data/lint/r4_violation.py"
    )
    rule = BlanketExceptRule()
    original = [fingerprint(f) for f in rule.check(module_a)]
    moved = [fingerprint(f) for f in rule.check(shifted)]
    assert original == moved


def test_baseline_update_keeps_human_reasons(tmp_path):
    module = load_fixture("r4_violation")
    findings = _engine().analyze_modules([module]).findings
    first = Baseline.from_findings(findings)
    first.entries[0].reason = "carefully reviewed: tolerated on purpose"
    regenerated = Baseline.from_findings(findings)
    regenerated.merge_reasons(first)
    assert regenerated.entries[0].reason == "carefully reviewed: tolerated on purpose"


# -- reporters ---------------------------------------------------------------


def test_json_report_schema():
    module = load_fixture("r3_violation")
    rules = default_rules()
    report = AnalysisEngine(rules, REPO).analyze_modules([module])
    document = json.loads(render_json(report, rules))

    assert document["version"] == 1
    assert set(document) == {
        "version", "rules", "findings", "suppressed", "baselined",
        "stale_baseline", "summary",
    }
    assert set(document["rules"]) == {"R1", "R2", "R3", "R4", "R6", "R7"}
    for meta in document["rules"].values():
        assert set(meta) == {"name", "rationale"}
    for finding in document["findings"]:
        assert set(finding) == {
            "rule", "name", "path", "line", "col", "message", "context",
            "snippet", "fingerprint",
        }
        assert len(finding["fingerprint"]) == 16
    summary = document["summary"]
    assert summary["findings"] == len(document["findings"]) > 0
    assert summary["clean"] is False
    assert summary["files_checked"] == 1


def test_text_report_mentions_location_and_counts():
    module = load_fixture("r4_violation")
    report = _engine().analyze_modules([module])
    text = render_text(report)
    assert "tests/data/lint/r4_violation.py" in text
    assert "R4[blanket-except]" in text
    assert text.strip().endswith("across 1 file(s)")


# -- rule selection ----------------------------------------------------------


def test_select_rules_by_id_and_name():
    assert [r.id for r in select_rules(["R1", "R4"])] == ["R1", "R4"]
    assert [r.id for r in select_rules(["unordered-iteration"])] == ["R3"]
    with pytest.raises(ValueError, match="unknown rule"):
        select_rules(["R99"])


def test_module_name_of_layout():
    assert module_name_of("src/repro/sim/engine.py") == "repro.sim.engine"
    assert module_name_of("src/repro/analysis/__init__.py") == "repro.analysis"
    assert module_name_of("tools/lint_repro.py") is None
    assert module_name_of("tests/test_analysis.py") is None


# -- the CLI, end to end -----------------------------------------------------


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, str(LINT_CLI), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rid in ("R1", "R2", "R3", "R4", "R6", "R7"):
        assert rid in proc.stdout
    # R5 is retired; its id is not reused.
    assert "R5" not in proc.stdout


def test_cli_flags_fixture_violations():
    proc = run_cli("--paths", "tests/data/lint", "--baseline", "/nonexistent.json")
    assert proc.returncode == 1
    assert "R1[unseeded-rng]" in proc.stdout
    assert "R4[blanket-except]" in proc.stdout


def test_cli_rules_subset_and_json(tmp_path):
    proc = run_cli(
        "--paths", "tests/data/lint", "--rules", "R4",
        "--baseline", str(tmp_path / "none.json"), "--json",
    )
    assert proc.returncode == 1
    document = json.loads(proc.stdout)
    assert {f["rule"] for f in document["findings"]} == {"R4"}
    assert set(document["rules"]) == {"R4"}


def test_cli_unknown_rule_exits_2():
    proc = run_cli("--rules", "R99")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_missing_path_exits_2():
    proc = run_cli("--paths", "no/such/dir")
    assert proc.returncode == 2


def test_cli_update_baseline_then_clean(tmp_path):
    baseline = tmp_path / "baseline.json"
    update = run_cli(
        "--paths", "tests/data/lint/r4_violation.py",
        "--baseline", str(baseline), "--update-baseline",
    )
    assert update.returncode == 0
    assert baseline.is_file()
    data = json.loads(baseline.read_text())
    assert data["version"] == 1
    assert all(entry["reason"] for entry in data["entries"])

    gated = run_cli(
        "--paths", "tests/data/lint/r4_violation.py", "--baseline", str(baseline)
    )
    assert gated.returncode == 0, gated.stdout


def test_repo_tree_is_lint_clean():
    """The acceptance gate: src/repro passes with zero new findings."""
    proc = run_cli()
    assert proc.returncode == 0, f"lint_repro found new violations:\n{proc.stdout}"
