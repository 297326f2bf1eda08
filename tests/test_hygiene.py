"""Repository hygiene: declared dependencies match the imports, every
tracked Python file compiles with warnings as errors, ``import repro``
stays free of process-pool code, contention runs stay below the
experiment layer, the CLI reference names exactly the declared flags,
and every example runs.

``pyproject.toml`` is parsed by hand — Python 3.10 has no ``tomllib``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Iterable, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")

sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402 - needs the tools/ path above


def _requirements(table: str, key: str) -> Set[str]:
    """Import names of the ``key = [...]`` array in ``[table]``."""
    body = PYPROJECT.split(f"\n[{table}]\n", 1)[1].split("\n[", 1)[0]
    array = re.search(rf"^{re.escape(key)}\s*=\s*\[(.*?)\]", body, re.S | re.M)
    assert array is not None, f"no {key} in [{table}]"
    names = re.findall(r'"\s*([A-Za-z0-9._-]+)', array.group(1))
    return {name.lower().replace("-", "_").replace(".", "_") for name in names}


RUNTIME = _requirements("project", "dependencies")
DEV = _requirements("project.optional-dependencies", "dev")


def _python_files(*dirs: str) -> List[Path]:
    return sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))


def _imported(files: Iterable[Path]) -> Set[str]:
    """Top-level names of every absolute import in ``files``."""
    names: Set[str] = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_library_imports_only_declared_dependencies():
    undeclared = _imported(_python_files("src/repro")) - RUNTIME
    assert not undeclared, f"imported by src/repro but not in [project].dependencies: {undeclared}"


def test_tests_and_tools_import_only_declared_dependencies():
    # The lint rule fixtures are data the linter reads, not code that runs.
    files = [
        p for p in _python_files("tests", "benchmarks", "tools")
        if ROOT / "tests" / "data" not in p.parents
    ]
    first_party = {"tests", "benchmarks", "tools"} | {
        p.stem for p in _python_files("tests", "benchmarks", "tools")
    }
    undeclared = _imported(files) - RUNTIME - DEV - first_party
    assert not undeclared, f"imported but not declared (dependencies + dev): {undeclared}"


def _tracked_python_files() -> List[Path]:
    try:
        out = subprocess.run(
            ["git", "ls-files", "*.py"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return _python_files("src", "tests", "benchmarks", "tools", "examples")
    return [ROOT / line for line in out.splitlines() if line]


def test_tracked_files_compile_with_warnings_as_errors():
    """What ``python -W error`` does on import: an invalid escape
    sequence in a non-raw string is a SyntaxError, not a warning."""
    failures = []
    for path in _tracked_python_files():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_text(encoding="utf-8"), str(path), "exec")
            except SyntaxError as exc:
                failures.append(f"{path.relative_to(ROOT)}: {exc}")
    assert not failures, "\n".join(failures)


def _src_env() -> dict:
    """The environment with this checkout's ``src/`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_import_repro_loads_no_process_pool_code():
    """The experiment executor imports its pool only when a run asks for
    workers, so ``import repro`` — what every program using the library
    pays at start-up — loads no ``multiprocessing`` or
    ``concurrent.futures``."""
    report = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        capture_output=True, text=True, check=True, env=_src_env(),
    ).stderr
    modules = [
        line.rsplit("|", 1)[-1].strip()
        for line in report.splitlines() if line.startswith("import time:")
    ]
    assert "repro" in modules
    pool = [m for m in modules if m.split(".")[0] in ("multiprocessing", "concurrent")]
    assert not pool, f"import repro loads {pool}"


def test_contention_runs_load_no_experiment_layer():
    """The layering ``repro.workloads`` and ``repro.shard`` promise:
    importing ``repro`` and running a contention scenario, sharded or
    not, loads no ``repro.experiments`` module."""
    script = (
        "import sys, repro\n"
        "config = repro.ContentionConfig(n_requesters=1, horizon=60.0, n_nodes=6)\n"
        "repro.run_contention(1, config)\n"
        "repro.run_sharded_contention(1, config)\n"
        "print([m for m in sys.modules if m.startswith('repro.experiments')])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env=_src_env(),
    ).stdout
    assert out.strip() == "[]", f"contention runs load {out.strip()}"


def test_cli_doc_mentions_only_declared_flags(tmp_path, monkeypatch):
    """Every ``--option`` in docs/cli.md is declared by a checked CLI, so
    a deleted flag cannot linger in the reference."""
    assert check_docs.check_cli_flags() == []
    doc = tmp_path / "cli.md"
    doc.write_text(check_docs.CLI_DOC.read_text() + "\n`--no-such-flag`\n")
    monkeypatch.setattr(check_docs, "CLI_DOC", doc)
    problems = check_docs.check_cli_flags()
    assert len(problems) == 1 and "'--no-such-flag'" in problems[0], problems


@pytest.mark.parametrize(
    "example", sorted(p.stem for p in (ROOT / "examples").glob("*.py"))
)
def test_example_runs(example, tmp_path):
    """Each example runs to completion against the library and prints
    its report, so a removed or renamed public parameter cannot break
    one unnoticed."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        capture_output=True, text=True, cwd=tmp_path, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
