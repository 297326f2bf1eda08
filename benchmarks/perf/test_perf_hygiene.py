"""BENCHMARK.json stays within its limits, and running the benchmark
leaves the tree untouched."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_names_and_limits():
    text = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(text)
    assert len(text.encode()) <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert spec["paths"] == ["benchmarks/perf"]
    assert all(not part.startswith("/") and ".." not in part for part in spec["command"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.layer_metrics())


def _tree() -> dict:
    return {
        p: (p.stat().st_mtime_ns, p.stat().st_size)
        for p in ROOT.rglob("*")
        if p.is_file() and not {".git", "__pycache__", ".pytest_cache"} & set(p.parts)
    }


def test_a_default_run_writes_nothing_and_ends_with_the_result_line():
    before = _tree()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "e18-negotiate-128",
         "--seed", "1", "--seconds", "0.3"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _tree() == before


def test_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "e18-negotiate-128"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
