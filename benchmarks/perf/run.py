"""The perf benchmark: four closed-loop workloads through ``repro``'s API.

Prints every end-to-end metric by name, unit and sample count, checks
every replication against ``golden.json`` (and invariants), and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``::

    python benchmarks/perf/run.py                          # all workloads, 3 repeats
    python benchmarks/perf/run.py --workload e23-crash-256 --seed 7
    python benchmarks/perf/run.py --trace 1 --trace-out spans.jsonl
    python benchmarks/perf/run.py --json a.json            # input for compare.py
    python benchmarks/perf/run.py --write-golden           # regenerate golden.json

Every measurement is a fresh ``harness.py`` process, run one at a time.
With ``--trace 0`` a run also starts four set-up-only processes and
reports the median set-up time of the five. With ``--trace 1`` it
reports the per-layer metrics of a traced pass instead. Repeats are
interleaved across workloads. Nothing is written unless ``--json``,
``--trace-out`` or ``--write-golden`` is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import GOLDEN, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SETUP_PROBES = 4
#: Base seeds whose runs (at the default length) are fully golden-checked:
#: every small base, plus the held-out base 1001.
GOLDEN_BASES = tuple(range(0, 32)) + (1001,)


class WorkerError(RuntimeError):
    pass


def worker(mode: str, workload: str, seeds: Sequence[int], timeout: Optional[float] = None,
           extra: Sequence[str] = ()) -> Dict[str, Any]:
    """Run one harness process to completion; its last stdout line."""
    cmd = [sys.executable, str(HERE / "harness.py"), mode, "--workload", workload,
           "--seeds", ",".join(map(str, seeds)), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {mode}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_workload(name: str, seeds: Sequence[int], traced: bool,
                 trace_out: str) -> Tuple[Dict[str, Tuple[float, int]], Dict[str, Any]]:
    """One measurement of one workload: ``(metrics, gate report)``.

    Metrics map to ``(value, sample count)``.
    """
    if traced:
        extra = ["--trace"] + (["--trace-out", trace_out] if trace_out else [])
        result = worker("measure", name, seeds, timeout=170, extra=extra)
        metrics = {k: (v, len(seeds)) for k, v in result["layers"].items()}
        return metrics, result
    result = worker("measure", name, seeds, timeout=120)
    setups = [result["setup_s"]] + [worker("setup", name, seeds, timeout=20)["setup_s"]
                                     for _ in range(SETUP_PROBES)]
    metrics = {"setup_s": (statistics.median(setups), len(setups))}
    metrics.update({k: tuple(v) for k, v in result["metrics"].items()})
    return metrics, result


def write_golden(seconds: float) -> None:
    golden = {}
    for name, workload in WORKLOADS.items():
        seeds = sorted({s for base in GOLDEN_BASES for s in workload.seeds(base, seconds)})
        print(f"{name}: {len(seeds)} seeds", flush=True)
        golden[name] = worker("golden", name, seeds)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def parse_args(argv: Sequence[str], spec: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed; replication k of a run uses seed + k (default 1)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="nominal length of one measurement (default: run_seconds "
                             "of BENCHMARK.json); fixes the replication count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--repeat", type=int,
                        help="measurements per workload (default 3 for all workloads, "
                             "1 for one)")
    parser.add_argument("--json", metavar="OUT", help="write every measurement here")
    parser.add_argument("--trace-out", metavar="OUT",
                        help="with --trace 1: write the spans here as JSONL")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json for the golden base seeds")
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    if args.repeat is None:
        args.repeat = 1 if args.workload else 3
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    return args


def main(argv: Sequence[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if args.write_golden:
        write_golden(float(spec["run_seconds"]))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace_out:
        args.trace_out = str(Path(args.trace_out).resolve())
        Path(args.trace_out).write_text("")

    runs: List[Dict[str, Any]] = []
    try:
        for repeat in range(args.repeat):
            for name in names:
                seeds = WORKLOADS[name].seeds(args.seed, args.seconds)
                metrics, result = run_workload(name, seeds, bool(args.trace),
                                               args.trace_out or "")
                runs.append({"workload": name, "repeat": repeat, "seeds": list(seeds),
                             "attempted": result["attempted"], "failed": result["failed"],
                             "golden_checked": result["golden_checked"],
                             "metrics": {k: {"value": v, "unit": units[k], "n": n}
                                         for k, (v, n) in metrics.items()}})
                for failure in result["failures"]:
                    print(f"FAIL {name}: {failure}", file=sys.stderr)
                if args.trace:
                    detail = (f", wall {result['untraced_s']:.2f} s untraced, "
                              f"{result['traced_s']:.2f} s traced, spans cover "
                              f"{result['span_coverage']:.2%} of traced")
                else:
                    detail = (f", host factor {result['host_factor']:.3f}, wall "
                              f"{result['raw_replication_s']:.4g} s per replication")
                print(f"# {name} repeat {repeat}: seeds {seeds[0]}..{seeds[-1]}, "
                      f"{result['attempted']} replications, {result['failed']} failed, "
                      f"{result['golden_checked']} golden-checked{detail}", flush=True)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "runs": runs}, indent=1) + "\n")

    summary: Dict[str, Dict[str, Any]] = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        for metric in units:
            values = [r["metrics"][metric]["value"] for r in mine]
            count = sum(r["metrics"][metric]["n"] for r in mine)
            value = statistics.median(values)
            print(f"{name:20s} {metric:44s} {value:14.6g} {units[metric]:10s} "
                  f"n={count}" + (f" (median of {len(values)})" if len(values) > 1 else ""))
            key = metric if len(names) == 1 else f"{name}/{metric}"
            summary[key] = {"value": value, "unit": units[metric]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
