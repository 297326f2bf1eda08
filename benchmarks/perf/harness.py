"""The perf benchmark's workloads, and the worker process that runs one.

``run.py`` starts this file as a fresh process for every measurement,
one at a time, so each process pays its own imports and the set-up
time is a real cold start::

    python benchmarks/perf/harness.py measure --workload W --seeds 1,2 [--trace]
    python benchmarks/perf/harness.py setup   --workload W --seeds 1,2
    python benchmarks/perf/harness.py golden  --workload W --seeds 1,2

The last line of standard output is one JSON object. ``repro`` is
imported only after the set-up clock starts, and the program receives
only the generated configuration and the replication seed. Times are
reported in reference seconds (see :class:`HostSpeed`).
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"


#: A measurement starts no replication that would end later than this
#: many times its replications' nominal time, so that a run on a much
#: slower host stays within the benchmark's time limit.
DEADLINE_FACTOR = 1.4


class Replication(NamedTuple):
    sessions: int
    """Offered sessions (one per negotiation on the agent path)."""
    row: Dict[str, Any]
    """The deterministic result row compared against ``golden.json``."""
    problems: List[str]
    """Invariant violations found in the result."""


class Workload:
    """One closed-loop workload: replications run back to back, each
    starting when the previous one returns."""

    name: str
    nominal_s: float
    """Wall seconds of one replication on the reference machine at its
    usual load. A run of ``--seconds T`` measures ``round(T / nominal_s)``
    seeds, a count that depends on ``T`` only, so the parent and a
    change measure identical inputs."""
    latency_target: str
    """The call timed as one negotiation (see :mod:`spans`)."""

    def seeds(self, base: int, seconds: float) -> Tuple[int, ...]:
        count = max(1, int(seconds / self.nominal_s + 0.5))
        return tuple(range(base, base + count))

    def prepare(self, seeds: Sequence[int]) -> Any:
        """Build the inputs of every replication (counted as set-up)."""
        raise NotImplementedError

    def replicate(self, inputs: Any, seed: int) -> Replication:
        raise NotImplementedError


class AgentNegotiation(Workload):
    """E18's 128-node point: the only workload on the message-passing path."""

    name = "e18-negotiate-128"
    nominal_s = 0.25
    latency_target = "repro.agents.system:AgentSystem.negotiate"

    def prepare(self, seeds):
        import repro.experiments

        return repro.experiments.ClusterConfig(n_nodes=128, area=100.0)

    def replicate(self, config, seed):
        import repro
        import repro.experiments

        system = repro.experiments.build_agent_system(config, seed, reliable_channel=True)
        service = repro.workload.movie_playback_service(requester="requester")
        start = system.engine.now
        outcome = system.negotiate(service)
        if outcome is None:
            return Replication(1, {}, ["negotiation never completed"])
        awards = {tid: a.node_id for tid, a in sorted(outcome.coalition.awards.items())}
        row = {
            "messages": float(system.network.sent_count),
            "time": system.engine.now - start,
            "success": float(outcome.success),
            "proposals": float(outcome.proposals_received),
            "awards": awards,
        }
        problems = []
        if not row["time"] > 0.0:
            problems.append(f"sim time {row['time']!r} is not positive")
        if outcome.success and set(awards) != {t.task_id for t in service.tasks}:
            problems.append("a successful negotiation left tasks unawarded")
        if any(node not in system.nodes for node in awards.values()):
            problems.append("a task was awarded to an unknown node")
        return Replication(1, row, problems)


_FAMILIES = ("movie", "speech", "sensor-fusion", "navigation")
_SESSION_STATES = {"closed", "dropped", "rejected"}


def _area(n_nodes: int) -> float:
    """E22/E23's constant density: area side grows with sqrt(nodes)."""
    return 60.0 * math.sqrt(n_nodes)


class Contention(Workload):
    """A streaming contention run; a replication is one seed's scenario."""

    latency_target = "repro.core.negotiation:negotiate"

    def config(self):
        raise NotImplementedError

    def prepare(self, seeds):
        return self.config()

    def run(self, inputs, seed):
        import repro

        return repro.run_contention(seed, inputs)

    def replicate(self, inputs, seed):
        result = self.run(inputs, seed)
        row: Dict[str, Any] = dict(result.metrics())
        if result.resilience is not None:
            row.update(result.resilience.metrics())
        digest = hashlib.sha256()
        for session in result.sessions:
            digest.update(repr(dataclasses.astuple(session)).encode())
        row["sessions_sha256"] = digest.hexdigest()
        return Replication(len(result.sessions), row, self._problems(result, row))

    @staticmethod
    def _problems(result, row) -> List[str]:
        problems = []
        for key in ("success_rate", "drop_rate", "availability"):
            if key in row and not 0.0 <= row[key] <= 1.0:
                problems.append(f"{key} = {row[key]!r} outside [0, 1]")
        arrivals = [s.arrival for s in result.sessions]
        if arrivals != sorted(arrivals) or (arrivals and arrivals[-1] >= result.horizon):
            problems.append("session arrivals are unsorted or past the horizon")
        for s in result.sessions:
            if s.final_state not in _SESSION_STATES or (s.final_state == "rejected") == s.success:
                problems.append(f"session at t={s.arrival} ends in {s.final_state!r}")
                break
        return problems


class StaticContention(Contention):
    """Formulation-bound contention with a read-only topology: the bypass
    workload for network, shard and fault changes. A 30 s horizon keeps
    a replication short, so a run averages over many clusters."""

    name = "contend-static-512"
    nominal_s = 1.2

    def config(self):
        import repro
        from repro.sessions import SessionPolicy
        from repro.workloads import PoissonProcess

        return repro.ContentionConfig(
            n_requesters=8,
            families=_FAMILIES,
            arrival=PoissonProcess(rate=1.0 / 4.0),
            horizon=30.0,
            n_nodes=512,
            area=_area(512),
            radio_range=100.0,
            sessions=SessionPolicy(operate=True),
        )


class ShardedChurn(Contention):
    """E22's 512-node point over a 60 s horizon: delta rebuilds and
    mobility dominate. Arrivals come every 15 s, so every seed offers
    the same 16 sessions and throughput follows speed, not load."""

    name = "e22-shard-512"
    nominal_s = 1.4

    def config(self):
        import repro
        from repro.sessions import SessionPolicy
        from repro.workloads import FixedIntervalProcess

        return repro.ContentionConfig(
            n_requesters=512 // 128,
            families=_FAMILIES,
            arrival=FixedIntervalProcess(interval=15.0),
            horizon=60.0,
            n_nodes=512,
            area=_area(512),
            radio_range=100.0,
            sessions=SessionPolicy(
                operate=True,
                failure_rate=1.0 / 200.0,
                drain=30.0,
                mobility="waypoint",
                mobility_speed=4.0,
            ),
        )

    def prepare(self, seeds):
        import repro.shard

        config = self.config()
        # Fleet tables are set-up, as in the E22 suite.
        return config, {seed: repro.shard.fleet_tables(seed, config) for seed in seeds}

    def run(self, inputs, seed):
        import repro.shard

        config, tables = inputs
        return repro.shard.run_sharded_contention(seed, config, tables=tables[seed])


class CrashRebuild(Contention):
    """E23's bursty-part25-crash regime on 256 nodes over a 40 s horizon:
    full rebuilds, and the only workload that injects faults."""

    name = "e23-crash-256"
    nominal_s = 1.4

    def config(self):
        import repro
        from repro.faults import (
            AgentFaults, CrashHazard, FaultPlan, GilbertElliott, Partition,
        )
        from repro.sessions import SessionPolicy
        from repro.workloads import ConstantRate, PoissonProcess

        n_nodes, n_requesters, horizon = 256, 4, 40.0
        helpers = n_nodes - n_requesters
        plan = FaultPlan(
            link=GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.8),
            partitions=(
                Partition(
                    start=horizon / 3.0,
                    duration=25.0,
                    group_a=tuple(f"req{k}" for k in range(n_requesters))
                    + tuple(f"n{i}" for i in range(0, helpers, 2)),
                    group_b=tuple(f"n{i}" for i in range(1, helpers, 2)),
                ),
            ),
            crashes=CrashHazard(shape=ConstantRate(1.0), recover_after=25.0),
            agents=AgentFaults(drop_propose=0.02, stale_propose=0.02, refuse_award=0.01),
        )
        return repro.ContentionConfig(
            n_requesters=n_requesters,
            families=_FAMILIES,
            arrival=PoissonProcess(rate=1.0 / 6.0),
            horizon=horizon,
            n_nodes=n_nodes,
            area=_area(n_nodes),
            radio_range=100.0,
            sessions=SessionPolicy(operate=True, keepalive=2.5, partition_grace=15.0),
            faults=plan,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (AgentNegotiation(), StaticContention(), ShardedChurn(), CrashRebuild())
}


# -- host speed ----------------------------------------------------------------

#: Seconds between two host-speed samples.
SAMPLE_INTERVAL_S = 0.04
#: Each kernel's timed run on the reference machine on a quiet stretch, in ns.
REFERENCE_NS = {"interpreter": 60_000, "numpy": 560_000}
#: A host factor is the median over at least this many recent samples.
MIN_SAMPLES = 5


class HostSpeed:
    """Samples, from inside the measured process, how fast the host runs.

    The benchmark's host is a few vCPUs of a machine shared with other
    tenants. Within minutes it runs the same replication up to twice as
    slowly, and CPU time slows with wall time, so no clock filters the
    slowdown out. While installed, a SIGALRM handler runs two fixed
    kernels that use no ``repro`` code every :data:`SAMPLE_INTERVAL_S`:
    an interpreter-bound pointer chase through a list and a dict, and a
    numpy pairwise-distance pass over 128 points (the shape of a
    topology rebuild). Each kernel runs once to warm the caches, then
    once timed. The measurement subtracts the handlers' time from each
    interval it times and divides the rest by the host factor of that
    interval: the mean over the two kernels of their median timed run
    during it over :data:`REFERENCE_NS`. Times are so stated in seconds
    of the reference machine on a quiet stretch. On identical inputs
    this took the spread of ten runs' throughput from 34-49% to 2-8%.

    Python runs a signal handler between two bytecodes of the main
    thread, so a handler never splits a negotiation's clock readings:
    each handler lies wholly inside or outside a timed interval.
    """

    def __init__(self) -> None:
        import random

        import numpy as np

        chain = list(range(4096))
        random.Random(0).shuffle(chain)
        self._chain = chain
        self._table = {i: float(i % 7) for i in range(4096)}
        self._np = np
        self._points = np.random.default_rng(0).random((128, 2)) * 1000.0
        self._busy = False
        self._previous: Any = None
        self._first = 0
        self.handlers: List[Tuple[int, int]] = []
        """``(start_ns, end_ns)`` of every handler run."""
        self.samples: List[Dict[str, int]] = []
        """Nanoseconds of each kernel's timed run, per handler run."""

    def _interpreter(self) -> None:
        chain, table, x, acc = self._chain, self._table, 0, 0.0
        for _ in range(800):
            x = chain[x]
            acc += table[x] * 0.5

    def _numpy(self) -> None:
        np, points = self._np, self._points
        delta = points[:, None, :] - points[None, :, :]
        (np.sqrt((delta * delta).sum(-1)) < 100.0).sum()

    def sample(self, *_signal: Any) -> None:
        """Run each kernel twice and time its second run."""
        if self._busy:  # a signal that arrived during the handler
            return
        self._busy = True
        clock = time.perf_counter_ns
        start = clock()
        timed = {}
        for name, kernel in (("interpreter", self._interpreter), ("numpy", self._numpy)):
            kernel()
            before = clock()
            kernel()
            timed[name] = clock() - before
        self.handlers.append((start, clock()))
        self.samples.append(timed)
        self._busy = False

    def clear(self) -> None:
        """Start a new interval for :meth:`factor`."""
        self._first = len(self.samples)

    def paused_ns(self, start: int, end: int) -> int:
        """Handler time inside ``[start, end]``."""
        lo = bisect.bisect_left(self.handlers, (start,))
        hi = bisect.bisect_left(self.handlers, (end,))
        return sum(e - s for s, e in self.handlers[lo:hi])

    def factor(self) -> float:
        """How many times slower than the reference the host ran since
        :meth:`clear`, over at least :data:`MIN_SAMPLES` samples when
        there are that many (sampling once now if there are none)."""
        if not self.samples:
            self.sample()
        recent = self.samples[min(self._first, max(0, len(self.samples) - MIN_SAMPLES)):]
        return statistics.mean(
            statistics.median(s[name] for s in recent) / reference
            for name, reference in REFERENCE_NS.items()
        )

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


# -- running replications ----------------------------------------------------


def run_one(workload: Workload, inputs: Any, seed: int) -> Tuple[Replication, int, int]:
    """One replication from rewound id sequences, and the
    ``perf_counter_ns`` readings at its start and end."""
    from repro.sim.sequences import reset_all_sequences

    reset_all_sequences()
    start = time.perf_counter_ns()
    rep = workload.replicate(inputs, seed)
    return rep, start, time.perf_counter_ns()


def normalized(row: Dict[str, Any]) -> Dict[str, Any]:
    """The row as it reads back from JSON (exact: floats round-trip)."""
    return json.loads(json.dumps(row))


class Gate:
    """The correctness gate: golden rows where committed, invariants always."""

    def __init__(self, workload: Workload) -> None:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.golden: Dict[str, Any] = golden.get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.failures: List[str] = []

    def check(self, seed: int, rep: Replication, twin: Optional[Replication] = None) -> None:
        """Check one replication; ``twin`` is an earlier run of the same
        seed (another pass, or the untraced run of a traced one), whose
        row it must reproduce."""
        problems = list(rep.problems)
        expected = self.golden.get(str(seed))
        if expected is not None:
            self.golden_checked += 1
            if normalized(rep.row) != expected:
                problems.append("result row differs from golden.json")
        if twin is not None and rep.row != twin.row:
            problems.append("row differs from an earlier run of the same seed")
        self._count(seed, problems)

    def fail(self, seed: int, error: BaseException) -> None:
        self._count(seed, [f"raised {type(error).__name__}: {error}"])

    def _count(self, seed: int, problems: List[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"seed {seed}: {problem}" for problem in problems]

    def report(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "golden_checked": self.golden_checked,
            "failures": self.failures[:20],
        }


def _quantile(values: Sequence[float], q: int) -> float:
    """The q-th decile (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def measure(workload: Workload, seeds: Sequence[int], inputs: Any) -> Dict[str, Any]:
    """Tracing off: time every replication and every negotiation, in
    reference seconds (see :class:`HostSpeed`). Throughput is offered
    sessions over the summed replication time."""
    from spans import Tracer

    gate = Gate(workload)
    timer = Tracer(table=(("negotiation", workload.latency_target, None, None),))
    sessions, walls = 0, []
    latencies_ms: List[float] = []
    raw_walls: List[float] = []
    factors: List[float] = []
    deadline = time.perf_counter_ns() + int(
        DEADLINE_FACTOR * workload.nominal_s * len(seeds) * 1e9)
    with timer, HostSpeed() as host:
        for seed in seeds:
            if raw_walls and time.perf_counter_ns() + raw_walls[-1] * 1e9 > deadline:
                break
            timer.spans.clear()
            host.clear()
            try:
                rep, start, end = run_one(workload, inputs, seed)
            except Exception as exc:  # a failed replication is counted, not fatal
                gate.fail(seed, exc)
                continue
            gate.check(seed, rep)
            sessions += rep.sessions
            factor = host.factor()
            raw_walls.append((end - start) * 1e-9)
            factors.append(factor)
            walls.append((end - start - host.paused_ns(start, end)) * 1e-9 / factor)
            latencies_ms += [(e - s - host.paused_ns(s, e)) * 1e-6 / factor
                             for _i, _p, _n, s, e, _t in timer.spans]
    out = gate.report()
    out["raw_replication_s"] = statistics.median(raw_walls) if raw_walls else 0.0
    out["host_factor"] = statistics.median(factors) if factors else 0.0
    out["metrics"] = {
        "sessions_per_s": (sessions / sum(walls) if walls else 0.0, len(walls)),
        "negotiation_p50_ms": (_quantile(latencies_ms, 5) if latencies_ms else 0.0,
                               len(latencies_ms)),
        "negotiation_p90_ms": (_quantile(latencies_ms, 9) if latencies_ms else 0.0,
                               len(latencies_ms)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return out


def trace(workload: Workload, seeds: Sequence[int], trace_out: str = "") -> Dict[str, Any]:
    """Tracing on: each seed runs untraced, then traced, back to back.

    The untraced twin is the overhead baseline and the oracle for the
    traced row (wrappers must not change results).
    """
    from spans import REPLICATION, SETUP, Tracer, summarize

    gate = Gate(workload)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    replications = 0
    inputs = workload.prepare(seeds)
    with tracer:
        traced_inputs = tracer.run_root(SETUP, "setup", lambda: workload.prepare(seeds))
    for seed in seeds:
        try:
            plain, start, end = run_one(workload, inputs, seed)
            gate.check(seed, plain)
            with tracer:
                traced_start = time.perf_counter_ns()
                traced, *_ = tracer.run_root(
                    REPLICATION, f"seed-{seed}",
                    lambda: run_one(workload, traced_inputs, seed),
                )
                traced_end = time.perf_counter_ns()
        except Exception as exc:  # a failed replication is counted, not fatal
            gate.fail(seed, exc)
            continue
        gate.check(seed, traced, twin=plain)
        plain_s += (end - start) * 1e-9
        traced_s += (traced_end - traced_start) * 1e-9
        replications += 1
    out = gate.report()
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    out["layers"] = summarize(tracer, max(1, replications), overhead)
    # Self times telescope to the root spans' duration; compare that with
    # the wall clock taken around them.
    root_ns = sum(end - start for _i, _p, name, start, end, _t in tracer.spans
                  if name == REPLICATION)
    out["span_coverage"] = root_ns * 1e-9 / traced_s if traced_s else 0.0
    out["untraced_s"], out["traced_s"] = plain_s, traced_s
    if trace_out:
        with open(trace_out, "a") as sink:
            for span_id, parent, name, start, end, trace_id in tracer.spans:
                sink.write(json.dumps({
                    "workload": workload.name, "id": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end, "trace_id": trace_id,
                }) + "\n")
    return out


def golden_rows(workload: Workload, seeds: Sequence[int]) -> Dict[str, Any]:
    inputs = workload.prepare(seeds)
    return {str(seed): normalized(run_one(workload, inputs, seed)[0].row) for seed in seeds}


def main(argv: Sequence[str]) -> int:
    started = time.perf_counter_ns()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "setup", "golden"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True,
                        type=lambda s: tuple(int(x) for x in s.split(",")))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))

    if args.mode == "golden":
        print(json.dumps(golden_rows(workload, args.seeds)))
        return 0
    if args.trace:
        print(json.dumps(trace(workload, args.seeds, args.trace_out)))
        return 0
    import numpy  # noqa: F401  (repro's first import, and part of set-up)

    with HostSpeed() as host:
        import repro  # noqa: F401  (the import is part of set-up)

        inputs = workload.prepare(args.seeds)
        end = time.perf_counter_ns()
    setup_ns = end - started - host.paused_ns(started, end)
    result: Dict[str, Any] = {"setup_s": setup_ns * 1e-9 / host.factor()}
    if args.mode == "measure":
        result.update(measure(workload, args.seeds, inputs))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
