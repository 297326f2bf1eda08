"""Outside-in per-layer tracing for the perf benchmark.

The tracer wraps the public functions of each ``repro`` layer from the
outside; nothing under ``src/`` knows it exists. A method is patched on
the class that defines it. A module-level function is patched at every
``repro.*`` module attribute bound to the original object, so call
sites that did ``from repro.core.negotiation import negotiate`` are
covered too. :meth:`Tracer.uninstall` puts every original back.

Each call becomes one span, a ``(id, parent, name, start_ns, end_ns,
trace_id)`` tuple kept in memory. ``trace_id`` is the negotiated
service's name without its ``:renegN`` suffix, so a session's admission
and its renegotiations share it; spans outside any negotiation carry
their root's id. Probes read arguments and return values only and add
to plain counters, from which the ratio metrics are derived.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, int, int, str]
Probe = Callable[[Dict[str, float], tuple, dict, Any, Optional[BaseException]], None]

_RENEG = re.compile(r":reneg\d+$")


def _count(counters: Dict[str, float], key: str, amount: float = 1.0) -> None:
    counters[key] = counters.get(key, 0.0) + amount


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _service_trace(index: int) -> Callable[[tuple, dict], str]:
    def trace_of(args: tuple, kwargs: dict) -> str:
        return _RENEG.sub("", _arg(args, kwargs, index, "service").name)

    return trace_of


# -- probes: read arguments / results, never touch simulation state ---------


def _negotiate_probe(c, args, kwargs, result, error) -> None:
    if error is not None:
        return
    _count(c, "core.negotiate.success", float(result.success))
    _count(c, "core.negotiate.audience", len(result.candidates))
    _count(c, "core.negotiate.proposals", result.proposals_received)
    if _RENEG.search(result.service.name):
        _count(c, "sessions.renegotiations")


def _formulate_probe(c, args, kwargs, result, error) -> None:
    if error is None:
        _count(c, "core.formulate.feasible", float(result.feasible))


def _evaluate_probe(c, args, kwargs, result, error) -> None:
    _count(c, "core.evaluate.proposals", len(_arg(args, kwargs, 1, "proposals")))


def _reserve_probe(c, args, kwargs, result, error) -> None:
    if error is not None:
        _count(c, "resources.reserve_for.refused")


def _moved_probe(c, args, kwargs, result, error) -> None:
    _count(c, "network.topology.update_positions.moved",
           len(_arg(args, kwargs, 1, "moved")))


def _transmit_probe(c, args, kwargs, result, error) -> None:
    if error is None and result is None:
        _count(c, "network.channel.transmit.lost")


def _cross_shard_probe(c, args, kwargs, result, error) -> None:
    cluster, a, b = args[0], _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    _count(c, "shard.route.calls")
    if error is None and cluster.home_shard(a) != cluster.home_shard(b):
        _count(c, "shard.route.cross")


def _events_probe(c, args, kwargs, result, error) -> None:
    _count(c, "sim.engine.events", args[0].engine.events_fired)


def _handshake_probe(c, args, kwargs, result, error) -> None:
    if error is not None:
        return
    acked, retries, _delay = result
    _count(c, "faults.award_handshake.retries", retries)
    _count(c, "faults.award_handshake.unacked", float(not acked))


def _filter_probe(c, args, kwargs, result, error) -> None:
    if error is not None:
        return
    before = _arg(args, kwargs, 3, "by_task")
    after, _stale = result
    _count(c, "faults.filter_proposals.dropped",
           sum(map(len, before.values())) - sum(map(len, after.values())))


#: (span name, "module:attribute" target, probe, trace-id extractor).
#: Targets are the public entry points of each layer; the order is the
#: order of the per-layer metrics in ``BENCHMARK.json``.
SPANS: Tuple[Tuple[str, str, Optional[Probe], Optional[Callable]], ...] = (
    ("core.negotiate", "repro.core.negotiation:negotiate",
     _negotiate_probe, _service_trace(0)),
    ("core.formulate_node_proposals",
     "repro.core.negotiation:formulate_node_proposals", None, None),
    ("core.formulate", "repro.core.formulation:formulate", _formulate_probe, None),
    ("core.evaluate", "repro.core.evaluation:BatchProposalEvaluator.distances",
     _evaluate_probe, None),
    ("core.rank", "repro.core.selection:SelectionPolicy.rank", None, None),
    ("resources.reserve_for", "repro.resources.provider:QoSProvider.reserve_for",
     _reserve_probe, None),
    ("resources.release", "repro.resources.provider:QoSProvider.release", None, None),
    ("network.topology.rebuild", "repro.network.topology:Topology.rebuild", None, None),
    ("network.topology.update_positions",
     "repro.network.topology:Topology.update_positions", _moved_probe, None),
    ("network.topology.shortest_route",
     "repro.network.topology:Topology.shortest_route", None, None),
    ("network.topology.multihop_cost",
     "repro.network.topology:Topology.multihop_cost", None, None),
    ("network.topology.neighbors", "repro.network.topology:Topology.neighbors",
     None, None),
    ("network.topology.communication_cost",
     "repro.network.topology:Topology.communication_cost", None, None),
    ("network.topology.block_links", "repro.network.topology:Topology.block_links",
     None, None),
    ("network.mobility.advance", "repro.network.mobility:RandomWaypoint.advance",
     None, None),
    ("network.channel.transmit", "repro.network.channel:ChannelModel.transmit",
     _transmit_probe, None),
    ("network.messaging.send", "repro.network.messaging:NetworkService.send",
     None, None),
    ("network.messaging.send_routed",
     "repro.network.messaging:NetworkService.send_routed", None, None),
    ("network.messaging.broadcast", "repro.network.messaging:NetworkService.broadcast",
     None, None),
    ("shard.advance_mobility", "repro.shard.cluster:ShardedCluster.advance_mobility",
     None, None),
    ("shard.rebuild", "repro.shard.cluster:ShardedCluster.rebuild", None, None),
    ("shard.gateway", "repro.shard.cluster:ShardedCluster.gateway", None, None),
    ("shard.multihop_cost", "repro.shard.cluster:ShardedCluster.multihop_cost",
     _cross_shard_probe, None),
    ("shard.shortest_route", "repro.shard.cluster:ShardedCluster.shortest_route",
     _cross_shard_probe, None),
    ("shard.fleet_tables", "repro.shard.driver:fleet_tables", None, None),
    ("sessions.run", "repro.sessions.driver:SessionDriver.run", _events_probe, None),
    ("sessions.submit", "repro.sessions.driver:SessionDriver.submit",
     None, _service_trace(1)),
    ("sim.schedule_at", "repro.sim.engine:Engine.schedule_at", None, None),
    ("faults.install", "repro.faults.injector:FaultInjector.install", None, None),
    ("faults.filter_proposals", "repro.faults.injector:FaultInjector.filter_proposals",
     _filter_probe, None),
    ("faults.award_handshake", "repro.faults.injector:FaultInjector.award_handshake",
     _handshake_probe, None),
    ("faults.link_survives", "repro.faults.injector:FaultInjector.link_survives",
     None, None),
    ("workloads.build_contention_cluster",
     "repro.workloads.contention:build_contention_cluster", None, None),
    ("workloads.merge_arrival_events",
     "repro.workloads.contention:merge_arrival_events", None, None),
    ("agents.negotiate", "repro.agents.system:AgentSystem.negotiate",
     _events_probe, _service_trace(1)),
    ("experiments.build_agent_system", "repro.experiments.scenario:build_agent_system",
     None, None),
)

#: Root span of one timed replication; its self time is the time no
#: layer span accounts for.
REPLICATION = "replication"
#: Root span of input construction inside the traced pass (fleet tables).
SETUP = "setup"

#: (metric, unit) pairs derived from counters, after the span metrics.
_DERIVED = (
    ("core.negotiate.success_ratio", "fraction"),
    ("core.negotiate.audience_mean", "count"),
    ("core.negotiate.proposals_mean", "count"),
    ("core.formulate.feasible_ratio", "fraction"),
    ("core.evaluate.proposals", "count"),
    ("resources.reserve_for.refused_ratio", "fraction"),
    ("network.topology.update_positions.moved", "count"),
    ("network.channel.transmit.loss_ratio", "fraction"),
    ("shard.route.cross_ratio", "fraction"),
    ("sessions.renegotiations", "count"),
    ("sim.engine.events", "count"),
    ("faults.award_handshake.retries", "count"),
    ("faults.award_handshake.unacked_ratio", "fraction"),
    ("faults.filter_proposals.dropped", "count"),
    ("trace_overhead_frac", "fraction"),
)


def layer_metrics() -> Tuple[Tuple[str, str], ...]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names: List[Tuple[str, str]] = []
    for span, _target, _probe, _trace in SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names.append((f"{REPLICATION}.self_s", "s"))
    return tuple(names) + _DERIVED


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a ``module:attr`` or
    ``module:Class.method`` target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if outer else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Records spans and counters while installed.

    Use :meth:`run_root` around each unit of work (a replication, or the
    input construction of the traced pass) so that every span has a
    root and a trace id. A one-entry ``table`` makes a plain timer: the
    benchmark times negotiations that way with tracing off.
    """

    def __init__(self, table: Tuple = SPANS) -> None:
        self.table = table
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self.patched: List[Tuple[Any, str, Any]] = []
        """``(owner, attribute, original)`` of every attribute patched
        while installed."""

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, probe: Optional[Probe],
              trace_of: Optional[Callable]) -> Callable:
        stack, spans, counters, clock = self._stack, self.spans, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent, trace_id = stack[-1] if stack else (None, "")
            if trace_of is not None:
                trace_id = trace_of(args, kwargs)
            stack.append((span_id, trace_id))
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # recorded, then re-raised unchanged
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, trace_id))
                if probe is not None:
                    probe(counters, args, kwargs, result, error)

        return traced

    def run_root(self, name: str, trace_id: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` as a root span named ``name``."""
        return self._wrap(name, fn, None, lambda args, kwargs: trace_id)()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every target of the span table (:data:`SPANS` by default)."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        for name, target, probe, trace_of in self.table:
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(name, original, probe, trace_of)
            if isinstance(owner, type):
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id → self time (ns): duration minus the time its direct
    children cover. Children of one parent never overlap (the program
    is single-threaded and calls nest), so their durations add up."""
    spans = list(spans)
    covered: Dict[int, int] = {}
    for _id, parent, _name, start, end, _trace in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (end - start)
    return {
        span_id: (end - start) - covered.get(span_id, 0)
        for span_id, _parent, _name, start, end, _trace in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer, replications: int, overhead_frac: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Calls, self seconds and counts are per replication (so runs of
    different length compare); ratios are over the whole pass.
    """
    selfs = self_times(tracer.spans)
    calls: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    for span_id, _parent, name, _start, _end, _trace in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[span_id]
    per_rep = 1.0 / replications
    out: Dict[str, float] = {}
    for name, _target, _probe, _trace in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0) * per_rep
        out[f"{name}.self_s"] = self_ns.get(name, 0) * 1e-9 * per_rep
    out[f"{REPLICATION}.self_s"] = self_ns.get(REPLICATION, 0) * 1e-9 * per_rep
    c = tracer.counters.get
    negotiations = calls.get("core.negotiate", 0)
    out.update({
        "core.negotiate.success_ratio": _ratio(c("core.negotiate.success", 0), negotiations),
        "core.negotiate.audience_mean": _ratio(c("core.negotiate.audience", 0), negotiations),
        "core.negotiate.proposals_mean": _ratio(c("core.negotiate.proposals", 0), negotiations),
        "core.formulate.feasible_ratio": _ratio(
            c("core.formulate.feasible", 0), calls.get("core.formulate", 0)),
        "core.evaluate.proposals": c("core.evaluate.proposals", 0) * per_rep,
        "resources.reserve_for.refused_ratio": _ratio(
            c("resources.reserve_for.refused", 0), calls.get("resources.reserve_for", 0)),
        "network.topology.update_positions.moved":
            c("network.topology.update_positions.moved", 0) * per_rep,
        "network.channel.transmit.loss_ratio": _ratio(
            c("network.channel.transmit.lost", 0), calls.get("network.channel.transmit", 0)),
        "shard.route.cross_ratio": _ratio(c("shard.route.cross", 0), c("shard.route.calls", 0)),
        "sessions.renegotiations": c("sessions.renegotiations", 0) * per_rep,
        "sim.engine.events": c("sim.engine.events", 0) * per_rep,
        "faults.award_handshake.retries": c("faults.award_handshake.retries", 0) * per_rep,
        "faults.award_handshake.unacked_ratio": _ratio(
            c("faults.award_handshake.unacked", 0), calls.get("faults.award_handshake", 0)),
        "faults.filter_proposals.dropped": c("faults.filter_proposals.dropped", 0) * per_rep,
        "trace_overhead_frac": overhead_frac,
    })
    return out
