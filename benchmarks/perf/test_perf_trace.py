"""The outside-in tracer is transparent, reversible and adds up."""

from __future__ import annotations

import pytest

import harness
import spans


def test_traced_rows_equal_untraced_rows():
    workload = harness.WORKLOADS["e18-negotiate-128"]
    result = harness.trace(workload, (1, 2))
    # Each seed ran untraced and traced; both rows match golden.json and
    # each other (the gate fails a traced row that differs from its twin).
    assert result["failures"] == []
    assert (result["attempted"], result["failed"], result["golden_checked"]) == (4, 0, 4)
    layers = result["layers"]
    assert layers["agents.negotiate.calls"] == 1.0
    assert layers["experiments.build_agent_system.calls"] == 1.0
    assert all(v == 0 for k, v in layers.items()
               if k.startswith(("faults.", "shard.", "sessions.")))


def test_uninstall_restores_every_patched_attribute():
    tracer = spans.Tracer()
    with tracer:
        patched = list(tracer.patched)
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    # Functions are patched at every module that imported them.
    patched_modules = {owner.__name__ for owner, attr, _ in patched if attr == "negotiate"}
    assert {"repro.core.negotiation", "repro.sessions.driver"} <= patched_modules
    # Every span's target was found and patched somewhere.
    assert len({id(original) for _, _, original in patched}) == len(spans.SPANS)


def test_self_time_on_a_nested_call_tree():
    tracer = spans.Tracer()
    tracer.spans += [
        (0, None, spans.REPLICATION, 0, 100, "seed-1"),
        (1, 0, "core.negotiate", 10, 60, "movie"),
        (2, 1, "core.formulate", 15, 25, "movie"),
        (3, 1, "core.formulate", 30, 50, "movie"),
        (4, 3, "core.rank", 35, 40, "movie"),
        (5, 0, "sim.schedule_at", 70, 75, "seed-1"),
    ]
    assert spans.self_times(tracer.spans) == {0: 45, 1: 20, 2: 10, 3: 15, 4: 5, 5: 5}
    layers = spans.summarize(tracer, replications=2, overhead_frac=0.1)
    assert layers["core.formulate.calls"] == 1.0
    assert layers["core.formulate.self_s"] == pytest.approx(25e-9 / 2)
    assert layers["replication.self_s"] == pytest.approx(45e-9 / 2)
    # Self times telescope: together they are the root's duration.
    span_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert span_self == pytest.approx(100e-9 / 2)
    assert set(layers) == {name for name, _unit in spans.layer_metrics()}
