"""Unit tests for RNG streams and tracing."""

from __future__ import annotations

from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.trace import Tracer


# -- RNG ------------------------------------------------------------------


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_streams_are_cached():
    reg = RngRegistry(7)
    assert reg.stream("x") is reg.stream("x")


def test_streams_independent_of_creation_order():
    reg1 = RngRegistry(7)
    a_first = reg1.stream("a").random(5).tolist()

    reg2 = RngRegistry(7)
    reg2.stream("b")  # create another stream first
    a_second = reg2.stream("a").random(5).tolist()
    assert a_first == a_second


def test_same_seed_same_draws():
    xs = RngRegistry(42).stream("s").random(10)
    ys = RngRegistry(42).stream("s").random(10)
    assert (xs == ys).all()


def test_fork_differs_from_parent():
    reg = RngRegistry(42)
    fork = reg.fork("child")
    assert fork.seed != reg.seed
    assert (fork.stream("s").random(4) != reg.stream("s").random(4)).any()


def test_contains():
    reg = RngRegistry(1)
    assert "m" not in reg
    reg.stream("m")
    assert "m" in reg


# -- Tracer ----------------------------------------------------------------


def test_tracer_records_and_filters():
    tracer = Tracer()
    tracer.emit(1.0, "net", "sent", mid=1)
    tracer.emit(2.0, "net", "lost", mid=2)
    tracer.emit(3.0, "negotiation", "cfp")
    assert len(tracer) == 3
    assert tracer.count("net") == 2
    assert tracer.count("net", "lost") == 1
    assert [r.time for r in tracer.filter("net")] == [1.0, 2.0]


def test_tracer_disabled_drops_everything():
    tracer = Tracer(enabled=False)
    tracer.emit(1.0, "net", "sent")
    assert len(tracer) == 0


def test_tracer_category_filter():
    tracer = Tracer(categories={"net"})
    tracer.emit(1.0, "net", "sent")
    tracer.emit(1.0, "other", "x")
    assert len(tracer) == 1


def test_tracer_sink_invoked():
    seen = []
    tracer = Tracer(sink=seen.append)
    tracer.emit(1.0, "a", "b")
    assert len(seen) == 1
    assert seen[0].category == "a"


def test_tracer_clear():
    tracer = Tracer()
    tracer.emit(1.0, "a", "b")
    tracer.clear()
    assert len(tracer) == 0


def test_trace_record_str():
    tracer = Tracer()
    tracer.emit(1.5, "net", "sent", mid=7)
    text = str(tracer.records[0])
    assert "net/sent" in text and "mid=7" in text
