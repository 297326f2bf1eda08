"""Shared fixtures for the test suite, and the hypothesis profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.qos import catalog
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sim.engine import Engine

# ``pytest --hypothesis-profile=deep`` runs the fuzzers that read their
# budget from the loaded profile (the topology machine, the route
# certificate and covering-cut properties and the measured-links and
# array-homing properties in ``test_topology_machine.py``, and the
# fit-rule property in ``test_fit_rule.py``) with 500 derandomized
# examples each, instead of the tier-1 budget they set themselves.
settings.register_profile("deep", derandomize=True, deadline=None, max_examples=500)


def budget(tier1: int) -> int:
    """Examples per run: ``tier1`` under the default profile, the loaded
    profile's budget under any other."""
    if settings.get_current_profile_name() == "default":
        return tier1
    return settings.default.max_examples


def assert_same_live_rows(topo: Topology, fresh: Topology) -> None:
    """The arena rows of the nodes live at each topology's last rebuild
    hold the same ids in the same order, and the same positions,
    adjacency, bandwidth and loss among them, bit for bit; each
    liveness mask marks exactly those rows. A fresh build's arena holds
    no other row."""
    arenas = []
    for t in (topo, fresh):
        rows = np.array(sorted(t._index.values()), dtype=np.intp)
        live = np.ones(len(t._arena_ids), dtype=bool) if t._live is None else t._live
        assert np.flatnonzero(live).tolist() == rows.tolist()
        grid = np.ix_(rows, rows)
        ids = [t._arena_ids[r] for r in rows.tolist()]
        arenas.append((ids, t.positions[rows], t._adj[grid], t._bw[grid], t._loss[grid]))
    (ids, *arrays), (fresh_ids, *fresh_arrays) = arenas
    assert ids == fresh_ids
    for name, mine, theirs in zip(("positions", "adj", "bw", "loss"), arrays, fresh_arrays):
        assert np.array_equal(mine, theirs), name


@pytest.fixture
def engine() -> Engine:
    return Engine(seed=1234)


@pytest.fixture
def streaming_spec():
    return catalog.video_streaming_spec()


@pytest.fixture
def surveillance_request():
    return catalog.surveillance_request()


@pytest.fixture
def movie_request():
    return catalog.high_quality_streaming_request()


@pytest.fixture
def small_cluster():
    """A deterministic 4-node line-of-sight cluster: phone requester at
    the center, a PDA and two laptops within 50 m."""
    nodes = [
        Node("requester", NodeClass.PHONE, position=(50.0, 50.0)),
        Node("pda", NodeClass.PDA, position=(60.0, 50.0)),
        Node("lap1", NodeClass.LAPTOP, position=(40.0, 50.0)),
        Node("lap2", NodeClass.LAPTOP, position=(50.0, 70.0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    return topology, providers, nodes


@pytest.fixture
def movie_service():
    return workload.movie_playback_service(requester="requester")


@pytest.fixture
def surveillance_service():
    return workload.surveillance_service(requester="requester")
