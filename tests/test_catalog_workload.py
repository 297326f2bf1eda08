"""Unit tests for the QoS catalog and workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.qos import catalog
from repro.qos.catalog import (
    AUDIO_QUALITY,
    CODEC,
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    SAMPLE_BITS,
    SAMPLING_RATE,
    VIDEO_QUALITY,
)
from repro.resources.kinds import ResourceKind
from repro.resources.node import NODE_CLASS_PROFILES, NodeClass
from repro.services import workload


# -- catalog specs ----------------------------------------------------------


def test_streaming_spec_matches_paper_section3():
    """The spec must reproduce the paper's example value sets exactly."""
    spec = catalog.video_streaming_spec()
    assert spec.dimension_names == (VIDEO_QUALITY, AUDIO_QUALITY)
    cd = spec.attribute(COLOR_DEPTH).domain
    assert set(cd.values) == {1, 3, 8, 16, 24}
    fr = spec.attribute(FRAME_RATE).domain
    assert fr.lo == 1 and fr.hi == 30
    sr = spec.attribute(SAMPLING_RATE).domain
    assert set(sr.values) == {8, 16, 24, 44}
    sb = spec.attribute(SAMPLE_BITS).domain
    assert set(sb.values) == {8, 16, 24}


def test_conference_spec_dependency_enforced():
    spec = catalog.video_conference_spec()
    ok = {FRAME_RATE: 15, RESOLUTION: "720p", SAMPLING_RATE: 16, CODEC: "wavelet"}
    spec.validate_assignment(ok)
    bad = dict(ok, **{FRAME_RATE: 25})
    from repro.errors import DependencyError

    with pytest.raises(DependencyError):
        spec.validate_assignment(bad)
    # Light codec has no fps limit.
    spec.validate_assignment(dict(bad, **{CODEC: "dct"}))


def test_synthetic_spec_shape():
    spec = catalog.synthetic_spec(3, 2, levels_per_attribute=5)
    assert len(spec.dimensions) == 3
    assert len(spec.attribute_names) == 6
    for name in spec.attribute_names:
        assert len(spec.attribute(name).domain.values) == 5
    with pytest.raises(ValueError):
        catalog.synthetic_spec(0, 1)


def test_synthetic_request_acceptable_levels():
    spec = catalog.synthetic_spec(2, 2, levels_per_attribute=5)
    full = catalog.synthetic_request(spec)
    limited = catalog.synthetic_request(spec, acceptable_levels=2)
    attr = spec.attribute_names[0]
    assert len(full.preference_for(attr).items) == 5
    assert len(limited.preference_for(attr).items) == 2


# -- workload calibration ------------------------------------------------------


def _cpu(model, values):
    return model.demand(values).get(ResourceKind.CPU)


def test_full_quality_video_overwhelms_handhelds():
    """Calibration target: full-quality decode fits a laptop, not a PDA."""
    model = workload.video_decode_demand()
    top = {FRAME_RATE: 30, COLOR_DEPTH: 24}
    cpu = _cpu(model, top)
    pda = NODE_CLASS_PROFILES[NodeClass.PDA].get(ResourceKind.CPU)
    laptop = NODE_CLASS_PROFILES[NodeClass.LAPTOP].get(ResourceKind.CPU)
    assert cpu > pda
    assert cpu < laptop


def test_degraded_surveillance_fits_pda():
    model = workload.video_decode_demand()
    degraded = {FRAME_RATE: 10, COLOR_DEPTH: 3}
    pda = NODE_CLASS_PROFILES[NodeClass.PDA].get(ResourceKind.CPU)
    assert _cpu(model, degraded) < pda


def test_audio_much_cheaper_than_video():
    video = workload.video_decode_demand()
    audio = workload.audio_decode_demand()
    v = _cpu(video, {FRAME_RATE: 30, COLOR_DEPTH: 24})
    a = _cpu(audio, {SAMPLING_RATE: 44, SAMPLE_BITS: 24})
    assert a < v / 3


def test_conference_codec_tradeoff():
    """The heavy codec trades CPU for bandwidth (Section 1's motivation)."""
    model = workload.conference_demand()
    base = {FRAME_RATE: 15, RESOLUTION: "480p", SAMPLING_RATE: 16}
    wavelet = model.demand(dict(base, **{CODEC: "wavelet"}))
    none = model.demand(dict(base, **{CODEC: "none"}))
    assert wavelet.get(ResourceKind.CPU) > none.get(ResourceKind.CPU)
    assert wavelet.get(ResourceKind.NET_BANDWIDTH) < none.get(ResourceKind.NET_BANDWIDTH)


def test_service_builders_produce_valid_services():
    for builder in (
        workload.movie_playback_service,
        workload.surveillance_service,
        workload.conference_service,
    ):
        service = builder(requester="r")
        assert service.requester == "r"
        assert len(service.tasks) >= 1
        for task in service.tasks:
            # Every task's preferred level has a computable demand.
            values = task.ladder().top().values()
            demand = task.demand_at(values)
            assert not demand.is_zero


def test_synthetic_service_scaling():
    rng = np.random.default_rng(1)
    small = workload.synthetic_service("r", rng, cpu_scale=10.0, name="s1")
    rng = np.random.default_rng(1)
    big = workload.synthetic_service("r", rng, cpu_scale=100.0, name="s2")
    s_cpu = small.tasks[0].demand_at(small.tasks[0].ladder().top().values()).get(ResourceKind.CPU)
    b_cpu = big.tasks[0].demand_at(big.tasks[0].ladder().top().values()).get(ResourceKind.CPU)
    assert b_cpu > s_cpu * 5


def test_task_fresh_ids_unique():
    from repro.services.task import Task

    ids = {Task.fresh_id("x") for _ in range(100)}
    assert len(ids) == 100


def test_service_validation():
    from repro.services.service import Service

    with pytest.raises(ValueError):
        Service(name="s", tasks=(), requester="r")
    t = workload.movie_playback_service("r").tasks[0]
    with pytest.raises(ValueError):
        Service(name="s", tasks=(t, t), requester="r")
    svc = Service(name="s", tasks=(t,), requester="r")
    assert svc.task(t.task_id) is t
    with pytest.raises(KeyError):
        svc.task("ghost")
