"""Workload generators for the paper's motivating applications.

The introduction motivates three concrete scenarios, all reproduced here
with calibrated demand models:

* **video streaming / movie playback** — decode offloading ("playing
  downloaded movies may require decompression", Section 7);
* **remote surveillance** — the Section 3.1 request, video over audio;
* **video conferencing** — "compression schemes that are effective, but
  computationally intensive" (Section 1), with a codec/frame-rate
  dependency.

Calibration targets the :data:`~repro.resources.node.NODE_CLASS_PROFILES`
ratios: a full-quality video decode overwhelms a phone/PDA but fits a
laptop, so cooperation is *necessary* for weak requesters (the paper's
core premise), while a degraded surveillance feed fits a PDA alone.

Three further families beyond the paper's three (speech recognition,
sensor-fusion telemetry, map/navigation rendering) live in
:mod:`repro.workloads.services`, which also provides the name →
builder registry (``SERVICE_FAMILIES``) spanning all six.
"""

from __future__ import annotations


import numpy as np

from repro.qos import catalog
from repro.qos.catalog import (
    CODEC,
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    SAMPLE_BITS,
    SAMPLING_RATE,
)
from repro.resources.capacity import Capacity
from repro.resources.mapping import DemandModel, LinearDemandModel, TabularDemandModel
from repro.services.service import Service
from repro.services.task import Task


# --------------------------------------------------------------------------
# Demand profiles (the Section 5 a-priori resource analysis)
# --------------------------------------------------------------------------


def video_decode_demand() -> DemandModel:
    """Demand profile of a video decode/render task.

    CPU scales with frame rate and color depth (more pixels decoded per
    second); network bandwidth scales with frame rate (the encoded stream
    must keep arriving); energy tracks CPU.
    """
    return LinearDemandModel(
        base=Capacity.of(cpu=10.0, memory=16.0, bus_bandwidth=2.0, energy=50.0),
        per_unit={
            FRAME_RATE: Capacity.of(cpu=6.0, net_bandwidth=30.0, energy=8.0),
            COLOR_DEPTH: Capacity.of(cpu=4.0, memory=2.0, energy=2.0),
        },
    )


def audio_decode_demand() -> DemandModel:
    """Demand profile of an audio decode task (cheap next to video)."""
    return LinearDemandModel(
        base=Capacity.of(cpu=5.0, memory=8.0, energy=20.0),
        per_unit={
            SAMPLING_RATE: Capacity.of(cpu=1.0, net_bandwidth=10.0, energy=1.0),
            SAMPLE_BITS: Capacity.of(cpu=0.5, energy=0.5),
        },
    )


def conference_demand() -> DemandModel:
    """Demand profile of a conferencing encode+decode task.

    Codec choice has irregular cost (the paper's computationally intensive
    compression), so it uses a table; frame rate and resolution are linear.
    """
    linear = LinearDemandModel(
        base=Capacity.of(cpu=15.0, memory=24.0, energy=60.0),
        per_unit={
            FRAME_RATE: Capacity.of(cpu=5.0, net_bandwidth=25.0, energy=6.0),
            RESOLUTION: Capacity.of(cpu=30.0, memory=10.0, energy=10.0),
            SAMPLING_RATE: Capacity.of(cpu=1.0, net_bandwidth=8.0, energy=1.0),
        },
        value_scores={
            # Pixel-count-ish score per resolution tier.
            RESOLUTION: {"1080p": 8.0, "720p": 4.0, "480p": 2.0, "240p": 1.0},
        },
    )
    codec = TabularDemandModel(
        base=Capacity.zero(),
        tables={
            CODEC: {
                # The heavy codec trades CPU for bandwidth (Section 1).
                "wavelet": Capacity.of(cpu=250.0, energy=80.0),
                "dct": Capacity.of(cpu=80.0, net_bandwidth=200.0, energy=30.0),
                "none": Capacity.of(net_bandwidth=1500.0, energy=5.0),
            }
        },
    )
    from repro.resources.mapping import CompositeDemandModel

    return CompositeDemandModel(linear, codec)


# --------------------------------------------------------------------------
# Service builders
# --------------------------------------------------------------------------


def movie_playback_service(requester: str, name: str = "movie") -> Service:
    """Full-quality movie playback: one video + one audio decode task."""
    spec = catalog.video_streaming_spec()
    request = catalog.high_quality_streaming_request(spec)
    video = Task(
        task_id=Task.fresh_id(f"{name}-video"),
        request=request,
        demand_model=video_decode_demand(),
        input_kb=400.0,
        output_kb=150.0,
        duration=20.0,
    )
    audio = Task(
        task_id=Task.fresh_id(f"{name}-audio"),
        request=request,
        demand_model=audio_decode_demand(),
        input_kb=60.0,
        output_kb=30.0,
        duration=20.0,
    )
    return Service(name=name, tasks=(video, audio), requester=requester)


def surveillance_service(requester: str, name: str = "surveillance") -> Service:
    """The Section 3.1 remote-surveillance request as a two-task service."""
    spec = catalog.video_streaming_spec()
    request = catalog.surveillance_request(spec)
    video = Task(
        task_id=Task.fresh_id(f"{name}-video"),
        request=request,
        demand_model=video_decode_demand(),
        input_kb=120.0,
        output_kb=40.0,
        duration=30.0,
    )
    audio = Task(
        task_id=Task.fresh_id(f"{name}-audio"),
        request=request,
        demand_model=audio_decode_demand(),
        input_kb=20.0,
        output_kb=10.0,
        duration=30.0,
    )
    return Service(name=name, tasks=(video, audio), requester=requester)


def conference_service(requester: str, name: str = "conference") -> Service:
    """A conferencing service: a single heavy encode/decode task."""
    spec = catalog.video_conference_spec()
    request = catalog.video_conference_request(spec)
    task = Task(
        task_id=Task.fresh_id(f"{name}-av"),
        request=request,
        demand_model=conference_demand(),
        input_kb=250.0,
        output_kb=250.0,
        duration=60.0,
    )
    return Service(name=name, tasks=(task,), requester=requester)


#: Seconds each :func:`pipeline_service` task runs.
PIPELINE_STAGE_DURATION = 8.0


def pipeline_service(requester: str, name: str = "pipeline") -> Service:
    """A three-stage media pipeline with precedence (extension, E14).

    ``fetch+demux → video decode → enhance/render``: the stages must run
    in order (each consumes the previous stage's output), exercising the
    precedence extension of :class:`~repro.services.service.Service`. An
    independent audio task runs alongside, so the critical path is the
    three video stages, each :data:`PIPELINE_STAGE_DURATION` seconds.
    """
    spec = catalog.video_streaming_spec()
    request = catalog.high_quality_streaming_request(spec)
    fetch = Task(
        task_id=Task.fresh_id(f"{name}-fetch"),
        request=request,
        demand_model=LinearDemandModel(
            base=Capacity.of(cpu=8.0, memory=8.0, energy=20.0),
            per_unit={FRAME_RATE: Capacity.of(net_bandwidth=40.0, energy=2.0)},
        ),
        input_kb=50.0,
        output_kb=300.0,
        duration=PIPELINE_STAGE_DURATION,
    )
    decode = Task(
        task_id=Task.fresh_id(f"{name}-decode"),
        request=request,
        demand_model=video_decode_demand(),
        input_kb=300.0,
        output_kb=200.0,
        duration=PIPELINE_STAGE_DURATION,
    )
    enhance = Task(
        task_id=Task.fresh_id(f"{name}-enhance"),
        request=request,
        demand_model=LinearDemandModel(
            base=Capacity.of(cpu=20.0, memory=32.0, energy=40.0),
            per_unit={
                FRAME_RATE: Capacity.of(cpu=4.0, energy=3.0),
                COLOR_DEPTH: Capacity.of(cpu=2.0, energy=1.0),
            },
        ),
        input_kb=200.0,
        output_kb=150.0,
        duration=PIPELINE_STAGE_DURATION,
    )
    audio = Task(
        task_id=Task.fresh_id(f"{name}-audio"),
        request=request,
        demand_model=audio_decode_demand(),
        input_kb=60.0,
        output_kb=30.0,
        duration=PIPELINE_STAGE_DURATION,
    )
    return Service(
        name=name,
        tasks=(fetch, decode, enhance, audio),
        requester=requester,
        precedence=(
            (fetch.task_id, decode.task_id),
            (decode.task_id, enhance.task_id),
        ),
    )


def synthetic_service(
    requester: str,
    rng: np.random.Generator,
    n_tasks: int = 2,
    n_dimensions: int = 2,
    attrs_per_dimension: int = 2,
    levels: int = 4,
    cpu_scale: float = 60.0,
    name: str = "synthetic",
) -> Service:
    """A randomized service over a synthetic spec, for sweeps.

    Every attribute value ``v`` (integer levels ``L..1``, best first)
    contributes ``cpu_scale * v / L`` CPU plus proportional bandwidth and
    energy, so the top level of a task costs roughly
    ``cpu_scale * n_dimensions * attrs_per_dimension`` CPU. ``cpu_scale``
    therefore directly tunes how demanding the workload is relative to
    the node profiles.
    """
    spec = catalog.synthetic_spec(n_dimensions, attrs_per_dimension, levels, name=f"{name}-spec")
    request = catalog.synthetic_request(spec, name=f"{name}-request")
    tasks = []
    for t in range(n_tasks):
        jitter = float(rng.uniform(0.7, 1.3))
        per_unit = {
            attr: Capacity.of(
                cpu=cpu_scale * jitter / levels,
                net_bandwidth=cpu_scale * 2.0 / levels,
                energy=cpu_scale * 0.5 / levels,
            )
            for attr in spec.attribute_names
        }
        model = LinearDemandModel(
            base=Capacity.of(cpu=5.0, memory=8.0, energy=10.0),
            per_unit=per_unit,
        )
        tasks.append(
            Task(
                task_id=Task.fresh_id(f"{name}-t{t}"),
                request=request,
                demand_model=model,
                input_kb=float(rng.uniform(20, 200)),
                output_kb=float(rng.uniform(10, 100)),
                duration=float(rng.uniform(5, 30)),
            )
        )
    return Service(name=name, tasks=tuple(tasks), requester=requester)
