"""Within one contention run, the sessions of a family share its profiles.

A family's services differ only in names, requesters and task ids, so
a run builds each family once and gives every later session shells over
the same :class:`~repro.services.task.TaskProfile` objects, whose
memoized degrade walks then serve every CFP of the family. The task ids
must still be the ones the family's builder would draw, in the same
order, because selection's final tie-break hashes them.
"""

from __future__ import annotations

import pytest

import repro.sessions.driver as session_driver
import repro.workloads.contention as contention
from repro.core.formulation import _walk_of
from repro.qos.request import ServiceRequest
from repro.sim.sequences import reset_all_sequences
from repro.workloads.contention import run_contention
from repro.workloads.registry import get_scenario
from repro.workloads.services import SERVICE_FAMILIES, build_service

#: streaming-mix at seed 4 renegotiates two movie sessions whose video
#: and audio were both lost, so their sub-services list audio first.
SEED = 4
CONFIG = get_scenario("streaming-mix").config


@pytest.fixture
def negotiated(monkeypatch):
    """Every service the run's session driver negotiated, in order:
    admissions (named ``<family>-<requester>-<ordinal>``) and in-place
    renegotiations (``...:reneg<n>``)."""
    seen = []
    negotiate = session_driver.negotiate

    def recording(service, *args, **kwargs):
        seen.append(service)
        return negotiate(service, *args, **kwargs)

    monkeypatch.setattr(session_driver, "negotiate", recording)
    reset_all_sequences()
    run_contention(SEED, CONFIG)
    return seen


def _family(service) -> str:
    return service.name.split(":")[0].rsplit("-", 2)[0]


def _admissions(services):
    return [s for s in services if ":reneg" not in s.name]


def test_later_sessions_draw_the_builders_ids(negotiated):
    admissions = _admissions(negotiated)
    assert {_family(s) for s in admissions} == set(CONFIG.families)
    reset_all_sequences()
    rebuilt = [build_service(_family(s), s.requester, name=s.name) for s in admissions]

    def shape(service):
        return [
            (t.task_id, t.input_kb, t.output_kb, t.duration) for t in service.tasks
        ]

    assert [shape(s) for s in admissions] == [shape(s) for s in rebuilt]


def test_sessions_of_a_family_share_profiles_and_walks(negotiated):
    movies = [s for s in negotiated if _family(s) == "movie"]
    admissions = _admissions(movies)
    assert len(admissions) >= 2
    first = admissions[0]
    video, audio = (task.profile for task in first.tasks)
    for later in admissions[1:]:
        assert not {t.task_id for t in first.tasks} & {t.task_id for t in later.tasks}
        assert all(t.profile is p for t, p in zip(later.tasks, (video, audio)))
    # Each tuple order of the family has one walk, cached on its first
    # profile during the run; every session's tuple finds it there.
    joint = {id(walk) for _refs, walk in video._walk_cache.values()}
    for later in admissions:
        assert id(_walk_of(later.tasks)) in joint
    assert len({id(_walk_of(s.tasks)) for s in admissions}) == 1

    # A renegotiation that lost both tasks orders them by id: audio
    # first, a second walk over the same two profiles.
    renegotiated = [s for s in movies if ":reneg" in s.name and len(s.tasks) == 2]
    assert len(renegotiated) >= 2
    swapped = {id(walk) for _refs, walk in audio._walk_cache.values()}
    for sub in renegotiated:
        assert all(t.profile is p for t, p in zip(sub.tasks, (audio, video)))
        assert id(_walk_of(sub.tasks)) in swapped
    assert len({id(_walk_of(s.tasks)) for s in renegotiated}) == 1
    assert _walk_of(renegotiated[0].tasks) is not _walk_of(first.tasks)


def test_a_later_session_builds_no_request(monkeypatch):
    """Only a family's first session runs its builder, so the run
    constructs exactly the specs, requests and demand models of one
    build per family."""
    builds = []
    build = contention.build_service

    def counting(family, *args, **kwargs):
        builds.append(family)
        return build(family, *args, **kwargs)

    requests = []
    init = ServiceRequest.__init__

    def counting_init(self, *args, **kwargs):
        requests.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(contention, "build_service", counting)
    monkeypatch.setattr(ServiceRequest, "__init__", counting_init)
    result = run_contention(SEED, CONFIG)
    assert len(result.sessions) > len(CONFIG.families)
    assert sorted(builds) == sorted(CONFIG.families)
    in_run = len(requests)
    for family in CONFIG.families:
        build(family, "r")
    assert in_run == len(requests) - in_run


@pytest.mark.parametrize("family", list(SERVICE_FAMILIES))
def test_every_family_reissues_the_builders_ids(family):
    """Two requesters' sessions of any family: the later ones are
    shells over the first one's profiles, with the ids, sizes and
    durations its builder gives."""
    events = [(0.0, 0, 0), (1.0, 1, 0), (2.0, 0, 1)]
    reset_all_sequences()
    arrivals = contention._session_arrivals(events, {0: family, 1: family})
    services = [service for _t, _k, _family, service in arrivals]
    reset_all_sequences()
    rebuilt = [build_service(family, s.requester, name=s.name) for s in services]
    for service, built in zip(services, rebuilt):
        assert service.requester == built.requester
        assert [
            (t.task_id, t.input_kb, t.output_kb, t.duration) for t in service.tasks
        ] == [(t.task_id, t.input_kb, t.output_kb, t.duration) for t in built.tasks]
        assert all(
            t.profile is first.profile
            for t, first in zip(service.tasks, services[0].tasks)
        )
