"""repro — Dynamic QoS-Aware Coalition Formation (Nogueira & Pinho, IPPS 2005).

A faithful, simulation-backed reproduction of the paper's QoS-aware
coalition-formation system for wireless ad-hoc networks:

* **QoS model** (:mod:`repro.qos`): the ``{Dim, Attr, Val, DAr, AVr,
  Deps}`` requirements scheme and preference-ordered service requests;
* **Resources** (:mod:`repro.resources`): nodes, Resource Managers with
  admission control, QoS Providers, QoS→resource demand mapping;
* **Network** (:mod:`repro.network`): mobility, disc-radio connectivity,
  lossy messaging over a deterministic discrete-event engine
  (:mod:`repro.sim`);
* **Coalition formation** (:mod:`repro.core`): proposal formulation
  (Section 5 heuristic, eq. 1 reward), proposal evaluation (eqs. 2–5),
  the Section 4.2 negotiation protocol, coalition life cycle, and
  baseline allocators;
* **Agents** (:mod:`repro.agents`): the protocol as asynchronous message
  passing;
* **Sessions** (:mod:`repro.sessions`): the streaming-session life
  cycle (NEGOTIATING → OPERATING → DEGRADED → RENEGOTIATING →
  CLOSED/DROPPED) and the :class:`~repro.sessions.SessionDriver` that
  runs admitted coalitions' operation phases *inside* contention;
* **Workloads** (:mod:`repro.workloads`): service families, arrival
  processes, fleets and the multi-requester contention runner
  (:func:`~repro.workloads.run_contention`);
* **Shard** (:mod:`repro.shard`): the same contention pipeline on a
  spatially sharded cluster
  (:func:`~repro.shard.run_sharded_contention`);
* **Experiments** (:mod:`repro.experiments`): the E1–E23 evaluation
  suite. Nothing above imports it, so ``import repro`` — and any
  contention run — leaves the experiment layer unloaded.

Determinism contract: every run is a pure function of its seed — all
randomness flows through named :class:`~repro.sim.rng.RngRegistry`
streams, and event ordering is the engine's deterministic
(time, priority, seq) order, so serial and parallel experiment
executions are bit-identical.

Quickstart::

    from repro import (
        AgentSystem, Node, NodeClass, workload,
    )

    nodes = [Node("me", NodeClass.PHONE)] + [
        Node(f"n{i}", NodeClass.LAPTOP) for i in range(3)
    ]
    system = AgentSystem(nodes, seed=42)
    service = workload.movie_playback_service(requester="me")
    outcome = system.negotiate(service)
    print(outcome.summary())
"""

from repro.qos import (
    Attribute,
    AttributePreference,
    ContinuousDomain,
    Dependency,
    DependencySet,
    DimensionPreference,
    DiscreteDomain,
    DomainKind,
    QoSDimension,
    QoSSpec,
    ServiceRequest,
    ValueInterval,
    ValueType,
    catalog,
)
from repro.resources import (
    Capacity,
    Node,
    NodeClass,
    QoSProvider,
    ResourceKind,
    ResourceManager,
)
from repro.network import DiscRadio, RandomWaypoint, StaticPlacement, Topology
from repro.services import Service, Task, workload
from repro.core import (
    Coalition,
    CoalitionPhase,
    NegotiationOutcome,
    Proposal,
    ProposalEvaluator,
    SelectionPolicy,
    WeightScheme,
    baselines,
    formulate,
    is_admissible,
    local_reward,
    negotiate,
    run_operation_phase,
)
from repro.agents import AgentSystem, OrganizerAgent, ProviderAgent
from repro.core.operation import OperationReport
from repro.metrics import outcome_utility
from repro.sessions import Session, SessionDriver, SessionPolicy, SessionState
from repro.shard import ShardedCluster, ShardGrid, run_sharded_contention
from repro.sim import Engine
from repro.workloads import ContentionConfig, ContentionResult, run_contention

__version__ = "1.0.0"

__all__ = [
    # qos
    "ValueType",
    "DomainKind",
    "ContinuousDomain",
    "DiscreteDomain",
    "Attribute",
    "QoSDimension",
    "QoSSpec",
    "Dependency",
    "DependencySet",
    "ServiceRequest",
    "DimensionPreference",
    "AttributePreference",
    "ValueInterval",
    "catalog",
    # resources
    "ResourceKind",
    "Capacity",
    "ResourceManager",
    "Node",
    "NodeClass",
    "QoSProvider",
    # network
    "DiscRadio",
    "Topology",
    "RandomWaypoint",
    "StaticPlacement",
    # services
    "Task",
    "Service",
    "workload",
    # core
    "Proposal",
    "ProposalEvaluator",
    "WeightScheme",
    "SelectionPolicy",
    "formulate",
    "local_reward",
    "is_admissible",
    "negotiate",
    "NegotiationOutcome",
    "Coalition",
    "CoalitionPhase",
    "run_operation_phase",
    "baselines",
    # agents
    "AgentSystem",
    "OrganizerAgent",
    "ProviderAgent",
    # sessions / workloads
    "OperationReport",
    "Session",
    "SessionDriver",
    "SessionPolicy",
    "SessionState",
    "ContentionConfig",
    "ContentionResult",
    "run_contention",
    # shard
    "ShardGrid",
    "ShardedCluster",
    "run_sharded_contention",
    # metrics / sim
    "outcome_utility",
    "Engine",
    "__version__",
]
