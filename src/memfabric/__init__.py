"""Permission-aware shared memory for multi-user, multi-agent systems.

The package is organized around a small number of cooperating pieces:

- :mod:`memfabric.access` - time-indexed user->agent / agent->resource
  permission graphs with event-sourced snapshots;
- :mod:`memfabric.schedule` - seeded stochastic grant/revoke schedules,
  planned as labelled phases of permission edits (``ScenarioPhase``);
- :mod:`memfabric.store` - the provenance-tagged two-tier fragment store
  and its admissibility rule;
- :mod:`memfabric.retrieval` - embedding and tiered top-k retrieval;
- :mod:`memfabric.policy` - scoped read/write policies and transformers;
- :mod:`memfabric.orchestration` - the coordinator/agent/aggregator loop;
- :mod:`memfabric.audit` / :mod:`memfabric.verify` - the append-only audit
  log, utilization metrics, and the offline re-verifier;
- :mod:`memfabric.harness` - config-driven scenario runs and the shared vs
  isolated comparison;
- :mod:`memfabric.service` - the HTTP+JSON facade.
"""

from .access import (
    AccessTimeline,
    Edge,
    EdgeKind,
    PermissionAction,
    PermissionEvent,
    classify_edge,
)
from .audit import (
    AccessMatrices,
    AuditAction,
    AuditLog,
    AuditRecord,
    BinMetrics,
    MetricsReport,
    compute_metrics,
    iter_audit_file,
    torn_tail,
)
from .clock import LogicalClock
from .errors import (
    AmbiguousBinding,
    ConfigError,
    CoordinatorProtocolViolation,
    DimensionMismatch,
    DuplicateEdge,
    DuplicateId,
    EdgeNotPresent,
    EmptyText,
    EmptyWindow,
    InsufficientQueries,
    InvalidFragment,
    MemFabricError,
    NonMonotonicTimestamp,
    OutdatedAuditLog,
    RemoteUnavailable,
    ResourceNotPermitted,
    UnknownFragment,
    UnknownPrincipal,
    UnknownPrincipalInProvenance,
    UnreachableTarget,
)
from .harness import (
    ComparisonReport,
    RunArtifacts,
    ScenarioConfig,
    Workload,
    WorkloadItem,
    build_runtime,
    compare_modes,
    generate_workload,
    load_config,
    plan_scenario,
    run_scenario,
)
from .orchestration import (
    NO_AGENTS_ANSWER,
    AgentBrief,
    AgentSpec,
    CoordinationMessage,
    EpisodeLimits,
    JoiningAggregator,
    KeywordCoordinator,
    QueryEpisode,
    RemoteAgentBackend,
    RemoteAggregator,
    RemoteCoordinator,
    Resource,
    Runtime,
    ScriptedAgentBackend,
    SequenceCoordinator,
    audited_retrieve,
    run_episode,
    scripted_agent_respond,
)
from .policy import (
    Direction,
    IdentityTransform,
    InteractionTrace,
    PolicyBinding,
    PolicyTable,
    PromptedRemote,
    Redactor,
    Scope,
    ScopeLevel,
    apply_read,
    encode_and_write,
)
from .principals import (
    PrincipalDirectory,
    PrincipalId,
    PrincipalKind,
    agent,
    resource,
    user,
)
from .retrieval import (
    DeterministicEmbedder,
    Embedder,
    RankedFragment,
    RemoteEmbedder,
    RetrievalConfig,
    cosine,
    retrieve,
)
from .schedule import (
    GraphSchedule,
    PhaseBoundary,
    ScenarioPhase,
    SchedulePhase,
    generate_schedule,
    plan_schedule,
    schedule_from_targets,
)
from .service import MemoryService, make_server
from .store import (
    AdmissibilityClause,
    AdmissibilityDecision,
    MemoryFragment,
    MemoryStore,
    Provenance,
    Tier,
    new_fragment_id,
    seeded_id_factory,
)
from .verify import Violation, verify_files, verify_run

__version__ = "0.1.0"
