"""The public names of ``memfabric``, pinned so that adding or removing an
export is a deliberate change to this list (ROADMAP aim 2: the same
behaviour from the least code)."""

from __future__ import annotations

import types

import memfabric

PUBLIC_NAMES = """
    AccessMatrices AccessTimeline AdmissibilityClause AdmissibilityDecision AgentBrief
    AgentSpec AmbiguousBinding AuditAction AuditLog AuditRecord BinMetrics ComparisonReport
    ConfigError CoordinationMessage CoordinatorProtocolViolation DeterministicEmbedder
    DimensionMismatch Direction DuplicateEdge DuplicateId Edge EdgeKind EdgeNotPresent
    Embedder EmptyText EmptyWindow EpisodeLimits GraphSchedule IdentityTransform
    InsufficientQueries InteractionTrace InvalidFragment JoiningAggregator
    KeywordCoordinator LogicalClock MemFabricError MemoryFragment MemoryService MemoryStore
    MetricsReport NO_AGENTS_ANSWER NonMonotonicTimestamp OutdatedAuditLog PermissionAction
    PermissionEvent PhaseBoundary PolicyBinding PolicyTable PrincipalDirectory
    PrincipalId PrincipalKind PromptedRemote Provenance QueryEpisode RankedFragment Redactor
    RemoteAgentBackend RemoteAggregator RemoteCoordinator RemoteEmbedder RemoteUnavailable
    Resource ResourceNotPermitted RetrievalConfig RunArtifacts Runtime ScenarioConfig
    ScenarioPhase SchedulePhase Scope ScopeLevel ScriptedAgentBackend SequenceCoordinator Tier
    UnknownFragment UnknownPrincipal UnknownPrincipalInProvenance UnreachableTarget
    Violation Workload WorkloadItem agent apply_read audited_retrieve
    build_runtime classify_edge compare_modes compute_metrics cosine encode_and_write
    generate_schedule generate_workload iter_audit_file load_config make_server
    new_fragment_id plan_scenario plan_schedule resource retrieve run_episode run_scenario
    schedule_from_targets scripted_agent_respond seeded_id_factory torn_tail user
    verify_files verify_run
""".split()


def test_the_package_exports_exactly_the_pinned_names():
    exported = (n for n, v in vars(memfabric).items() if not isinstance(v, types.ModuleType))
    assert sorted(n for n in exported if not n.startswith("_")) == PUBLIC_NAMES
