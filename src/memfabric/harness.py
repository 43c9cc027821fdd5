"""Config-driven scenario runs: shared vs isolated memory, under static or
evolving permissions, with scripted backends and deterministic replay.

A scenario config (JSON or YAML) declares the principal universe, the
timeline source (static edges, explicit phases or a grant/revoke schedule),
the workload, the policy bindings, and the retrieval settings. Each section
is a frozen dataclass that holds its own defaults, built by one strict
loader: an unknown key, a section that is not a mapping, text where a list
belongs, or a value the section rejects raises ``ConfigError`` at load,
naming the section. A workload or timeline value of the wrong shape raises
it at plan, naming the field.

Running a scenario executes every episode in a deterministic order and
writes a self-describing artifact directory: audit log, permission event
log, store snapshot, metrics CSV and JSON, per-phase access matrices, a
final-answer transcript, and an echo of the resolved config holding every
effective value, defaults included. Re-running from the echoed config
reproduces every artifact byte for byte. The reports come from one pass of
the audit log, :func:`~memfabric.audit.compute_metrics`: phase labels are
unique, and a phase's episodes are exactly the metrics bin of its label.
The shared-vs-isolated comparison reads each arm's metrics, not its log.

Workload shapes (a workload names exactly one):

- ``queries`` + ``overlap``: a seeded fraction of the pool becomes "global"
  queries issued by every user; the rest are partitioned disjointly.
- ``per_user``: explicit ordered assignment.
- ``synthetic``: a generated ``count`` pool (category round-robin) that then
  takes the ``queries`` path, or ``per_user_per_category`` lists (disjoint
  per-user queries) that then take the ``per_user`` path.
- ``decompose``: project queries split into role-keyed subtasks; each
  non-director user works its role's subtask, then the director works every
  role's subtask and consolidates.

Explicit phases and a schedule's planned phases are one type,
:class:`~memfabric.schedule.ScenarioPhase`: a label and its ordered
``(action, edge)`` permission edits. The whole workload replays once per
phase; under a static timeline it runs once, in the one phase ``all``.
Isolated mode forces every write to the private tier, which is the control
arm for sharing-efficiency comparisons.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from . import wire
from .access import AccessTimeline, Edge, EdgeKind, PermissionAction, edge_from_doc
from .audit import AuditLog, MetricsReport, compute_metrics
from .clock import LogicalClock
from .errors import ConfigError, InsufficientQueries
from .orchestration import (
    AgentSpec,
    EpisodeLimits,
    JoiningAggregator,
    KeywordCoordinator,
    RemoteAgentBackend,
    RemoteAggregator,
    RemoteCoordinator,
    Resource,
    Runtime,
    ScriptedAgentBackend,
    run_episode,
)
from .policy import (
    DEFAULT_PRIVATE_WRITE_PROMPT,
    DEFAULT_SHARED_WRITE_PROMPT,
    Direction,
    IdentityTransform,
    PolicyBinding,
    PolicyTable,
    PromptedRemote,
    Redactor,
    Scope,
    Transformer,
)
from .principals import PrincipalDirectory, PrincipalId, agent, resource, user
from .retrieval import DeterministicEmbedder, Embedder, RemoteEmbedder, RetrievalConfig
from .schedule import DEFAULT_ACCEPT_PROBABILITY, GraphSchedule, ScenarioPhase, SchedulePhase
from .schedule import plan_schedule, schedule_from_targets
from .store import LogState, MemoryStore, seeded_id_factory

DEFAULT_SHARED_WRITE_RULES = (("{user}", "[user]"),)
_STOCK_PROMPTS = {
    Direction.WRITE_PRIVATE: DEFAULT_PRIVATE_WRITE_PROMPT,
    Direction.WRITE_SHARED: DEFAULT_SHARED_WRITE_PROMPT,
}


# --- configuration -------------------------------------------------------------


def _listed(value: object, name: str) -> list | tuple:
    """``value``, which must be a list: text is not split into characters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _pairs(value: object, name: str) -> list[tuple[str, str]]:
    """``value`` as a list of ``[a, b]`` pairs of names."""
    pairs = [_listed(pair, f"{name} entry") for pair in _listed(value, name)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{name} takes [a, b] pairs, got {value!r}")
    return [(str(a), str(b)) for a, b in pairs]


def _section(cls: type, doc: object, name: str):
    """Build the config dataclass ``cls`` from the mapping ``doc``; an unknown
    key or a value the dataclass rejects raises ``ConfigError`` naming ``name``.

    A field whose default is a config dataclass, or whose metadata names one
    as its ``section`` (or its ``sections``, for a list of them), is built the
    same way. A null field is absent where the default is None; an empty
    judge is absent too, and any other null or empty transformer is the
    identity. Other tuple fields take a list (text is refused, not split into
    characters) and become tuples, numbers the type of their default.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{name} must be a mapping, got {doc!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    values = {}
    try:
        for key, value in doc.items():
            default, meta = fields[key].default, fields[key].metadata
            nested = meta.get("section", meta.get("sections"))
            if dataclasses.is_dataclass(default):
                nested = type(default)
            if value is None and default is None:
                pass
            elif nested is None:
                if isinstance(default, tuple):
                    value = tuple(_listed(value, key))
                elif type(default) in (int, float):
                    value = type(default)(value)
            elif "sections" in meta:
                value = tuple(_section(nested, v, f"{name}.{key}[{i}]") for i, v in enumerate(value))
            elif nested is TransformerConfig and not value:
                value = None if default is None else TransformerConfig()
            else:
                value = _section(nested, value, f"{name}.{key}")
            values[key] = value
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


@dataclass(frozen=True)
class AgentConfig:
    id: str
    category: str
    specialization: str = ""
    resource: str | None = None
    endpoint: str | None = None
    system_prompt: str = ""


@dataclass(frozen=True)
class ResourceConfig:
    id: str
    category: str
    kind: str = "knowledge_base"
    documents: str | None = None
    endpoint: str | None = None


@dataclass(frozen=True)
class EmbedderConfig:
    kind: str = "deterministic"  # or "remote", which needs an endpoint
    dimension: int = 32
    endpoint: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("deterministic", "remote"):
            raise ValueError(f"unknown embedder kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote embedder needs an endpoint")
        if self.dimension < 2:
            raise ValueError(f"embedder dimension must be at least 2, got {self.dimension}")


@dataclass(frozen=True)
class RemoteConfig:
    """A coordinator or aggregator; without an endpoint, the scripted one."""

    endpoint: str | None = None
    system_prompt: str = ""


@dataclass(frozen=True)
class ScheduleConfig:
    """Edge-count ``targets``, each phase's action inferred, or explicit
    ``phases`` of ``{label, action, target}``; ``seed`` defaults to the scenario's."""

    targets: Sequence | None = None
    phases: Sequence | None = None
    seed: int | None = None
    p: float = DEFAULT_ACCEPT_PROBABILITY

    def __post_init__(self) -> None:
        if (self.targets is None) == (self.phases is None):
            raise ValueError("a schedule takes one of targets or phases")


@dataclass(frozen=True)
class PhaseConfig:
    """Permission ``events`` (each ``{action, edge}``) applied before a phase's
    episodes; the ``i``-th phase is labelled ``t<i>`` unless given a ``label``."""

    label: str | None = None
    events: tuple = ()


@dataclass(frozen=True)
class TimelineConfig:
    """Static user->agent edges, with or without phases of explicit grants
    and revokes, or a grant/revoke schedule that draws those edges itself."""

    agent_resources: str | Sequence = "one_to_one"
    user_agents: str | Sequence | None = None
    phases: tuple[PhaseConfig, ...] | None = field(default=None, metadata={"sections": PhaseConfig})
    schedule: ScheduleConfig | None = field(default=None, metadata={"section": ScheduleConfig})

    def __post_init__(self) -> None:
        if self.schedule is not None and not (self.phases is None and self.user_agents is None):
            raise ValueError("a timeline with a schedule takes no phases or user_agents")


_WORKLOAD_SHAPES = ("queries", "per_user", "synthetic", "decompose")


@dataclass(frozen=True)
class WorkloadConfig:
    """One workload shape; ``overlap`` applies to ``queries`` and ``synthetic``."""

    queries: Sequence | None = None
    per_user: Mapping | None = None
    synthetic: Mapping | None = None
    decompose: Mapping | None = None
    overlap: float = 0.0

    def __post_init__(self) -> None:
        shapes = [s for s in _WORKLOAD_SHAPES if getattr(self, s) is not None]
        if len(shapes) > 1:
            raise ValueError(f"a workload takes one of {_WORKLOAD_SHAPES}, got {shapes}")


@dataclass(frozen=True)
class TransformerConfig:
    kind: str = "identity"  # or "redactor" or "prompted_remote"
    rules: tuple = ()  # [pattern, replacement] pairs, for a redactor
    system_prompt: str = ""
    endpoint: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "redactor", "prompted_remote"):
            raise ValueError(f"unknown transformer kind {self.kind!r}")
        if self.kind == "prompted_remote" and not self.endpoint:
            raise ValueError("prompted_remote transformer needs an endpoint")
        _pairs(self.rules, "rules")

    def build(self, default_prompt: str = "") -> Transformer:
        if self.kind == "redactor":
            return Redactor(rules=tuple(_pairs(self.rules, "rules")))
        if self.kind == "prompted_remote":
            return PromptedRemote(self.system_prompt or default_prompt, self.endpoint)
        return IdentityTransform()


@dataclass(frozen=True)
class ScopeConfig:
    """Where a scoped binding applies: ``global``, a ``user``, an ``agent``, or
    a ``window`` of ticks from ``start`` to ``end``."""

    level: str = "global"
    user: str | None = None
    agent: str | None = None
    start: int | None = None
    end: int | None = None

    def __post_init__(self) -> None:
        self.build()  # an unknown level or a missing name or bound raises at load

    def build(self) -> Scope:
        if self.level == "user":
            return Scope.for_user(user(self.user))
        if self.level == "agent":
            return Scope.for_agent(agent(self.agent))
        if self.level == "window":
            return Scope.during(int(self.start), int(self.end))
        if self.level == "global":
            return Scope.everywhere()
        raise ValueError(f"unknown scope level {self.level!r}")


@dataclass(frozen=True)
class ScopedPolicyConfig:
    direction: str
    scope: ScopeConfig = ScopeConfig()
    transformer: TransformerConfig = TransformerConfig()

    def __post_init__(self) -> None:
        Direction(self.direction)  # raises ValueError for an unknown direction


@dataclass(frozen=True)
class PoliciesConfig:
    read: TransformerConfig = TransformerConfig()
    write_private: TransformerConfig = TransformerConfig()
    write_shared: TransformerConfig = TransformerConfig("redactor", DEFAULT_SHARED_WRITE_RULES)
    scoped: tuple[ScopedPolicyConfig, ...] = field(default=(), metadata={"sections": ScopedPolicyConfig})


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    users: tuple[str, ...] = ()
    agents: tuple[AgentConfig, ...] = field(default=(), metadata={"sections": AgentConfig})
    resources: tuple[ResourceConfig, ...] = field(default=(), metadata={"sections": ResourceConfig})
    timeline: TimelineConfig = TimelineConfig()
    workload: WorkloadConfig = WorkloadConfig()
    memory_mode: str = "shared"
    policies: PoliciesConfig = PoliciesConfig()
    retrieval: RetrievalConfig = RetrievalConfig()
    embedder: EmbedderConfig = EmbedderConfig()
    limits: EpisodeLimits = EpisodeLimits()
    coordinator: RemoteConfig = RemoteConfig()
    aggregator: RemoteConfig = RemoteConfig()
    judge: TransformerConfig | None = field(default=None, metadata={"section": TransformerConfig})
    documents: str | None = None

    def __post_init__(self) -> None:
        if self.memory_mode not in ("shared", "isolated"):
            raise ConfigError(f"memory_mode must be shared|isolated, got {self.memory_mode!r}")
        if not self.users:
            raise ConfigError("at least one user is required")
        if len(set(self.users)) != len(self.users):
            raise ConfigError("duplicate user names")
        agent_ids = [a.id for a in self.agents]
        if len(set(agent_ids)) != len(agent_ids):
            raise ConfigError("duplicate agent ids")
        resource_ids = [r.id for r in self.resources]
        if len(set(resource_ids)) != len(resource_ids):
            raise ConfigError("duplicate resource ids")
        categories = [a.category for a in self.agents]
        if len(set(categories)) != len(categories):
            raise ConfigError("agent categories must be unique (they key routing)")
        known_resources = set(resource_ids)
        for a in self.agents:
            if a.resource is not None and a.resource not in known_resources:
                raise ConfigError(f"agent {a.id} names unknown resource {a.resource}")

    def to_dict(self) -> dict:
        """Every effective value, defaults included; ``from_dict`` reads it back."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioConfig":
        return _section(cls, data, "config")


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    return ScenarioConfig.from_dict(data)


def build_policies(cfg: ScenarioConfig) -> PolicyTable:
    """Default instantiation: verbatim reads, name-stripping shared writes.

    Remote write transformers configured without a system prompt fall back
    to the stock encoding prompts (standalone key-value memories; the shared
    variant additionally strips user-specific detail).
    """
    doc = cfg.policies
    table = PolicyTable()
    for direction in Direction:
        tf = getattr(doc, direction.value).build(_STOCK_PROMPTS.get(direction, ""))
        table.add(PolicyBinding(Scope.everywhere(), direction, tf))
    for entry in doc.scoped:
        tf = entry.transformer.build()
        table.add(PolicyBinding(entry.scope.build(), Direction(entry.direction), tf))
    return table


# --- workload ------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadItem:
    user: str
    query: str
    kind: str = "unique"  # "global" | "unique" | "decomposed"


@dataclass(frozen=True)
class Workload:
    items: tuple[WorkloadItem, ...]
    global_queries: tuple[str, ...] = ()


def _interleave(per_user: Mapping[str, list[WorkloadItem]], users: Sequence[str]) -> list[WorkloadItem]:
    items: list[WorkloadItem] = []
    cursors = {u: 0 for u in users}
    exhausted = 0
    while exhausted < len(users):
        exhausted = 0
        for u in users:
            queue = per_user.get(u, [])
            if cursors[u] < len(queue):
                items.append(queue[cursors[u]])
                cursors[u] += 1
            else:
                exhausted += 1
    return items


def generate_workload(
    queries: Sequence[str], users: Sequence[str], overlap: float, seed: int
) -> Workload:
    """Split a query pool into a global subset every user issues and a
    disjoint per-user remainder, then interleave round-robin.

    The global subset has exactly ``floor(overlap * len(queries))`` members.
    Assignment and per-user order are pure functions of the seed.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    if not queries:
        raise InsufficientQueries("no queries to assign")
    if not users:
        raise InsufficientQueries("no users to assign queries to")
    rng = random.Random(seed)
    pool = list(queries)
    rng.shuffle(pool)
    n_global = math.floor(overlap * len(pool))
    global_queries = pool[:n_global]
    remainder = pool[n_global:]

    per_user: dict[str, list[WorkloadItem]] = {
        u: [WorkloadItem(u, q, "global") for q in global_queries] for u in users
    }
    for i, q in enumerate(remainder):
        owner = users[i % len(users)]
        per_user[owner].append(WorkloadItem(owner, q, "unique"))
    for u in users:
        rng.shuffle(per_user[u])
    return Workload(
        items=tuple(_interleave(per_user, users)),
        global_queries=tuple(global_queries),
    )


def build_workload(cfg: ScenarioConfig) -> Workload:
    doc = cfg.workload
    queries, per_user = doc.queries, doc.per_user
    if doc.synthetic is not None:
        spec = doc.synthetic
        categories = sorted(a.category for a in cfg.agents)
        if not categories:
            raise ConfigError("workload.synthetic asks its questions by agent category: no agents")
        if "per_user_per_category" in spec:
            k = int(spec["per_user_per_category"])
            per_user = {
                u: [f"{cat}: question {u}-{j:02d}" for cat in categories for j in range(k)]
                for u in cfg.users
            }
        else:
            count = int(spec["count"])
            queries = [f"{categories[i % len(categories)]}: question {i:03d}" for i in range(count)]

    if per_user is not None:
        unknown = set(per_user) - set(cfg.users)
        if unknown:
            raise ConfigError(f"per_user workload names unknown users: {sorted(unknown)}")
        queues = {
            u: [WorkloadItem(u, str(q)) for q in _listed(qs, f"workload.per_user.{u}")]
            for u, qs in per_user.items()
        }
        return Workload(items=tuple(_interleave(queues, cfg.users)))

    if queries is not None:
        pool = [str(q) for q in _listed(queries, "workload.queries")]
        return generate_workload(pool, cfg.users, doc.overlap, cfg.seed)

    if doc.decompose is not None:
        spec = doc.decompose
        roles: Mapping[str, str] = spec["roles"]
        director = spec.get("director")
        items: list[WorkloadItem] = []
        for query in _listed(spec["queries"], "workload.decompose.queries"):
            for u in cfg.users:
                if u == director or u not in roles:
                    continue
                items.append(WorkloadItem(u, f"{roles[u]}: {query}", "decomposed"))
            if director is not None:
                for role in sorted(set(roles.values())):
                    items.append(WorkloadItem(director, f"{role}: {query}", "decomposed"))
        return Workload(items=tuple(items))

    raise ConfigError(f"workload needs one of: {', '.join(_WORKLOAD_SHAPES)}")


# --- scenario plan ---------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPlan:
    """Everything a run (or an API driver) executes, in order: the setup
    edges, then each phase's permission edits followed by every workload item."""

    setup_edges: tuple[Edge, ...]
    phases: tuple[ScenarioPhase, ...]
    workload: Workload


def _timeline_edges(cfg: ScenarioConfig, name: str) -> list[Edge]:
    """The edges of ``timeline.agent_resources`` or ``timeline.user_agents``:
    its keyword (``one_to_one`` or ``all``) or its named pairs, sorted."""
    spec = getattr(cfg.timeline, name)
    if name == "agent_resources":
        keyword, kinds = "one_to_one", (agent, resource)
        every = [(a.id, a.resource) for a in cfg.agents if a.resource is not None]
    else:
        keyword, kinds = "all", (user, agent)
        every = [(u, a.id) for u in cfg.users for a in cfg.agents]
        spec = [] if spec is None else spec  # only user_agents may be absent
    pairs = every if spec == keyword else _pairs(spec, f"timeline.{name}")
    return sorted((kinds[0](a), kinds[1](b)) for a, b in pairs)


def plan_scenario(cfg: ScenarioConfig) -> ScenarioPlan:
    """Order a run's permission edits and episodes; a workload or timeline
    document of the wrong shape, or two phases of one label, raises
    ``ConfigError``: a phase's label names its report bin."""
    doc = cfg.timeline
    try:
        workload = build_workload(cfg)
        setup = _timeline_edges(cfg, "agent_resources") + _timeline_edges(cfg, "user_agents")
        if doc.schedule is not None:
            sched = doc.schedule
            seed = cfg.seed if sched.seed is None else int(sched.seed)
            if sched.targets is not None:
                targets = [int(x) for x in _listed(sched.targets, "timeline.schedule.targets")]
                schedule = schedule_from_targets(targets, seed, sched.p)
            else:
                steps = tuple(
                    SchedulePhase(str(ph["label"]), PermissionAction(ph["action"]), int(ph["target"]))
                    for ph in sched.phases
                )
                schedule = GraphSchedule(steps, seed, sched.p)
            users, agents = [user(u) for u in cfg.users], [agent(a.id) for a in cfg.agents]
            phases = tuple(plan_schedule(schedule, users, agents))
        elif doc.phases is not None:
            phases = tuple(
                ScenarioPhase(
                    f"t{i}" if ph.label is None else str(ph.label),
                    tuple((PermissionAction(ev["action"]), edge_from_doc(ev["edge"])) for ev in ph.events),
                )
                for i, ph in enumerate(doc.phases)
            )
        else:
            phases = (ScenarioPhase("all", ()),)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed workload or timeline: {exc!r}") from exc
    labels = [phase.label for phase in phases]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"duplicate phase labels: {repeated}")
    return ScenarioPlan(setup_edges=tuple(setup), phases=phases, workload=workload)


# --- runtime construction --------------------------------------------------------


def build_runtime(
    cfg: ScenarioConfig, audit_path: str | Path | None = None, resume: bool = False
) -> Runtime:
    """Wire a runtime from a config, fresh or continuing a previous run.

    Fresh, the audit log at ``audit_path`` is truncated, never read, and the
    runtime holds nothing. With ``resume``, the runtime continues from the log
    alone (``timeline.jsonl`` and ``store.jsonl`` are exports): one streamed
    pass of a :class:`~memfabric.store.LogState` decodes each record once,
    applies it to the timeline or the store (each key embedded again) and
    keeps no record, and the audit ``seq``, the clock (the last tick logged),
    episode ids and the seeded fragment ids follow it. Only then is the log
    reopened to append (:meth:`AuditLog.continuing`): its torn last line is
    cut and an episode left open ends as interrupted. A log that does not replay
    raises at its first record that does not apply, as does an embedder that
    fails in the replay, leaving the log as it was and no file open.
    Permission edges are *not* applied here; the run (or an API driver)
    issues them so that both paths produce identical event and audit logs.
    """
    directory = PrincipalDirectory()
    for u in cfg.users:
        directory.add_user(u)
    for a in cfg.agents:
        directory.add_agent(a.id)
    for r in cfg.resources:
        directory.add_resource(r.id)

    emb = cfg.embedder
    embedder: Embedder = (
        RemoteEmbedder(emb.endpoint, emb.dimension)
        if emb.kind == "remote"
        else DeterministicEmbedder(emb.dimension)
    )

    shared_docs = list(wire.load(cfg.documents)) if cfg.documents else []
    resources: dict[PrincipalId, Resource] = {}
    for rc in cfg.resources:
        docs = list(wire.load(rc.documents)) if rc.documents else [
            d for d in shared_docs if d.get("category") == rc.category
        ]
        rid = resource(rc.id)
        resources[rid] = Resource(
            id=rid, kind=rc.kind, documents=docs, endpoint=rc.endpoint
        )

    agents: dict[PrincipalId, AgentSpec] = {}
    for ac in cfg.agents:
        aid = agent(ac.id)
        backend: ScriptedAgentBackend | RemoteAgentBackend
        if ac.endpoint:
            backend = RemoteAgentBackend(endpoint=ac.endpoint, system_prompt=ac.system_prompt)
        else:
            backend = ScriptedAgentBackend(resource=ac.resource)
        agents[aid] = AgentSpec(
            id=aid,
            specialization=ac.specialization or f"{ac.category} specialist",
            backend=backend,
        )

    if cfg.coordinator.endpoint:
        coordinator = RemoteCoordinator(cfg.coordinator.endpoint, cfg.coordinator.system_prompt)
    else:
        coordinator = KeywordCoordinator({a.category: a.id for a in cfg.agents})
    if cfg.aggregator.endpoint:
        aggregator = RemoteAggregator(cfg.aggregator.endpoint, cfg.aggregator.system_prompt)
    else:
        aggregator = JoiningAggregator()
    judge = cfg.judge.build() if cfg.judge is not None else None
    policies = build_policies(cfg)

    # the log is opened last, so a bad config or a log that does not replay leaves
    # it as it was and no file open, and attached after, so replay logs nothing
    timeline = AccessTimeline(directory)
    store = MemoryStore(embedder.dimension, directory)
    state = LogState(timeline, store, embedder.embed)
    if resume and audit_path is not None and Path(audit_path).exists():
        audit = AuditLog.continuing(audit_path, state.fold(audit_path))
    else:
        audit = AuditLog(audit_path)
    timeline.attach_audit(audit)
    store.attach_audit(audit)
    id_factory = seeded_id_factory(cfg.seed)
    for _ in range(len(store)):
        id_factory()  # every fragment the log records drew exactly one id
    return Runtime(
        directory=directory,
        clock=LogicalClock(state.head),
        timeline=timeline,
        store=store,
        policies=policies,
        audit=audit,
        embedder=embedder,
        retrieval=cfg.retrieval,
        agents=agents,
        resources=resources,
        coordinator=coordinator,
        aggregator=aggregator,
        limits=cfg.limits,
        id_factory=id_factory,
        force_private=cfg.memory_mode == "isolated",
        judge=judge,
        _episode_counter=state.episodes,
    )


# --- running ----------------------------------------------------------------------


@dataclass
class RunArtifacts:
    """A run's artifact directory, where each file's name is given once, and
    what the run measured: its metrics and each phase's window of ticks."""

    out_dir: Path
    metrics: MetricsReport = field(init=False)
    phase_windows: dict[str, tuple[int, int]] = field(default_factory=dict)

    audit_path = property(lambda self: self.out_dir / "audit.jsonl")
    timeline_path = property(lambda self: self.out_dir / "timeline.jsonl")
    store_path = property(lambda self: self.out_dir / "store.jsonl")
    metrics_csv_path = property(lambda self: self.out_dir / "metrics.csv")
    metrics_json_path = property(lambda self: self.out_dir / "metrics.json")
    matrices_path = property(lambda self: self.out_dir / "access_matrices.json")
    transcript_path = property(lambda self: self.out_dir / "transcript.jsonl")
    config_echo_path = property(lambda self: self.out_dir / "config.echo.json")


def _write_json(path: Path, doc: object) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _transcript_doc(item: WorkloadItem, bin_label: str, t: int, episode) -> dict:
    return {
        "episode_id": episode.episode_id,
        "user": item.user,
        "query": item.query,
        "kind": item.kind,
        "bin": bin_label,
        "t": t,
        "final_answer": episode.final_answer,
        "failure": episode.failure,
    }


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str | Path,
    mode: str | None = None,
    seed: int | None = None,
) -> RunArtifacts:
    """Execute a scenario and write its artifact directory.

    Permission edits of a phase come first, then one episode per workload
    item in order, each at a fresh tick, which makes reruns byte-identical.
    Failed episodes are recorded, not fatal.
    """
    overrides = {"memory_mode": mode, "seed": seed}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    art = RunArtifacts(Path(out_dir))
    art.out_dir.mkdir(parents=True, exist_ok=True)
    plan = plan_scenario(cfg)
    rt = build_runtime(cfg, audit_path=art.audit_path)

    # the audit log is closed however the episodes end
    with closing(rt.audit), art.transcript_path.open("w", encoding="utf-8") as transcript:
        for edge in plan.setup_edges:
            rt.timeline.grant(edge, rt.clock.tick())
        for phase in plan.phases:
            for action, edge in phase.permission_edits:
                rt.timeline.apply(action, edge, rt.clock.tick())
            window_start = rt.clock.now + 1
            for item in plan.workload.items:
                t = rt.clock.tick()
                episode = run_episode(
                    rt, user(item.user), item.query, t, bin_label=phase.label
                )
                transcript.write(wire.encode(_transcript_doc(item, phase.label, t, episode)))
            art.phase_windows[phase.label] = (window_start, rt.clock.now)

    rt.timeline.save(art.timeline_path)
    rt.store.save(art.store_path)

    # the one decode of the log; a phase's episodes are its label's bin
    art.metrics = metrics = compute_metrics(rt.audit)
    art.metrics_csv_path.write_text(metrics.to_csv(), encoding="utf-8")
    _write_json(art.metrics_json_path, metrics.to_summary())

    matrices_doc = []
    for phase in plan.phases:
        window = art.phase_windows[phase.label]
        entry = {"phase": phase.label, "window": list(window)}
        entry["usage"] = metrics.usage[phase.label].to_dict()
        for kind in EdgeKind:
            edges = rt.timeline.edges_at(window[1], kind)
            entry[f"granted_{kind.value}"] = sorted((a.name, b.name) for a, b in edges)
        matrices_doc.append(entry)
    _write_json(art.matrices_path, matrices_doc)
    _write_json(art.config_echo_path, cfg.to_dict())
    return art


# --- shared vs isolated comparison -------------------------------------------------


@dataclass
class ComparisonReport:
    shared: RunArtifacts
    isolated: RunArtifacts
    per_bin: list[dict]
    per_query: dict[str, dict[str, int]]
    global_queries: tuple[str, ...]
    total_shared_calls: int
    total_isolated_calls: int
    total_reduction: float

    def to_dict(self) -> dict:
        return {
            "per_bin": self.per_bin,
            "per_query": self.per_query,
            "global_queries": sorted(self.global_queries),
            "total": {
                "shared_calls": self.total_shared_calls,
                "isolated_calls": self.total_isolated_calls,
                "reduction": self.total_reduction,
            },
        }


def compare_modes(cfg: ScenarioConfig, out_dir: str | Path) -> ComparisonReport:
    """Run the same scenario under shared and isolated memory with identical
    seeds and report per-bin and per-query resource-call totals plus the
    relative reduction sharing buys, all from each arm's metrics."""
    out = Path(out_dir)
    shared = run_scenario(cfg, out / "shared", mode="shared")
    isolated = run_scenario(cfg, out / "isolated", mode="isolated")

    per_bin = []
    for shared_bin, isolated_bin in zip(shared.metrics.bins, isolated.metrics.bins):
        s_calls = round(shared_bin.resource_utilization * shared_bin.queries)
        i_calls = round(isolated_bin.resource_utilization * isolated_bin.queries)
        per_bin.append(
            {
                "bin": shared_bin.label,
                "shared_calls": s_calls,
                "isolated_calls": i_calls,
                "reduction": (i_calls - s_calls) / i_calls if i_calls else 0.0,
            }
        )

    shared_by_query = shared.metrics.calls_by_query
    isolated_by_query = isolated.metrics.calls_by_query
    per_query = {
        q: {
            "shared_calls": shared_by_query.get(q, 0),
            "isolated_calls": isolated_by_query.get(q, 0),
        }
        for q in sorted(set(shared_by_query) | set(isolated_by_query))
    }
    total_shared = sum(shared_by_query.values())
    total_isolated = sum(isolated_by_query.values())
    report = ComparisonReport(
        shared=shared,
        isolated=isolated,
        per_bin=per_bin,
        per_query=per_query,
        global_queries=build_workload(cfg).global_queries,
        total_shared_calls=total_shared,
        total_isolated_calls=total_isolated,
        total_reduction=(total_isolated - total_shared) / total_isolated
        if total_isolated
        else 0.0,
    )
    _write_json(out / "comparison.json", report.to_dict())
    csv_lines = ["bin,shared_calls,isolated_calls,reduction"]
    for row in per_bin:
        csv_lines.append(
            f"{row['bin']},{row['shared_calls']},{row['isolated_calls']},{row['reduction']!r}"
        )
    (out / "comparison.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    return report
