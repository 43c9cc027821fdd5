"""The query loop: coordinator routes, agents answer, aggregator merges.

One episode serves one (user, query, tick). Round by round the coordinator
sees the query, the specializations of the agents the user may currently
invoke, and the history so far, and emits either ``{"agent": ID,
"subquery": ...}`` or ``{"stop": true}``. A routed agent receives its
subquery together with its permission-filtered, read-policy-transformed
memory view, may invoke only resources it is granted at that tick, and its
exchange is written back through the write policies. When the coordinator
halts (or the round limit hits), the aggregator synthesizes the final
answer from the ordered (subquery, response) pairs.

The runtime never trusts the coordinator: a message naming an agent outside
``agents_of(user, t)``, or naming its agent or subquery with anything but a
non-empty string, is a protocol violation, retried a configured number of
times and then failing the episode. A remote backend that fails (see
:class:`RemoteUnavailable`) fails the episode too, not the run, and so does
one whose reply has a field of the wrong type: a remote agent's JSON-object
reply is ``{"invoke": [names], "answer": text}``, a judge's is a finite
number. Nothing a backend sends is coerced into text, so a malformed reply
is never stored and never read as a permission decision. Scripted agents
follow a memory-first contract - an exact-repeat hit in the view
(similarity 1.0) answers from memory with zero resource calls; otherwise
the agent consults its configured resource exactly once.

Every agent invocation, resource call, fragment read, and fragment write in
an episode lands in the audit log under the episode's id.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

from .access import AccessTimeline
from .audit import AuditAction, AuditLog
from .clock import LogicalClock
from .errors import (
    CoordinatorProtocolViolation,
    RemoteUnavailable,
    ResourceNotPermitted,
)
from .policy import (
    Direction,
    InteractionTrace,
    PolicyTable,
    Transformer,
    apply_read,
    encode_and_write,
)
from .principals import PrincipalDirectory, PrincipalId, PrincipalKind, agent, resource
from .retrieval import Embedder, RankedFragment, RetrievalConfig, retrieve
from .store import MemoryStore, new_fragment_id
from .wire import chat

NO_AGENTS_ANSWER = "No agents were able to process the query."

# Similarity at which two texts are treated as the same query. Unit vectors
# self-compare to 1.0 up to float rounding, hence the epsilon.
EXACT_MATCH_SIMILARITY = 1.0 - 1e-9


@dataclass(frozen=True)
class CoordinationMessage:
    """Either a routing instruction or a halt; never both."""

    agent: PrincipalId | None = None
    subquery: str | None = None
    stop: bool = False

    def __post_init__(self) -> None:
        if self.stop:
            if self.agent is not None or self.subquery is not None:
                raise ValueError("stop message cannot carry a route")
        elif self.agent is None or self.subquery is None:
            raise ValueError("route message needs both agent and subquery")

    @classmethod
    def route(cls, agent: PrincipalId, subquery: str) -> "CoordinationMessage":
        return cls(agent=agent, subquery=subquery)

    @classmethod
    def halt(cls) -> "CoordinationMessage":
        return cls(stop=True)

    @classmethod
    def from_wire(cls, raw: str) -> "CoordinationMessage":
        """Parse the wire form; raises :class:`CoordinatorProtocolViolation`
        on anything malformed: an agent or subquery that is empty or not a
        string included."""
        try:
            data = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise CoordinatorProtocolViolation(f"not JSON it can read: {raw!r}") from exc
        if not isinstance(data, dict):
            raise CoordinatorProtocolViolation(f"not an object: {raw!r}")
        if data.get("stop") is True:
            return cls.halt()
        name, subquery = data.get("agent"), data.get("subquery")
        if isinstance(name, str) and name and isinstance(subquery, str) and subquery:
            return cls.route(agent(name), subquery)
        raise CoordinatorProtocolViolation(f"unrecognized message shape: {raw!r}")


@dataclass(frozen=True)
class AgentBrief:
    """What the coordinator sees about one accessible agent."""

    id: PrincipalId
    specialization: str


class Coordinator(Protocol):
    def decide(
        self,
        query: str,
        agents: Sequence[AgentBrief],
        history: Sequence[tuple[str, str]],
    ) -> CoordinationMessage: ...


class Aggregator(Protocol):
    def aggregate(self, query: str, history: Sequence[tuple[str, str]]) -> str: ...


class KeywordCoordinator:
    """Route on the first configured keyword found in the query text.

    Routes once, then stops; stops immediately when no keyword matches or
    the matched agent is not in the accessible set it was shown. Keywords
    are checked in sorted order so routing is deterministic.
    """

    def __init__(self, routes: Mapping[str, str]) -> None:
        self.routes = dict(routes)

    def decide(self, query, agents, history):
        if history:
            return CoordinationMessage.halt()
        accessible = {brief.id.name: brief.id for brief in agents}
        for keyword in sorted(self.routes):
            if keyword in query:
                target = self.routes[keyword]
                if target in accessible:
                    return CoordinationMessage.route(accessible[target], query)
                return CoordinationMessage.halt()
        return CoordinationMessage.halt()


class SequenceCoordinator:
    """Replays a fixed message script; halts when the script runs out."""

    def __init__(self, messages: Sequence[CoordinationMessage]) -> None:
        self._messages = list(messages)
        self._cursor = 0

    def decide(self, query, agents, history):
        if self._cursor >= len(self._messages):
            return CoordinationMessage.halt()
        message = self._messages[self._cursor]
        self._cursor += 1
        return message


class RemoteCoordinator:
    """Chat-contract coordinator; the reply body's "output" must be the
    JSON wire form of a coordination message."""

    def __init__(self, endpoint: str, system_prompt: str, timeout: float = 30.0) -> None:
        self.endpoint = endpoint
        self.system_prompt = system_prompt
        self.timeout = timeout

    def decide(self, query, agents, history):
        payload = {
            "query": query,
            "agents": [{"id": b.id.name, "specialization": b.specialization} for b in agents],
            "history": [{"subquery": s, "response": r} for s, r in history],
        }
        raw = chat(self.endpoint, self.system_prompt, json.dumps(payload, sort_keys=True), self.timeout)
        return CoordinationMessage.from_wire(raw)


class JoiningAggregator:
    """Deterministic synthesis: one response verbatim, several joined."""

    def aggregate(self, query, history):
        if not history:
            return NO_AGENTS_ANSWER
        if len(history) == 1:
            return history[0][1]
        return "\n".join(f"[{subquery}] {response}" for subquery, response in history)


class RemoteAggregator:
    def __init__(self, endpoint: str, system_prompt: str, timeout: float = 30.0) -> None:
        self.endpoint = endpoint
        self.system_prompt = system_prompt
        self.timeout = timeout

    def aggregate(self, query, history):
        payload = {
            "query": query,
            "history": [{"subquery": s, "response": r} for s, r in history],
        }
        return chat(self.endpoint, self.system_prompt, json.dumps(payload, sort_keys=True), self.timeout)


# --- resources ----------------------------------------------------------------


@dataclass
class Resource:
    """A callable external source. Scripted backends answer from a document
    corpus - first document whose text contains the query, or any query
    token of four letters and up, case-insensitive - or from a deterministic
    template when no corpus is configured; remote backends speak the chat
    contract."""

    id: PrincipalId
    kind: str = "knowledge_base"
    documents: Sequence[Mapping[str, str]] = ()
    endpoint: str | None = None

    def call(self, query: str) -> str:
        if self.endpoint is not None:
            return chat(self.endpoint, f"resource:{self.id.name}", query, timeout=30.0)
        needle = query.lower()
        tokens = [w for w in re.split(r"\W+", needle) if len(w) >= 4]
        for doc in self.documents:
            text = doc.get("text", "")
            lowered = text.lower()
            if (
                doc.get("id") == query
                or needle in lowered
                or any(token in lowered for token in tokens)
            ):
                return text
        return f"{self.id.name} reference entry for '{query}'"


# --- agents -------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptedAgentBackend:
    """Deterministic agent: memory first, then its one configured resource."""

    resource: str | None = None


@dataclass(frozen=True)
class RemoteAgentBackend:
    endpoint: str
    system_prompt: str


@dataclass(frozen=True)
class AgentSpec:
    id: PrincipalId
    specialization: str
    backend: ScriptedAgentBackend | RemoteAgentBackend


def scripted_agent_respond(
    spec: AgentSpec,
    subquery: str,
    view: Sequence[RankedFragment],
    invoke: Callable[[PrincipalId, str], str],
    permitted: frozenset[PrincipalId],
) -> tuple[str, list[PrincipalId]]:
    """Memory-first contract for scripted agents.

    An exact-repeat hit anywhere in the view answers verbatim from memory
    with zero resource calls. Otherwise the agent's configured resource is
    invoked exactly once - if it is currently permitted - and the answer is
    derived from the lookup.
    """
    assert isinstance(spec.backend, ScriptedAgentBackend)
    for hit in view:
        if hit.similarity >= EXACT_MATCH_SIMILARITY:
            return hit.value, []
    if spec.backend.resource is not None:
        rid = resource(spec.backend.resource)
        if rid in permitted:
            result = invoke(rid, subquery)
            return f"According to {rid.name}: {result}", [rid]
    return f"{spec.id.name} has no accessible source for: {subquery}", []


def remote_agent_respond(
    spec: AgentSpec,
    subquery: str,
    view: Sequence[RankedFragment],
    invoke: Callable[[PrincipalId, str], str],
    permitted: frozenset[PrincipalId],
) -> tuple[str, list[PrincipalId]]:
    """Single-shot remote agent: one chat call with the view inlined.

    A reply that is a JSON object is ``{"invoke": [names], "answer": text}``:
    ``invoke`` lists non-empty resource names (default none) and ``answer``
    defaults to the looked-up results joined by "; ". A field of any other
    type, or JSON nested too deeply to read, raises :class:`RemoteUnavailable`
    before any resource is invoked. Any other reply is the answer verbatim.
    ``invoke`` refuses a resource outside the permitted set with
    :class:`ResourceNotPermitted`, never silently honoring it.
    """
    assert isinstance(spec.backend, RemoteAgentBackend)
    payload = json.dumps(
        {
            "subquery": subquery,
            "memory": [{"key": h.key, "value": h.value} for h in view],
            "resources": sorted(r.name for r in permitted),
        },
        sort_keys=True,
    )
    raw = chat(spec.backend.endpoint, spec.backend.system_prompt, payload, timeout=30.0)
    try:
        data = json.loads(raw)
    except ValueError:
        data = None
    except RecursionError as exc:
        raise RemoteUnavailable(f"{spec.id} sent JSON nested too deeply to read") from exc
    if not isinstance(data, dict):
        return raw, []
    names, answer = data.get("invoke", []), data.get("answer", "")
    if not isinstance(names, list) or not all(isinstance(n, str) and n for n in names):
        raise RemoteUnavailable(f"{spec.id} sent invoke {names!r}, not a list of names")
    if not isinstance(answer, str):
        raise RemoteUnavailable(f"{spec.id} sent answer {answer!r}, not text")
    invoked = [resource(name) for name in names]
    results = [invoke(rid, subquery) for rid in invoked]
    return answer or "; ".join(results), invoked


# --- runtime and the episode loop ----------------------------------------------


@dataclass(frozen=True)
class EpisodeLimits:
    max_rounds: int = 6
    coordinator_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.coordinator_retries < 0:
            raise ValueError("coordinator_retries must be >= 0")


@dataclass
class Runtime:
    """Everything one episode needs, wired together once per run."""

    directory: PrincipalDirectory
    clock: LogicalClock
    timeline: AccessTimeline
    store: MemoryStore
    policies: PolicyTable
    audit: AuditLog
    embedder: Embedder
    retrieval: RetrievalConfig
    agents: dict[PrincipalId, AgentSpec]
    resources: dict[PrincipalId, Resource]
    coordinator: Coordinator
    aggregator: Aggregator
    limits: EpisodeLimits = field(default_factory=EpisodeLimits)
    id_factory: Callable[[], str] = new_fragment_id
    force_private: bool = False
    judge: Transformer | None = None
    _episode_counter: int = 0
    _counter_lock: threading.Lock = field(default_factory=threading.Lock)

    def next_episode_id(self) -> str:
        with self._counter_lock:
            eid = f"ep-{self._episode_counter:05d}"
            self._episode_counter += 1
            return eid


@dataclass
class QueryEpisode:
    episode_id: str
    user: PrincipalId
    query: str
    timestamp: int
    steps: list[tuple[CoordinationMessage, InteractionTrace]]
    final_answer: str
    failure: str | None = None


def audited_retrieve(
    rt: Runtime,
    u: PrincipalId,
    a: PrincipalId,
    t: int,
    query_text: str,
    episode_id: str | None = None,
) -> list[RankedFragment]:
    """Retrieve, record the read decision, and apply the read policy.

    Exactly one fragment_read record is appended per call, carrying the
    query and the surfaced ids (possibly none) split by tier - so both positive and
    negative read decisions are visible in the audit trail.
    """
    query_vec = rt.embedder.embed(query_text)
    user_tier, cross_tier = retrieve(rt.store, rt.timeline, u, a, t, query_vec, rt.retrieval)
    detail: dict[str, object] = {
        "user": u.name,
        "agent": a.name,
        "query": query_text,
        "user_tier": [h.fragment_id for h in user_tier],
        "cross_tier": [h.fragment_id for h in cross_tier],
    }
    if episode_id is not None:
        detail["episode"] = episode_id
    rt.audit.append(
        at=t,
        actor=u.name,
        action=AuditAction.FRAGMENT_READ,
        subjects=tuple(h.fragment_id for h in user_tier + cross_tier),
        detail=detail,
    )
    read_policy = rt.policies.resolve(u, a, t, Direction.READ)
    return apply_read(read_policy, user_tier + cross_tier, {"user": u.name, "agent": a.name})


def _next_message(
    rt: Runtime,
    query: str,
    briefs: Sequence[AgentBrief],
    history: Sequence[tuple[str, str]],
    accessible: frozenset[PrincipalId],
) -> CoordinationMessage:
    attempts = rt.limits.coordinator_retries + 1
    last_error: Exception | None = None
    for _ in range(attempts):
        try:
            message = rt.coordinator.decide(query, briefs, history)
        except CoordinatorProtocolViolation as exc:
            last_error = exc
            continue
        if message.stop:
            return message
        if message.agent in accessible:
            return message
        last_error = CoordinatorProtocolViolation(
            f"coordinator named inaccessible agent {message.agent}"
        )
    raise CoordinatorProtocolViolation(str(last_error))


def _agent_round(
    rt: Runtime, user: PrincipalId, message: CoordinationMessage, t: int, episode_id: str
) -> InteractionTrace:
    agent_id = message.agent
    subquery = message.subquery
    spec = rt.agents[agent_id]
    rt.audit.append(
        at=t,
        actor=user.name,
        action=AuditAction.AGENT_INVOKE,
        subjects=(agent_id.name,),
        detail={"episode": episode_id, "subquery": subquery},
    )
    view = audited_retrieve(rt, user, agent_id, t, subquery, episode_id)
    permitted = frozenset(
        r for r in rt.timeline.resources_of(agent_id, t) if r in rt.resources
    )

    def invoke(rid: PrincipalId, lookup: str) -> str:
        if rid not in permitted:
            raise ResourceNotPermitted(f"{agent_id} invoked unpermitted {rid}")
        result = rt.resources[rid].call(lookup)
        rt.audit.append(
            at=t,
            actor=agent_id.name,
            action=AuditAction.RESOURCE_INVOKE,
            subjects=(rid.name,),
            detail={"episode": episode_id, "user": user.name, "query": lookup},
        )
        return result

    if isinstance(spec.backend, ScriptedAgentBackend):
        response, invoked = scripted_agent_respond(spec, subquery, view, invoke, permitted)
    else:
        response, invoked = remote_agent_respond(spec, subquery, view, invoke, permitted)
    trace = InteractionTrace(
        user=user,
        agent=agent_id,
        timestamp=t,
        subquery=subquery,
        response=response,
        resources_invoked=tuple(invoked),
    )
    encode_and_write(
        trace,
        rt.policies,
        rt.store,
        rt.timeline,
        rt.embedder,
        id_factory=rt.id_factory,
        force_private=rt.force_private,
    )
    return trace


def run_episode(
    rt: Runtime,
    user: PrincipalId,
    query: str,
    t: int,
    bin_label: str = "all",
) -> QueryEpisode:
    """Serve one query end to end; see the module docstring for the loop.

    A user with no accessible agents, a coordinator that keeps violating the
    protocol, or a remote backend that fails (coordinator, agent, embedder,
    write-policy transformer, aggregator or judge) ends the episode with the
    designated failure answer; the episode still starts and ends in the
    audit log so failure episodes count toward query totals. Any other error
    (a remote agent asking for a resource it is not granted, an answer the
    store rejects) is raised after the episode's end is logged, its failure
    the error's class in snake case (``ResourceNotPermitted`` is
    ``"resource_not_permitted"``).
    """
    with rt.audit.operation():  # one flush for the episode's records
        rt.directory.require(user, PrincipalKind.USER)
        episode_id = rt.next_episode_id()
        rt.audit.append(
            at=t,
            actor=user.name,
            action=AuditAction.EPISODE_START,
            subjects=(episode_id,),
            detail={"bin": bin_label, "query": query},
        )
        accessible = frozenset(a for a in rt.timeline.agents_of(user, t) if a in rt.agents)
        steps: list[tuple[CoordinationMessage, InteractionTrace]] = []
        history: list[tuple[str, str]] = []
        failure: str | None = None
        score: float | None = None
        final_answer = NO_AGENTS_ANSWER

        def end(detail: dict[str, object]) -> None:
            rt.audit.append(t, user.name, AuditAction.EPISODE_END, (episode_id,), detail)

        if not accessible:
            failure = "no_accessible_agents"
        else:
            briefs = [
                AgentBrief(id=a, specialization=rt.agents[a].specialization)
                for a in sorted(accessible)
            ]
            try:
                while len(steps) < rt.limits.max_rounds:
                    try:
                        message = _next_message(rt, query, briefs, history, accessible)
                    except CoordinatorProtocolViolation:
                        failure = "coordinator_protocol"
                        break
                    if message.stop:
                        break
                    trace = _agent_round(rt, user, message, t, episode_id)
                    steps.append((message, trace))
                    history.append((trace.subquery, trace.response))
                if failure is None:
                    final_answer = rt.aggregator.aggregate(query, history)
                    if rt.judge is not None:
                        score = _judge_score(rt.judge, query, final_answer)
            except RemoteUnavailable:
                failure, final_answer = "remote_unavailable", NO_AGENTS_ANSWER
            except Exception as exc:  # the caller refuses the episode; its log still ends it
                end({"failure": _snake_case(type(exc).__name__), "rounds": len(steps)})
                raise

        end_detail: dict[str, object] = {"failure": failure, "rounds": len(steps)}
        if score is not None:
            end_detail["score"] = score
        end(end_detail)
        return QueryEpisode(
            episode_id=episode_id,
            user=user,
            query=query,
            timestamp=t,
            steps=steps,
            final_answer=final_answer,
            failure=failure,
        )


def _snake_case(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _judge_score(judge: Transformer, query: str, answer: str) -> float:
    raw = judge.apply(json.dumps({"query": query, "answer": answer}, sort_keys=True))
    try:
        score = float(raw)
    except ValueError:
        score = math.nan
    if not math.isfinite(score):
        raise RemoteUnavailable(f"judge returned no finite score: {raw!r}")
    return min(1.0, max(0.0, score))
