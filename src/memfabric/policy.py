"""Read/write policies: scope resolution and content transformers.

A policy binding attaches a transformer to a (scope, direction) pair, where
direction is one of read, write-private, write-shared. Scopes form a
specificity ladder - global < time-window < agent < user - and resolution
picks the matching binding of highest rank, falling back to the identity
transformer. Two matches at the same rank are an error, not a coin flip.

Transformers rewrite fragment content only. They never touch provenance,
never add or reorder fragments on the read path, and a transformer failure
on the write path fails the whole write: a fragment silently skipping
redaction would be a confidentiality bug.

Redactor rules are (regex, replacement) pairs applied in order. Patterns may
contain the placeholders ``{user}`` and ``{agent}``, expanded (escaped) from
the interaction context before matching - that is how a shared-tier policy
strips the contributing user's name without knowing it in advance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from . import wire
from .access import AccessTimeline
from .errors import AmbiguousBinding, InvalidFragment, ResourceNotPermitted
from .principals import PrincipalId, PrincipalKind
from .retrieval import Embedder, RankedFragment
from .store import MemoryFragment, MemoryStore, Provenance, Tier, new_fragment_id

DEFAULT_PRIVATE_WRITE_PROMPT = (
    "Condense this exchange into one standalone key-value memory for the same "
    "user's future queries. The key is a short topic or question; the value is "
    "a complete, self-contained answer."
)
DEFAULT_SHARED_WRITE_PROMPT = (
    "Condense this exchange into one key-value memory that any permitted user "
    "could benefit from. Strip names, personal details, and user-specific "
    "context. The key is a short topic or question; the value is a complete, "
    "self-contained answer."
)


class Direction(str, Enum):
    READ = "read"
    WRITE_PRIVATE = "write_private"
    WRITE_SHARED = "write_shared"


class ScopeLevel(IntEnum):
    """Specificity rank; higher wins at resolution."""

    GLOBAL = 0
    TIME_WINDOW = 1
    AGENT = 2
    USER = 3


@dataclass(frozen=True)
class Scope:
    level: ScopeLevel
    user: PrincipalId | None = None
    agent: PrincipalId | None = None
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.level is ScopeLevel.USER and (
            self.user is None or self.user.kind is not PrincipalKind.USER
        ):
            raise ValueError("user scope needs a user principal")
        if self.level is ScopeLevel.AGENT and (
            self.agent is None or self.agent.kind is not PrincipalKind.AGENT
        ):
            raise ValueError("agent scope needs an agent principal")
        if self.level is ScopeLevel.TIME_WINDOW:
            if self.window is None or self.window[0] > self.window[1]:
                raise ValueError("time window needs start <= end")

    @classmethod
    def everywhere(cls) -> "Scope":
        return cls(ScopeLevel.GLOBAL)

    @classmethod
    def for_user(cls, u: PrincipalId) -> "Scope":
        return cls(ScopeLevel.USER, user=u)

    @classmethod
    def for_agent(cls, a: PrincipalId) -> "Scope":
        return cls(ScopeLevel.AGENT, agent=a)

    @classmethod
    def during(cls, start: int, end: int) -> "Scope":
        return cls(ScopeLevel.TIME_WINDOW, window=(start, end))

    def matches(self, u: PrincipalId, a: PrincipalId, t: int) -> bool:
        if self.level is ScopeLevel.GLOBAL:
            return True
        if self.level is ScopeLevel.USER:
            return self.user == u
        if self.level is ScopeLevel.AGENT:
            return self.agent == a
        start, end = self.window  # type: ignore[misc]
        return start <= t <= end


Context = Mapping[str, str]


@runtime_checkable
class Transformer(Protocol):
    def apply(self, text: str, context: Context | None = None) -> str: ...


@dataclass(frozen=True)
class IdentityTransform:
    def apply(self, text: str, context: Context | None = None) -> str:
        return text


IDENTITY = IdentityTransform()

_PLACEHOLDER = re.compile(r"\{(user|agent)\}")


@dataclass(frozen=True)
class Redactor:
    """Ordered (pattern, replacement) rewrite rules.

    A rule whose pattern contains a placeholder with no value in the current
    context is skipped rather than matched literally.
    """

    rules: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple((p, r) for p, r in self.rules))

    def apply(self, text: str, context: Context | None = None) -> str:
        out = text
        for pattern, replacement in self.rules:
            expanded = self._expand(pattern, context)
            if expanded is None:
                continue
            out = re.sub(expanded, replacement, out)
        return out

    @staticmethod
    def _expand(pattern: str, context: Context | None) -> str | None:
        names = _PLACEHOLDER.findall(pattern)
        if not names:
            return pattern
        expanded = pattern
        for name in names:
            value = (context or {}).get(name)
            if not value:
                return None
            expanded = expanded.replace("{" + name + "}", re.escape(value))
        return expanded


@dataclass(frozen=True)
class PromptedRemote:
    """Remote chat transformer: {"system": ..., "input": ...} -> {"output": ...}."""

    system_prompt: str
    endpoint: str
    timeout: float = 30.0

    def apply(self, text: str, context: Context | None = None) -> str:
        return wire.chat(self.endpoint, self.system_prompt, text, self.timeout)


@dataclass(frozen=True)
class PolicyBinding:
    scope: Scope
    direction: Direction
    transformer: Transformer


class PolicyTable:
    """Bindings indexed for resolution; at most one per (scope, direction)."""

    def __init__(self, bindings: Sequence[PolicyBinding] = ()) -> None:
        self._bindings: list[PolicyBinding] = []
        for b in bindings:
            self.add(b)

    def add(self, binding: PolicyBinding) -> None:
        for existing in self._bindings:
            if existing.scope == binding.scope and existing.direction == binding.direction:
                raise AmbiguousBinding(
                    f"binding already present for {binding.scope} / {binding.direction.value}"
                )
        self._bindings.append(binding)

    def resolve(
        self, u: PrincipalId, a: PrincipalId, t: int, direction: Direction
    ) -> Transformer:
        """Matching transformer of highest specificity; identity if none."""
        matches = [
            b
            for b in self._bindings
            if b.direction is direction and b.scope.matches(u, a, t)
        ]
        if not matches:
            return IDENTITY
        top = max(b.scope.level for b in matches)
        winners = [b for b in matches if b.scope.level == top]
        if len(winners) > 1:
            raise AmbiguousBinding(
                f"{len(winners)} bindings match {direction.value} for ({u}, {a}, t={t}) "
                f"at rank {top.name}"
            )
        return winners[0].transformer


def apply_read(
    transformer: Transformer,
    view: Sequence[RankedFragment],
    context: Context | None = None,
) -> list[RankedFragment]:
    """Project a retrieved view through a read policy.

    Content (key and value) may be rewritten; cardinality, order, ids,
    scores, and tier tags are preserved exactly.
    """
    if isinstance(transformer, IdentityTransform):
        return list(view)
    out = []
    for hit in view:
        out.append(
            RankedFragment(
                fragment_id=hit.fragment_id,
                similarity=hit.similarity,
                tier=hit.tier,
                key=transformer.apply(hit.key, context),
                value=transformer.apply(hit.value, context),
                created_at=hit.created_at,
            )
        )
    return out


@dataclass(frozen=True)
class InteractionTrace:
    """One (user, agent) exchange: the subquery, the agent's response, and
    the resources actually invoked while producing it."""

    user: PrincipalId
    agent: PrincipalId
    timestamp: int
    subquery: str
    response: str
    resources_invoked: tuple[PrincipalId, ...] = ()

    def context(self) -> dict[str, str]:
        return {"user": self.user.name, "agent": self.agent.name}


def encode_and_write(
    trace: InteractionTrace,
    policies: PolicyTable,
    store: MemoryStore,
    timeline: AccessTimeline,
    embedder: Embedder,
    id_factory: Callable[[], str] = new_fragment_id,
    force_private: bool = False,
) -> list[str]:
    """Persist a trace as two fragments, one per write policy.

    The trace's one fragment - key = subquery, value = response - is written
    through the private write policy (tier=private) and through the shared
    write policy (tier=shared, or private again under ``force_private``,
    which is how isolated-memory runs disable cross-user transfer).
    Provenance is taken verbatim from the trace - transformers cannot
    influence it. Both transformations run, and both fragments pass the
    store's insert checks, before the first insert, so a transformer failure
    or a rejected fragment (say, an empty response) leaves neither stored or
    audited. Ids are drawn from ``id_factory`` only after every check has
    passed, so a rejected write draws none and the ids drawn always equal the
    fragments stored. Each distinct key is embedded and checked once, so
    under identity policies the two fragments share one embedding call; the
    inserts skip the check.
    """
    permitted = timeline.resources_of(trace.agent, trace.timestamp)
    for r in trace.resources_invoked:
        if r not in permitted:
            raise ResourceNotPermitted(
                f"trace claims {r} outside {trace.agent}'s grant at t={trace.timestamp}"
            )
    provenance = Provenance(
        created_at=trace.timestamp,
        creator=trace.user,
        agents=frozenset({trace.agent}),
        resources=frozenset(trace.resources_invoked),
    )
    context = trace.context()
    pending: list[tuple[Tier, str, str]] = []
    embeddings: dict[str, np.ndarray] = {}
    for direction, tier in (
        (Direction.WRITE_PRIVATE, Tier.PRIVATE),
        (Direction.WRITE_SHARED, Tier.SHARED),
    ):
        transformer = policies.resolve(trace.user, trace.agent, trace.timestamp, direction)
        key = transformer.apply(trace.subquery, context)
        value = transformer.apply(trace.response, context)
        if not key or not value:
            raise InvalidFragment("fragment key and value must be non-empty")
        if key not in embeddings:
            embeddings[key] = embedder.embed(key)
            store.check(embeddings[key], provenance)
        pending.append((Tier.PRIVATE if force_private else tier, key, value))
    fragments = [
        MemoryFragment(
            id=id_factory(),
            tier=tier,
            key=key,
            value=value,
            embedding=embeddings[key],
            provenance=provenance,
        )
        for tier, key, value in pending
    ]
    return [store.insert(fragment, checked=True) for fragment in fragments]
