"""Time-indexed bipartite permission graphs, event-sourced.

Two edge populations evolve over logical time: user->agent ("who may invoke
whom") and agent->resource ("who may touch what"). The timeline is an
append-only log of grant/revoke events; snapshot queries answer "which
agents can this user invoke at tick t" (and the resource analogue) by
replaying the log up to t. Each source keeps its granted set as of each
of its events, so ``agents_of`` / ``resources_of`` are one bisect that
returns that stored frozenset, and an edge query is that bisect and a
membership test. Equal stored sets are one object, with its hash cached, so
callers can key caches by it at the cost of an identity check.

Mutations must arrive in strictly increasing tick order. Granting a present
edge or revoking an absent one is a hard error rather than a no-op: silent
idempotence hides schedule bugs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from . import wire
from .audit import AuditAction, AuditLog, AuditRecord
from .errors import DuplicateEdge, EdgeNotPresent, NonMonotonicTimestamp
from .principals import PrincipalDirectory, PrincipalId, PrincipalKind, agent, resource, user


class EdgeKind(Enum):
    USER_AGENT = "user_agent"
    AGENT_RESOURCE = "agent_resource"


class PermissionAction(str, Enum):
    GRANT = "grant"
    REVOKE = "revoke"


Edge = tuple[PrincipalId, PrincipalId]


def classify_edge(edge: Edge) -> EdgeKind:
    """Return the population an edge belongs to, or raise ``ValueError``."""
    a, b = edge
    if a.kind is PrincipalKind.USER and b.kind is PrincipalKind.AGENT:
        return EdgeKind.USER_AGENT
    if a.kind is PrincipalKind.AGENT and b.kind is PrincipalKind.RESOURCE:
        return EdgeKind.AGENT_RESOURCE
    raise ValueError(f"not a user->agent or agent->resource edge: {a}, {b}")


def edge_from_doc(doc: object) -> Edge:
    """The edge a ``{"user", "agent"}`` or ``{"agent", "resource"}`` document
    names; raise ``ValueError`` for any other document, or a name that is
    empty or not a string."""
    if isinstance(doc, Mapping) and all(isinstance(name, str) for name in doc.values()):
        if set(doc) == {"user", "agent"}:
            return (user(doc["user"]), agent(doc["agent"]))
        if set(doc) == {"agent", "resource"}:
            return (agent(doc["agent"]), resource(doc["resource"]))
    raise ValueError(f"edge must name user/agent or agent/resource as text: {doc!r}")


@dataclass(frozen=True)
class PermissionEvent:
    tick: int
    action: PermissionAction
    edge: Edge

    def to_dict(self) -> dict:
        a, b = self.edge
        if classify_edge(self.edge) is EdgeKind.USER_AGENT:
            edge_doc: dict = {"user": a.name, "agent": b.name}
        else:
            edge_doc = {"agent": a.name, "resource": b.name}
        return {"tick": self.tick, "action": self.action.value, "edge": edge_doc}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PermissionEvent":
        return cls(
            tick=int(data["tick"]),
            action=PermissionAction(data["action"]),
            edge=edge_from_doc(data["edge"]),
        )

    @classmethod
    def from_record(cls, rec: AuditRecord) -> "PermissionEvent":
        """The event a grant or revoke record logs; ``ValueError`` for any other record."""
        action = PermissionAction(rec.action.value)
        return cls(rec.at, action, edge_from_doc(rec.detail.get("edge")))


class AccessTimeline:
    """Append-only permission history with snapshot queries.

    When an :class:`AuditLog` is attached, every grant/revoke also lands
    there (actor ``admin``); resume and the offline verifier rebuild the
    timeline from those records with :meth:`restore`.
    """

    def __init__(self, directory: PrincipalDirectory, audit: AuditLog | None = None) -> None:
        self.directory = directory
        self._audit = audit
        self._events: list[PermissionEvent] = []
        # per source, its granted targets after each of its events; equal sets are one object
        self._targets: dict[PrincipalId, tuple[list[int], list[frozenset[PrincipalId]]]] = {}
        self._sets: dict[frozenset[PrincipalId], frozenset[PrincipalId]] = {}

    # -- mutation

    def grant(self, edge: Edge, at: int) -> PermissionEvent:
        """Record that ``edge`` holds from ``at`` until a later revoke."""
        self._validate_edge(edge)
        self._validate_tick(at)
        if self._present(edge, at):
            raise DuplicateEdge(f"{edge[0]} -> {edge[1]} already granted at {at}")
        return self._append(PermissionEvent(at, PermissionAction.GRANT, edge))

    def revoke(self, edge: Edge, at: int) -> PermissionEvent:
        """Record that ``edge`` stops holding from ``at`` until re-granted."""
        self._validate_edge(edge)
        self._validate_tick(at)
        if not self._present(edge, at):
            raise EdgeNotPresent(f"{edge[0]} -> {edge[1]} not granted at {at}")
        return self._append(PermissionEvent(at, PermissionAction.REVOKE, edge))

    def apply(self, action: PermissionAction, edge: Edge, at: int) -> PermissionEvent:
        if action is PermissionAction.GRANT:
            return self.grant(edge, at)
        return self.revoke(edge, at)

    def attach_audit(self, audit: AuditLog | None) -> None:
        """Swap the audit sink; a resumed runtime attaches its log after the
        history was rebuilt from it, so nothing is logged twice."""
        self._audit = audit

    def _validate_edge(self, edge: Edge) -> None:
        classify_edge(edge)  # raises for a pair of any other kinds
        for pid in edge:
            self.directory.require(pid)

    def _validate_tick(self, at: int) -> None:
        if at < 0:
            raise NonMonotonicTimestamp(f"tick {at} is negative")
        if at <= self.latest_tick:
            raise NonMonotonicTimestamp(
                f"tick {at} is not after timeline head {self.latest_tick}"
            )

    def _append(self, event: PermissionEvent) -> PermissionEvent:
        self._events.append(event)
        at, sets = self._targets.setdefault(event.edge[0], ([], []))
        held, dst = sets[-1] if sets else frozenset(), {event.edge[1]}
        granted = held | dst if event.action is PermissionAction.GRANT else held - dst
        sets.append(self._sets.setdefault(granted, granted))  # before its tick: no bisect overruns
        at.append(event.tick)
        if self._audit is not None:
            self._audit.append(
                at=event.tick,
                actor="admin",
                action=AuditAction(event.action.value),
                subjects=(str(event.edge[0]), str(event.edge[1])),
                detail={"edge": event.to_dict()["edge"]},
            )
        return event

    # -- snapshots

    @property
    def latest_tick(self) -> int:
        """Tick of the newest event, or -1 when the timeline is empty."""
        return self._events[-1].tick if self._events else -1

    @property
    def events(self) -> tuple[PermissionEvent, ...]:
        return tuple(self._events)

    def _present(self, edge: Edge, t: int) -> bool:
        return edge[1] in self._granted(edge[0], t)

    def _granted(self, source: PrincipalId, t: int) -> frozenset[PrincipalId]:
        ticks, sets = self._targets.get(source, ((), ()))
        idx = bisect_right(ticks, t)
        return sets[idx - 1] if idx else frozenset()

    def edge_present(self, edge: Edge, t: int) -> bool:
        self._validate_edge(edge)
        return self._present(edge, t)

    def agents_of(self, u: PrincipalId, t: int) -> frozenset[PrincipalId]:
        """Agents user ``u`` may invoke at tick ``t``."""
        self.directory.require(u, PrincipalKind.USER)
        return self._granted(u, t)

    def resources_of(self, a: PrincipalId, t: int) -> frozenset[PrincipalId]:
        """Resources agent ``a`` may access at tick ``t``."""
        self.directory.require(a, PrincipalKind.AGENT)
        return self._granted(a, t)

    def edges_at(self, t: int, kind: EdgeKind | None = None) -> frozenset[Edge]:
        edges = ((source, dst) for source in self._targets for dst in self._granted(source, t))
        return frozenset(e for e in edges if kind is None or classify_edge(e) is kind)

    def edge_count(self, t: int, kind: EdgeKind | None = None) -> int:
        return len(self.edges_at(t, kind))

    # -- line-delimited JSON event log

    def to_jsonl(self) -> str:
        return "".join(wire.encode(e.to_dict()) for e in self._events)

    def save(self, path: str | Path) -> None:
        wire.dump(path, (e.to_dict() for e in self._events))

    def restore(self, event: PermissionEvent) -> None:
        """Apply a logged ``event``, first registering the principals it names: the
        one step that rebuilds a timeline from an event log or an audit log."""
        self.directory.register(event.edge[0])
        self.directory.register(event.edge[1])
        self.apply(event.action, event.edge, event.tick)

    @classmethod
    def from_jsonl(
        cls, lines: Iterable[str] | str, directory: PrincipalDirectory | None = None
    ) -> "AccessTimeline":
        """Rebuild a timeline, without an audit sink, from an event log; principals
        the events name are registered in ``directory`` (a fresh one when none is given)."""
        timeline = cls(directory if directory is not None else PrincipalDirectory())
        for doc in wire.decode(lines):
            timeline.restore(PermissionEvent.from_dict(doc))
        return timeline

    @classmethod
    def load(cls, path: str | Path, **kwargs) -> "AccessTimeline":
        with Path(path).open(encoding="utf-8") as fp:
            return cls.from_jsonl(fp, **kwargs)
