"""Time-indexed bipartite permission graphs, event-sourced.

Two edge populations evolve over logical time: user->agent ("who may invoke
whom") and agent->resource ("who may touch what"). The timeline is an
append-only log of grant/revoke events; snapshot queries answer "which
agents can this user invoke at tick t" (and the resource analogue) by
replaying the log up to t. Queries are served from per-edge sorted event
indexes rather than materialized per-tick graphs, so long histories stay
cheap to snapshot. A per-source adjacency index over the same histories makes
``agents_of`` / ``resources_of`` cost O(degree * log history) rather than a
scan of every edge ever granted.

Mutations must arrive in strictly increasing tick order. Granting a present
edge or revoking an absent one is a hard error rather than a no-op: silent
idempotence hides schedule bugs.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Mapping

from .audit import AuditAction, AuditLog
from .errors import DuplicateEdge, EdgeNotPresent, NonMonotonicTimestamp
from .principals import PrincipalDirectory, PrincipalId, PrincipalKind, agent, resource, user


class EdgeKind(Enum):
    USER_AGENT = "user_agent"
    AGENT_RESOURCE = "agent_resource"


class PermissionAction(str, Enum):
    GRANT = "grant"
    REVOKE = "revoke"


Edge = tuple[PrincipalId, PrincipalId]
History = tuple[list[int], list[PermissionAction]]  # parallel ticks and actions of one edge


def classify_edge(edge: Edge) -> EdgeKind:
    """Return the population an edge belongs to, or raise ``ValueError``."""
    a, b = edge
    if a.kind is PrincipalKind.USER and b.kind is PrincipalKind.AGENT:
        return EdgeKind.USER_AGENT
    if a.kind is PrincipalKind.AGENT and b.kind is PrincipalKind.RESOURCE:
        return EdgeKind.AGENT_RESOURCE
    raise ValueError(f"not a user->agent or agent->resource edge: {a}, {b}")


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
        edge_doc = data["edge"]
        if "user" in edge_doc:
            edge: Edge = (user(edge_doc["user"]), agent(edge_doc["agent"]))
        elif "resource" in edge_doc:
            edge = (agent(edge_doc["agent"]), resource(edge_doc["resource"]))
        else:
            raise ValueError(f"unrecognized edge document: {edge_doc!r}")
        return cls(
            tick=int(data["tick"]),
            action=PermissionAction(data["action"]),
            edge=edge,
        )


def _held(history: History, t: int) -> bool:
    """Whether an edge with this (ticks, actions) history is granted at ``t``."""
    ticks, actions = history
    idx = bisect_right(ticks, t)
    return idx > 0 and actions[idx - 1] is PermissionAction.GRANT


class AccessTimeline:
    """Append-only permission history with snapshot queries.

    When an :class:`AuditLog` is attached, every grant/revoke also lands
    there (actor ``admin_actor``), which is what the offline verifier
    cross-checks against.
    """

    def __init__(
        self,
        directory: PrincipalDirectory,
        audit: AuditLog | None = None,
        admin_actor: str = "admin",
    ) -> None:
        self.directory = directory
        self._audit = audit
        self._admin_actor = admin_actor
        self._events: list[PermissionEvent] = []
        # per-edge histories, bisectable by tick
        self._per_edge: dict[Edge, History] = {}
        # the same histories keyed source -> destination
        self._out: dict[PrincipalId, dict[PrincipalId, History]] = {}

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
        """Swap the audit sink; used when resuming from exported artifacts
        so replayed history is not re-logged."""
        self._audit = audit

    def _validate_edge(self, edge: Edge) -> None:
        kind = classify_edge(edge)
        if kind is EdgeKind.USER_AGENT:
            self.directory.require(edge[0], PrincipalKind.USER)
            self.directory.require(edge[1], PrincipalKind.AGENT)
        else:
            self.directory.require(edge[0], PrincipalKind.AGENT)
            self.directory.require(edge[1], PrincipalKind.RESOURCE)

    def _validate_tick(self, at: int) -> None:
        if at < 0:
            raise NonMonotonicTimestamp(f"tick {at} is negative")
        if at <= self.latest_tick:
            raise NonMonotonicTimestamp(
                f"tick {at} is not after timeline head {self.latest_tick}"
            )

    def _append(self, event: PermissionEvent) -> PermissionEvent:
        self._events.append(event)
        history = self._per_edge.get(event.edge)
        if history is None:
            history = self._per_edge[event.edge] = ([], [])
            self._out.setdefault(event.edge[0], {})[event.edge[1]] = history
        ticks, actions = history
        ticks.append(event.tick)
        actions.append(event.action)
        if self._audit is not None:
            self._audit.append(
                at=event.tick,
                actor=self._admin_actor,
                action=AuditAction.GRANT
                if event.action is PermissionAction.GRANT
                else AuditAction.REVOKE,
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
        history = self._per_edge.get(edge)
        return history is not None and _held(history, t)

    def _targets(self, source: PrincipalId, t: int) -> frozenset[PrincipalId]:
        return frozenset(
            dst for dst, history in self._out.get(source, {}).items() if _held(history, t)
        )

    def edge_present(self, edge: Edge, t: int) -> bool:
        self._validate_edge(edge)
        return self._present(edge, t)

    def agents_of(self, u: PrincipalId, t: int) -> frozenset[PrincipalId]:
        """Agents user ``u`` may invoke at tick ``t``."""
        self.directory.require(u, PrincipalKind.USER)
        return self._targets(u, t)

    def resources_of(self, a: PrincipalId, t: int) -> frozenset[PrincipalId]:
        """Resources agent ``a`` may access at tick ``t``."""
        self.directory.require(a, PrincipalKind.AGENT)
        return self._targets(a, t)

    def edges_at(self, t: int, kind: EdgeKind | None = None) -> frozenset[Edge]:
        return frozenset(
            e
            for e in self._per_edge
            if (kind is None or classify_edge(e) is kind) and self._present(e, t)
        )

    def edge_count(self, t: int, kind: EdgeKind | None = None) -> int:
        return len(self.edges_at(t, kind))

    # -- line-delimited JSON event log

    def export_jsonl(self, fp: IO[str]) -> None:
        for event in self._events:
            fp.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in self._events
        )

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fp:
            self.export_jsonl(fp)

    @classmethod
    def from_jsonl(
        cls,
        lines: Iterable[str] | str,
        directory: PrincipalDirectory | None = None,
        audit: AuditLog | None = None,
    ) -> "AccessTimeline":
        """Rebuild a timeline from an event log.

        Principals appearing in events are auto-registered when no directory
        is supplied (or added to the supplied one), so a bare event log is
        self-describing.
        """
        if isinstance(lines, str):
            lines = lines.splitlines()
        directory = directory if directory is not None else PrincipalDirectory()
        timeline = cls(directory, audit=audit)
        for line in lines:
            if not line.strip():
                continue
            event = PermissionEvent.from_dict(json.loads(line))
            directory.register(event.edge[0])
            directory.register(event.edge[1])
            timeline.apply(event.action, event.edge, event.tick)
        return timeline

    @classmethod
    def load(
        cls,
        path: str | Path,
        directory: PrincipalDirectory | None = None,
        audit: AuditLog | None = None,
    ) -> "AccessTimeline":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"), directory, audit)
