"""Offline re-verification of a run from its three artifacts.

Given only the audit log, the permission event log, and the store snapshot,
every access decision a run made can be re-derived and checked:

- the log itself is well-formed (gap-free sequence, non-decreasing ticks);
- each grant/revoke record matches a timeline event at the same tick;
- each agent invocation was covered by a user->agent edge at its tick;
- each resource invocation was covered by an agent->resource edge, and the
  user on whose behalf it ran held the user->agent edge;
- each fragment read names only fragments that exist, were created at or
  before the read tick, and were admissible for the (user, agent, tick) of
  the read under the tier/agent-subset/resource-subset clauses;
- each fragment write has provenance consistent with the permissions at its
  creation tick.

An honest run verifies clean; a log with any injected or altered record
yields at least one violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import wire
from .access import AccessTimeline
from .audit import AuditAction, AuditRecord, load_audit_file
from .errors import UnknownPrincipal
from .principals import (
    PrincipalDirectory,
    agent as agent_id,
    resource as resource_id,
    user as user_id,
)
from .store import MemoryStore


@dataclass(frozen=True)
class Violation:
    seq: int | None
    code: str
    message: str

    def __str__(self) -> str:
        where = f"seq={self.seq}" if self.seq is not None else "log"
        return f"[{self.code}] {where}: {self.message}"


def _present(timeline: AccessTimeline, edge, t: int) -> bool:
    """Edge check that treats never-registered principals as never granted."""
    try:
        return timeline.edge_present(edge, t)
    except UnknownPrincipal:
        return False


def _snapshot(query, pid, t: int) -> frozenset:
    try:
        return query(pid, t)
    except UnknownPrincipal:
        return frozenset()


def verify_run(
    records: Sequence[AuditRecord],
    timeline: AccessTimeline,
    store: MemoryStore,
) -> list[Violation]:
    violations: list[Violation] = []
    report = violations.append

    # exact (tick, action, edge-doc) triples recorded by the timeline
    event_index = {
        (e.tick, e.action.value, tuple(sorted(e.to_dict()["edge"].items())))
        for e in timeline.events
    }

    expected_seq = 0
    last_at = None
    for rec in records:
        if rec.seq != expected_seq:
            report(Violation(rec.seq, "seq_gap", f"expected seq {expected_seq}"))
        expected_seq = rec.seq + 1
        if last_at is not None and rec.at < last_at:
            report(Violation(rec.seq, "time_regression", f"tick {rec.at} after {last_at}"))
        last_at = rec.at

        if rec.action in (AuditAction.GRANT, AuditAction.REVOKE):
            edge_doc = rec.detail.get("edge")
            if not isinstance(edge_doc, dict):
                report(Violation(rec.seq, "permission_event_malformed", "no edge detail"))
                continue
            key = (rec.at, rec.action.value, tuple(sorted(edge_doc.items())))
            if key not in event_index:
                report(
                    Violation(
                        rec.seq,
                        "permission_event_mismatch",
                        f"no timeline event for {edge_doc} at tick {rec.at}",
                    )
                )

        elif rec.action is AuditAction.AGENT_INVOKE:
            u = user_id(rec.actor)
            for name in rec.subjects:
                if not _present(timeline, (u, agent_id(name)), rec.at):
                    report(
                        Violation(
                            rec.seq,
                            "agent_not_granted",
                            f"{rec.actor} invoked {name} at t={rec.at} without a grant",
                        )
                    )

        elif rec.action is AuditAction.RESOURCE_INVOKE:
            a = agent_id(rec.actor)
            for name in rec.subjects:
                if not _present(timeline, (a, resource_id(name)), rec.at):
                    report(
                        Violation(
                            rec.seq,
                            "resource_not_granted",
                            f"{rec.actor} reached {name} at t={rec.at} without a grant",
                        )
                    )
            u_name = rec.detail.get("user")
            if u_name is not None and not _present(
                timeline, (user_id(str(u_name)), a), rec.at
            ):
                report(
                    Violation(
                        rec.seq,
                        "user_agent_not_granted",
                        f"{u_name} drove {rec.actor} at t={rec.at} without a grant",
                    )
                )

        elif rec.action is AuditAction.FRAGMENT_READ:
            u_name = rec.detail.get("user", rec.actor)
            a_name = rec.detail.get("agent")
            if a_name is None:
                report(Violation(rec.seq, "read_malformed", "no agent in read detail"))
                continue
            u = user_id(str(u_name))
            a = agent_id(str(a_name))
            for fid in rec.subjects:
                if fid not in store:
                    report(
                        Violation(rec.seq, "fragment_unknown", f"read of unknown {fid}")
                    )
                    continue
                fragment = store.get(fid)
                if fragment.provenance.created_at > rec.at:
                    report(
                        Violation(
                            rec.seq,
                            "fragment_future_read",
                            f"{fid} created at {fragment.provenance.created_at}, "
                            f"read at {rec.at}",
                        )
                    )
                try:
                    decision = store.explain(timeline, u, a, rec.at, fid)
                except UnknownPrincipal as exc:
                    report(
                        Violation(rec.seq, "unknown_principal", str(exc))
                    )
                    continue
                if not decision.admitted:
                    report(
                        Violation(
                            rec.seq,
                            "fragment_not_admissible",
                            f"{fid} read by ({u_name}, {a_name}) at t={rec.at} "
                            f"fails {decision.failed_clause.value}",
                        )
                    )

        elif rec.action is AuditAction.FRAGMENT_WRITE:
            for fid in rec.subjects:
                if fid not in store:
                    report(
                        Violation(rec.seq, "fragment_unknown", f"write of unknown {fid}")
                    )
                    continue
                prov = store.get(fid).provenance
                creator_agents = _snapshot(timeline.agents_of, prov.creator, prov.created_at)
                if not prov.agents <= creator_agents:
                    report(
                        Violation(
                            rec.seq,
                            "write_agents_not_granted",
                            f"{fid}: contributing agents outside "
                            f"{prov.creator.name}'s grant at t={prov.created_at}",
                        )
                    )
                reachable = frozenset().union(
                    *(
                        _snapshot(timeline.resources_of, a, prov.created_at)
                        for a in prov.agents
                    )
                )
                if not prov.resources <= reachable:
                    report(
                        Violation(
                            rec.seq,
                            "write_resources_not_granted",
                            f"{fid}: touched resources outside the contributing "
                            f"agents' grants at t={prov.created_at}",
                        )
                    )

    return violations


def verify_files(
    audit_path: str | Path,
    timeline_path: str | Path,
    store_path: str | Path,
) -> list[Violation]:
    """Verify a run from its three files; principals are taken from the
    timeline and the store themselves, so no extra declaration is needed. A
    record naming a principal that neither file knows is a violation."""
    directory = PrincipalDirectory()
    timeline = AccessTimeline.load(timeline_path, directory=directory)
    if next(wire.load(store_path), None) is not None:
        store = MemoryStore.load(store_path, directory=directory)
    else:
        store = MemoryStore(dimension=1, directory=directory)
    return verify_run(load_audit_file(audit_path), timeline, store)
