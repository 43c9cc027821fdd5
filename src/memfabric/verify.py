"""Offline re-verification of a run from its audit log.

The audit log is the one source of truth: the permission timeline and the
store (whose embeddings no check reads) are replayed from its records unless
an exported event log or store snapshot is given, which must then equal
them. Every access decision a run made is re-derived and checked:

- the log itself is well-formed (gap-free sequence, non-decreasing ticks,
  no torn last line: ``log_torn_tail``), and every episode the log goes on
  past ended (``episode_unterminated``): only the episode still open at its
  end, the operation a killed process loses, may lack its ``episode_end``;
- each grant/revoke record matches the timeline event at its tick
  (``permission_event_mismatch``, or ``permission_event_malformed`` for an
  edge that does not parse), and each timeline event has such a record
  (``permission_event_unaudited``);
- each agent invocation was covered by a user->agent edge at its tick;
- each resource invocation was covered by an agent->resource edge, and the
  user on whose behalf it ran held the user->agent edge;
- each fragment read names only fragments that exist, were created at or
  before the read tick, and were admissible for the (user, agent, tick) of
  the read under the tier/agent-subset/resource-subset clauses;
- each stored fragment has exactly one ``fragment_write`` record
  (``fragment_unaudited``, ``fragment_rewritten``) that holds all of it but
  its embedding (``write_provenance_mismatch``), and its provenance is
  consistent with the permissions at its creation tick.

An honest run verifies clean; a log with any injected or altered record
yields at least one violation.

The log is streamed a record at a time through
:func:`~memfabric.audit.iter_audit_file`, once with both exports given, else
twice: a :class:`~memfabric.store.LogState` fold, as on resume, replays what
is not given, then the checks run, so memory grows with the store and the
timeline, not the log. A read takes its reader's grants once and checks each
id by the scalar rule :func:`memfabric.store.failed_clause`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import wire
from .access import AccessTimeline, PermissionEvent
from .audit import AuditAction, AuditRecord, iter_audit_file, torn_tail
from .errors import UnknownPrincipal
from .principals import (
    PrincipalDirectory,
    agent as agent_id,
    resource as resource_id,
    user as user_id,
)
from .store import LogState, MemoryStore, failed_clause, frozen_vector, write_detail


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
    records: Iterable[AuditRecord],
    timeline: AccessTimeline,
    store: MemoryStore,
) -> list[Violation]:
    violations: list[Violation] = []

    def report(seq: int | None, code: str, message: str) -> None:
        violations.append(Violation(seq, code, message))

    # the timeline's events by tick (ticks are unique); each record claims its own
    unclaimed = {e.tick: e for e in timeline.events}
    written: set[str] = set()
    expected_seq = 0
    last_at = None
    started: AuditRecord | None = None  # the episode_start of the episode in progress
    for rec in records:
        seq, at = rec.seq, rec.at
        if seq != expected_seq:
            report(seq, "seq_gap", f"expected seq {expected_seq}")
        expected_seq = seq + 1
        if last_at is not None and at < last_at:
            report(seq, "time_regression", f"tick {at} after {last_at}")
        last_at = at

        # an episode holds one tick; a later tick or episode means it is over
        if started is not None and (at > started.at or rec.action is AuditAction.EPISODE_START):
            message = f"episode {' '.join(started.subjects)} at t={started.at} never ended"
            report(started.seq, "episode_unterminated", message)
            started = None
        if rec.action is AuditAction.EPISODE_START:
            started = rec
        elif rec.action is AuditAction.EPISODE_END and started and rec.subjects == started.subjects:
            started = None

        if rec.action in (AuditAction.GRANT, AuditAction.REVOKE):
            try:
                event = PermissionEvent.from_record(rec)
            except ValueError as exc:
                report(seq, "permission_event_malformed", str(exc))
                continue
            if unclaimed.get(at) == event:
                del unclaimed[at]
            else:
                message = f"no timeline event for {rec.detail['edge']} at tick {at}"
                report(seq, "permission_event_mismatch", message)

        elif rec.action is AuditAction.AGENT_INVOKE:
            u = user_id(rec.actor)
            for name in rec.subjects:
                if not _present(timeline, (u, agent_id(name)), at):
                    message = f"{rec.actor} invoked {name} at t={at} without a grant"
                    report(seq, "agent_not_granted", message)

        elif rec.action is AuditAction.RESOURCE_INVOKE:
            a = agent_id(rec.actor)
            for name in rec.subjects:
                if not _present(timeline, (a, resource_id(name)), at):
                    message = f"{rec.actor} reached {name} at t={at} without a grant"
                    report(seq, "resource_not_granted", message)
            u_name = rec.detail.get("user")
            if u_name is not None and not _present(timeline, (user_id(str(u_name)), a), at):
                message = f"{u_name} drove {rec.actor} at t={at} without a grant"
                report(seq, "user_agent_not_granted", message)

        elif rec.action is AuditAction.FRAGMENT_READ:
            u_name = rec.detail.get("user", rec.actor)
            a_name = rec.detail.get("agent")
            if a_name is None:
                report(seq, "read_malformed", "no agent in read detail")
                continue
            u = user_id(str(u_name))
            a = agent_id(str(a_name))
            try:  # the reader's grants, taken once for all of its ids
                granted, unknown = (timeline.agents_of(u, at), timeline.resources_of(a, at)), None
            except UnknownPrincipal as exc:
                granted, unknown = None, str(exc)
            for fid in rec.subjects:
                if fid not in store:
                    report(seq, "fragment_unknown", f"read of unknown {fid}")
                    continue
                fragment = store.get(fid)
                created_at = fragment.provenance.created_at
                if created_at > at:
                    message = f"{fid} created at {created_at}, read at {at}"
                    report(seq, "fragment_future_read", message)
                if granted is None:
                    report(seq, "unknown_principal", unknown)
                    continue
                clause = failed_clause(fragment, u, *granted)
                if clause is not None:
                    message = f"{fid} read by ({u_name}, {a_name}) at t={at} fails {clause.value}"
                    report(seq, "fragment_not_admissible", message)

        elif rec.action is AuditAction.FRAGMENT_WRITE:
            for fid in rec.subjects:
                if fid not in store:
                    report(seq, "fragment_unknown", f"write of unknown {fid}")
                    continue
                fragment = store.get(fid)
                prov = fragment.provenance
                if fid in written:
                    report(seq, "fragment_rewritten", f"second write of {fid}")
                written.add(fid)
                if (rec.actor, at, rec.detail) != (
                    prov.creator.name, prov.created_at, write_detail(fragment)
                ):
                    report(seq, "write_provenance_mismatch", f"{fid}: stored provenance differs")
                t = prov.created_at
                if not prov.agents <= _snapshot(timeline.agents_of, prov.creator, t):
                    message = f"{fid}: contributing agents outside {prov.creator.name}'s grant"
                    report(seq, "write_agents_not_granted", f"{message} at t={t}")
                reachable = [_snapshot(timeline.resources_of, a, t) for a in prov.agents]
                if not prov.resources <= frozenset().union(*reachable):
                    message = f"{fid}: touched resources outside the contributing agents' grants"
                    report(seq, "write_resources_not_granted", f"{message} at t={t}")

    for event in unclaimed.values():
        edge = " -> ".join(map(str, event.edge))
        report(None, "permission_event_unaudited", f"{event.action.value} {edge} at {event.tick}")
    for fragment in store.fragments():
        if fragment.id not in written:
            report(None, "fragment_unaudited", f"no write record of {fragment.id}")
    return violations


def verify_files(
    audit_path: str | Path,
    timeline_path: str | Path | None = None,
    store_path: str | Path | None = None,
) -> list[Violation]:
    """Verify a run from its files; principals are taken from the log, the
    timeline and the store themselves, so no extra declaration is needed. A
    record naming a principal that none of them knows is a violation. Without
    ``timeline_path`` or ``store_path`` it is replayed from the log, leaving
    out what does not replay (each such record is then a violation). A torn
    last line is one violation; the records before it are checked."""
    directory = PrincipalDirectory()
    tail = torn_tail(audit_path)
    unit = frozen_vector([1.0])  # no check reads an embedding: every fragment shares one
    replayed = LogState(embed=lambda key: unit, strict=False)  # what is not given
    if timeline_path is None:
        timeline = replayed.timeline = AccessTimeline(directory)
    else:
        timeline = AccessTimeline.load(timeline_path, directory=directory)
    if store_path is None:
        store = replayed.store = MemoryStore(1, directory)
    elif next(wire.load(store_path), None) is None:
        store = MemoryStore(1, directory)  # an empty export
    else:
        store = MemoryStore.load(store_path, directory=directory)
    if timeline_path is None or store_path is None:
        replayed.fold(audit_path)
    violations = verify_run(iter_audit_file(audit_path), timeline, store)
    if tail:
        message = f"{len(tail)} bytes after the last newline: a torn last record"
        violations.append(Violation(None, "log_torn_tail", message))
    return violations

