"""Append-only audit log and the utilization metrics derived from it.

Every permission change, memory operation, and invocation lands here as one
immutable record. The log is the system's ground truth for "what happened":
metrics, access matrices, and the offline verifier all consume it. Records
are line-delimited JSON, flushed once per :meth:`AuditLog.operation`, and
kept nowhere else: readers stream them back from the file. A line is one
f-string, byte for byte ``wire.encode`` of its record. A detail given as a
``str`` is its JSON text and is written as given (``MemoryStore.insert`` builds
its ``fragment_write`` details so); any other goes through ``wire.dumps``.
:func:`iter_audit_file` reads a log file by path, a line at a time, and
:func:`torn_tail` finds what a killed process left after its last newline.
Resume and verify fold the log a record at a time through
:class:`memfabric.store.LogState`; :meth:`AuditLog.continuing` reopens a
folded log, cutting a torn last line and ending an episode left open.
"""

from __future__ import annotations

import io
import itertools
import json
import mmap
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from . import wire
from .errors import EmptyWindow, NonMonotonicTimestamp

if TYPE_CHECKING:
    from .store import LogState

_quote = wire.quote


class AuditAction(str, Enum):
    GRANT = "grant"
    REVOKE = "revoke"
    FRAGMENT_WRITE = "fragment_write"
    FRAGMENT_READ = "fragment_read"
    AGENT_INVOKE = "agent_invoke"
    RESOURCE_INVOKE = "resource_invoke"
    EPISODE_START = "episode_start"
    EPISODE_END = "episode_end"


_ACTION_JSON = {action: _quote(action.value) for action in AuditAction}  # a lookup beats .value


@dataclass(frozen=True)
class AuditRecord:
    """One immutable line in the log.

    ``seq`` is gap-free and strictly increasing; ``at`` is the logical tick
    the action happened at and never decreases along the log.
    """

    seq: int
    at: int
    actor: str
    action: AuditAction
    subjects: tuple[str, ...] = ()
    detail: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping) -> "AuditRecord":
        return cls(
            seq=int(data["seq"]),
            at=int(data["at"]),
            actor=str(data["actor"]),
            action=AuditAction(data["action"]),
            subjects=tuple(data.get("subjects", ())),
            detail=dict(data.get("detail", {})),
        )


class AuditLog:
    """Appender to a line-delimited JSON file, or to a buffer with no path.

    Sequence numbers are assigned here and have no gaps; appending with a
    tick behind the log head raises :class:`NonMonotonicTimestamp`. Records
    are never mutated or deleted, nor kept: readers stream them from the
    file. A log with a path starts its file empty; :meth:`continuing`
    reopens one to append.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._fp: IO[str] = io.StringIO()  # a log with no path keeps its lines here
        self._lock = threading.Lock()  # a service appends from many request threads
        self._open = 0  # operation blocks entered and not yet exited
        self._count = self._head = 0  # records written, tick of the last
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fp = self.path.open("w", encoding="utf-8")

    @classmethod
    def continuing(cls, path: str | Path, state: "LogState") -> "AuditLog":
        """The log at ``path`` reopened to append after ``state``'s fold of it.
        A torn last line (see :func:`torn_tail`) is cut off with a
        ``RuntimeWarning``, and an episode left open gets its ``episode_end``
        with ``failure: "interrupted"`` at once."""
        log = cls()
        log.path = path = Path(path)
        tail = torn_tail(path)
        if tail:
            os.truncate(path, path.stat().st_size - len(tail))
            message = f"{path}: dropped a torn last line of {len(tail)} bytes"
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        log._count, log._head = state.count, state.head
        log._fp = path.open("a", encoding="utf-8")
        if (start := state.started) is not None:
            detail = {"failure": "interrupted", "rounds": state.rounds}
            log.append(state.head, start.actor, AuditAction.EPISODE_END, start.subjects, detail)
        return log

    def append(
        self,
        at: int,
        actor: str,
        action: AuditAction,
        subjects: Sequence[str] = (),
        detail: Mapping[str, object] | str | None = None,
    ) -> int:
        """Write one record; a ``str`` detail is taken as its JSON text, written as given."""
        with self._lock:
            if self._count and at < self._head:
                raise NonMonotonicTimestamp(f"audit tick {at} is behind log head {self._head}")
            seq = self._count
            if type(detail) is not str:
                detail = wire.dumps(detail or {})
            self._fp.write(f'{{"action": {_ACTION_JSON[action]}, "actor": {_quote(actor)}, "at": {at}, '
                           f'"detail": {detail}, "seq": {seq}, '
                           f'"subjects": [{", ".join(map(_quote, subjects))}]}}\n')
            if not self._open:
                self._fp.flush()
            self._count, self._head = seq + 1, at
            return seq

    @contextmanager
    def operation(self) -> Iterator[None]:
        """Group commit: one flush as the outermost block exits, raising or not; an append
        outside any block flushes at once. A killed process loses only the operation in flight."""
        with self._lock:
            self._open += 1
        try:
            yield
        finally:
            with self._lock:
                self._open -= 1
                if not self._open:
                    self._fp.flush()

    def lines(self) -> Iterator[str]:
        """The log's lines, streamed from its file: as many as it held when the
        first is asked for, so a concurrent append never shows half a line."""
        with self._lock:
            if self._open:
                self._fp.flush()
            count, path = self._count, self.path
            source = path.open(encoding="utf-8") if path else io.StringIO(self._fp.getvalue())
        with source:
            yield from itertools.islice(source, count)

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[AuditRecord]:
        return map(AuditRecord.from_dict, map(json.loads, self.lines()))

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def close(self) -> None:
        if self.path is not None:
            self._fp.close()


def iter_audit_file(path: str | Path) -> Iterator[AuditRecord]:
    """The records of the log at ``path``, decoded one line at a time so none
    is kept: every line up to its last newline, blank ones skipped. A bad
    line raises; what follows the last newline is :func:`torn_tail`'s."""
    with Path(path).open("rb") as fp:
        for line in fp:
            if line.endswith(b"\n") and not line.isspace():
                yield AuditRecord.from_dict(json.loads(line))


def torn_tail(path: str | Path) -> bytes:
    """The bytes after the last newline of the log at ``path`` unless blank,
    as a process killed mid-append leaves them; found from its end."""
    with Path(path).open("rb") as fp:
        if not os.fstat(fp.fileno()).st_size:
            return b""
        with mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ) as view:
            tail = view[view.rfind(b"\n") + 1 :]
    return b"" if tail.isspace() else tail


# --- metrics -----------------------------------------------------------------


@dataclass
class BinMetrics:
    """Aggregates for one report bin. Means are totals over ``queries``."""

    label: str
    queries: int
    agent_utilization: float
    resource_utilization: float
    memory_hits_user: float
    memory_hits_cross: float
    accuracy: float | None = None


@dataclass
class MetricsReport:
    bins: list[BinMetrics]

    def to_csv(self) -> str:
        lines = ["bin,metric,value"]
        for b in self.bins:
            rows = [
                ("queries", b.queries),
                ("agent_utilization", b.agent_utilization),
                ("resource_utilization", b.resource_utilization),
                ("memory_hits_user", b.memory_hits_user),
                ("memory_hits_cross", b.memory_hits_cross),
            ]
            if b.accuracy is not None:
                rows.append(("accuracy", b.accuracy))
            for metric, value in rows:
                lines.append(f"{b.label},{metric},{value!r}")
        return "\n".join(lines) + "\n"

    def to_summary(self) -> dict:
        return asdict(self)

    def bin(self, label: str) -> BinMetrics:
        for b in self.bins:
            if b.label == label:
                return b
        raise KeyError(label)


@dataclass
class _EpisodeTally:
    bin_label: str
    agents: set[str] = field(default_factory=set)
    resource_calls: int = 0
    hits_user: int = 0
    hits_cross: int = 0
    score: float | None = None


def _tally_episodes(records: Iterable[AuditRecord]) -> list[_EpisodeTally]:
    tallies: dict[str, _EpisodeTally] = {}
    order: list[str] = []
    for rec in records:
        if rec.action is AuditAction.EPISODE_START:
            eid = rec.subjects[0]
            tallies[eid] = _EpisodeTally(bin_label=str(rec.detail.get("bin", "all")))
            order.append(eid)
            continue
        if rec.action is AuditAction.EPISODE_END:
            eid = rec.subjects[0] if rec.subjects else None
            score = rec.detail.get("score")
            if eid in tallies and score is not None:
                tallies[eid].score = float(score)
            continue
        eid = rec.detail.get("episode")
        if eid is None or eid not in tallies:
            continue
        tally = tallies[eid]
        if rec.action is AuditAction.AGENT_INVOKE:
            tally.agents.update(rec.subjects)
        elif rec.action is AuditAction.RESOURCE_INVOKE:
            tally.resource_calls += 1
        elif rec.action is AuditAction.FRAGMENT_READ:
            tally.hits_user += len(rec.detail.get("user_tier", ()))
            tally.hits_cross += len(rec.detail.get("cross_tier", ()))
    return [tallies[eid] for eid in order]


def compute_metrics(
    records: Iterable[AuditRecord], binning: str | int = "bin"
) -> MetricsReport:
    """Aggregate per-episode usage into per-bin means.

    ``binning="bin"`` groups episodes by the bin label recorded at episode
    start (the harness stamps phase labels there); an integer groups by
    fixed-size blocks of episodes in log order. Distinct-agent counting is
    per-episode set cardinality; resource counting is the raw call count.
    """
    episodes = _tally_episodes(records)
    if not episodes:
        raise EmptyWindow("log slice contains no episodes")

    size = 0 if binning == "bin" else int(binning)
    if binning != "bin" and size < 1:
        raise ValueError("bin size must be >= 1")
    grouped: dict[str, list[_EpisodeTally]] = {}  # first-seen label order
    for i, ep in enumerate(episodes):
        grouped.setdefault(f"bin{i // size}" if size else ep.bin_label, []).append(ep)

    bins = []
    for label, group in grouped.items():
        n = len(group)
        scores = [ep.score for ep in group if ep.score is not None]
        bins.append(
            BinMetrics(
                label=label,
                queries=n,
                agent_utilization=sum(len(ep.agents) for ep in group) / n,
                resource_utilization=sum(ep.resource_calls for ep in group) / n,
                memory_hits_user=sum(ep.hits_user for ep in group) / n,
                memory_hits_cross=sum(ep.hits_cross for ep in group) / n,
                accuracy=(sum(scores) / len(scores)) if scores else None,
            )
        )
    return MetricsReport(bins=bins)


# --- access matrices ---------------------------------------------------------


@dataclass
class AccessMatrices:
    """Usage counts keyed by user: who invoked which agent, and which
    resources were reached on whose behalf."""

    user_agent: dict[str, dict[str, int]] = field(default_factory=dict)
    user_resource: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def count(self, rec: AuditRecord) -> None:
        """Add ``rec`` to the counts if it is an agent or resource invocation."""
        if rec.action is AuditAction.AGENT_INVOKE:
            row = self.user_agent.setdefault(rec.actor, {})
            for a in rec.subjects:
                row[a] = row.get(a, 0) + 1
        elif rec.action is AuditAction.RESOURCE_INVOKE:
            u = rec.detail.get("user")
            if u is not None:
                row = self.user_resource.setdefault(str(u), {})
                for r in rec.subjects:
                    row[r] = row.get(r, 0) + 1


def access_matrix(
    records: Iterable[AuditRecord], window: tuple[int, int] | None = None
) -> AccessMatrices:
    """Count matrices over an inclusive tick window (whole log if ``None``)."""
    matrices = AccessMatrices()
    for rec in records:
        if window is None or window[0] <= rec.at <= window[1]:
            matrices.count(rec)
    return matrices
