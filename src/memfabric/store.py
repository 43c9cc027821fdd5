"""Provenance-tagged fragment store and permission-based admissibility.

Fragments are immutable key/value records carrying a unit-norm embedding and
a provenance stamp: when they were created, by which user, through which
agents, touching which resources. The store is partitioned into two tiers:
``private`` fragments are visible only to their creating user, ``shared``
fragments cross user boundaries when permissions allow.

A fragment is *admissible* for a reader (user ``u``, agent ``a``, tick ``t``)
when three clauses hold, checked in this order:

1. tier ownership  - private fragments require creator == u;
2. agent subset    - every contributing agent is one u may invoke at t;
3. resource subset - every touched resource is one a may access at t.

Admissibility is evaluated against the read-time permission snapshot, never
the creation-time one, so revoking an edge retro-actively hides fragments
that were reachable before. Deletion is deliberately not exposed: forgetting
is modeled as revocation, keeping the audit trail total.

Beside the ``id -> MemoryFragment`` records the store keeps columns: an
N x d embedding matrix, ``created_at``, tier and creator arrays, and packed
uint64 bitsets of each row's agents and resources (as many 64-bit words as
the distinct names need). Inserts only append a record; the next read fills
the new rows' columns in one batch under the store lock. A read takes its
row snapshot from :meth:`MemoryStore.fragments` and evaluates the three
clauses above as one boolean mask over those columns, returned as an
:class:`AdmissibleSet` that retrieval ranks over without walking the store.
:meth:`MemoryStore.explain` stays the scalar clause-by-clause reference.
"""

from __future__ import annotations

import json
import math
import mmap
import threading
import uuid
from collections.abc import Set
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .access import AccessTimeline
from .audit import AuditAction, AuditLog
from .errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidFragment,
    NonFiniteVector,
    UnknownFragment,
    UnknownPrincipalInProvenance,
)
from .principals import (
    PrincipalDirectory,
    PrincipalId,
    PrincipalKind,
    agent,
    resource,
    user,
)

UNIT_NORM_TOLERANCE = 1e-6
_WORD = (1 << 64) - 1


class Tier(str, Enum):
    PRIVATE = "private"
    SHARED = "shared"


@dataclass(frozen=True)
class Provenance:
    """Immutable origin stamp attached to a fragment at insert time."""

    created_at: int
    creator: PrincipalId
    agents: frozenset[PrincipalId]
    resources: frozenset[PrincipalId] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", frozenset(self.agents))
        object.__setattr__(self, "resources", frozenset(self.resources))
        if self.created_at < 0:
            raise InvalidFragment("created_at must be a non-negative tick")
        if self.creator.kind is not PrincipalKind.USER:
            raise InvalidFragment(f"creator must be a user, got {self.creator}")
        if not self.agents:
            raise InvalidFragment("provenance needs at least one contributing agent")
        for a in self.agents:
            if a.kind is not PrincipalKind.AGENT:
                raise InvalidFragment(f"{a} listed as contributing agent")
        for r in self.resources:
            if r.kind is not PrincipalKind.RESOURCE:
                raise InvalidFragment(f"{r} listed as touched resource")

    def to_dict(self) -> dict:
        return {
            "created_at": self.created_at,
            "creator": self.creator.name,
            "agents": sorted(a.name for a in self.agents),
            "resources": sorted(r.name for r in self.resources),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        return cls(
            created_at=int(data["created_at"]),
            creator=user(data["creator"]),
            agents=frozenset(agent(n) for n in data["agents"]),
            resources=frozenset(resource(n) for n in data["resources"]),
        )


@dataclass(frozen=True, eq=False)
class MemoryFragment:
    id: str
    tier: Tier
    key: str
    value: str
    embedding: np.ndarray
    provenance: Provenance

    def __post_init__(self) -> None:
        if not self.id:
            raise InvalidFragment("fragment id must be non-empty")
        if not self.key or not self.value:
            raise InvalidFragment(f"fragment {self.id}: key and value must be non-empty")
        emb = np.array(self.embedding, dtype=np.float64)
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "tier": self.tier.value,
            "key": self.key,
            "value": self.value,
            "embedding": [float(x) for x in self.embedding],
            "provenance": self.provenance.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryFragment":
        return cls(
            id=data["id"],
            tier=Tier(data["tier"]),
            key=data["key"],
            value=data["value"],
            embedding=np.array(data["embedding"], dtype=np.float64),
            provenance=Provenance.from_dict(data["provenance"]),
        )


def new_fragment_id() -> str:
    return str(uuid.uuid4())


def seeded_id_factory(seed: int):
    """UUID-format id generator that is a pure function of the seed.

    Used by the scenario harness so replays with the same seed produce
    byte-identical stores and audit logs.
    """
    import random

    rng = random.Random(seed)

    def factory() -> str:
        return str(uuid.UUID(int=rng.getrandbits(128), version=4))

    return factory


class AdmissibilityClause(str, Enum):
    TIER_OWNERSHIP = "tier_ownership"
    AGENT_SUBSET = "agent_subset"
    RESOURCE_SUBSET = "resource_subset"


@dataclass(frozen=True)
class AdmissibilityDecision:
    """Clause-by-clause outcome of one admissibility check.

    ``failed_clause`` names the first violated clause in the fixed order
    tier ownership, agent subset, resource subset; it is ``None`` exactly
    when the fragment is admitted.
    """

    fragment_id: str
    admitted: bool
    failed_clause: AdmissibilityClause | None = None

    def __post_init__(self) -> None:
        assert self.admitted == (self.failed_clause is None)


class _Columns(NamedTuple):
    """Column arrays of the store; row i describes the i-th inserted fragment.

    Arrays may be longer than the filled rows (spare capacity). Rows below the
    store's fill mark are never written again, so a reader that sliced them
    keeps a consistent view while later rows are filled or the arrays regrow.
    """

    embeddings: np.ndarray  # (rows, d) float64
    created_at: np.ndarray  # int64
    shared: np.ndarray  # bool: tier is SHARED
    creator: np.ndarray  # int64 index into the store's creator interning
    agent_bits: np.ndarray  # (rows, words) uint64; bit i <=> agent interned as i
    resource_bits: np.ndarray  # (rows, words) uint64; bit i <=> resource interned as i
    max_norm: float  # largest embedding norm among filled rows

    def head(self, n: int) -> "_Columns":
        """Views of the first ``n`` rows."""
        return _Columns(*(column[:n] for column in self[:-1]), self.max_norm)


def _intern(index: dict[PrincipalId, int], pid: PrincipalId) -> int:
    i = index.get(pid)
    if i is None:
        i = index[pid] = len(index)
    return i


def _mask(index: dict[PrincipalId, int], pids) -> int:
    """Bitset of ``pids`` by their interned indexes, as one Python int."""
    bits = 0
    for pid in pids:
        bits |= 1 << _intern(index, pid)
    return bits


def _regrown(array: np.ndarray, rows: int, words: int | None = None) -> np.ndarray:
    """Zero-padded copy of ``array`` with ``rows`` rows (and ``words`` columns).

    The copy lives in its own anonymous memory map: spare rows take no
    resident memory until written, and a dropped store unmaps its columns
    instead of leaving column-sized holes in the allocator's arenas.
    """
    shape = (rows, *array.shape[1:]) if words is None else (rows, words)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * array.itemsize))
    out = np.frombuffer(buffer, array.dtype, count=count).reshape(shape)
    out[tuple(slice(0, size) for size in array.shape)] = array
    return out


def _within(bits: np.ndarray, index: dict[PrincipalId, int], granted) -> np.ndarray:
    """Rows whose set bits all name principals in ``granted``."""
    allowed = 0
    for pid in granted:
        i = index.get(pid)
        if i is not None:
            allowed |= 1 << i
    outside = np.array(
        [~(allowed >> (64 * w)) & _WORD for w in range(bits.shape[1])], dtype=np.uint64
    )
    return ~(bits & outside).any(axis=1)


class AdmissibleSet(Set):
    """Read-only set of the fragment ids a reader may see.

    Computed over one snapshot of the store: ``rows`` is the tuple returned by
    :meth:`MemoryStore.fragments`, ``columns`` the column views of exactly
    those rows and ``mask`` the admitted ones, so a caller can rank over the
    same snapshot without walking it again. Compares equal to a plain ``set``
    of the same ids.
    """

    def __init__(self, rows: tuple[MemoryFragment, ...], columns: _Columns, mask: np.ndarray):
        self.rows = rows
        self.columns = columns
        self.mask = mask
        self._ids: frozenset[str] | None = None

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __iter__(self) -> Iterator[str]:
        return (self.rows[i].id for i in np.flatnonzero(self.mask).tolist())

    def __contains__(self, fragment_id: object) -> bool:
        if self._ids is None:
            self._ids = frozenset(self)
        return fragment_id in self._ids

    def __repr__(self) -> str:
        return f"AdmissibleSet({sorted(self)!r})"


class MemoryStore:
    """Fragment universe with exact admissibility queries over columns.

    The store validates embeddings against a fixed dimension, finiteness and
    unit L2 norm on insert; provenance principals are checked against
    ``directory`` when one is attached. Inserts emit ``fragment_write`` audit
    records.
    """

    def __init__(
        self,
        dimension: int,
        directory: PrincipalDirectory | None = None,
        audit: AuditLog | None = None,
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.directory = directory
        self._audit = audit
        self._fragments: dict[str, MemoryFragment] = {}
        self._rows: list[MemoryFragment] = []  # insertion order; row i of the columns
        self._write_lock = threading.Lock()  # single serialized writer
        self._filled = 0  # rows whose columns are written
        self._creator_ix: dict[PrincipalId, int] = {}
        self._agent_ix: dict[PrincipalId, int] = {}
        self._resource_ix: dict[PrincipalId, int] = {}
        no_bits = np.zeros((0, 1), np.uint64)
        self._columns = _Columns(
            np.zeros((0, dimension)),
            np.zeros(0, np.int64),
            np.zeros(0, bool),
            np.zeros(0, np.int64),
            no_bits,
            no_bits,
            0.0,
        )

    # -- persistence

    def insert(self, fragment: MemoryFragment) -> str:
        with self._write_lock:
            self._append(fragment)
            if self._audit is not None:
                self._audit.append(
                    at=fragment.provenance.created_at,
                    actor=fragment.provenance.creator.name,
                    action=AuditAction.FRAGMENT_WRITE,
                    subjects=(fragment.id,),
                    detail={
                        "tier": fragment.tier.value,
                        "agents": sorted(a.name for a in fragment.provenance.agents),
                        "resources": sorted(r.name for r in fragment.provenance.resources),
                    },
                )
        return fragment.id

    def _append(self, fragment: MemoryFragment) -> None:
        """Validate and record one fragment; the next read fills its columns.
        The caller holds the write lock."""
        if fragment.id in self._fragments:
            raise DuplicateId(fragment.id)
        if fragment.embedding.shape != (self.dimension,):
            raise DimensionMismatch(
                f"fragment {fragment.id}: embedding shape {fragment.embedding.shape}, "
                f"store dimension {self.dimension}"
            )
        norm = float(np.linalg.norm(fragment.embedding))
        if not math.isfinite(norm):
            raise NonFiniteVector(f"fragment {fragment.id}: embedding is not finite")
        if abs(norm - 1.0) > UNIT_NORM_TOLERANCE:
            raise InvalidFragment(
                f"fragment {fragment.id}: embedding norm {norm} is not unit"
            )
        if self.directory is not None:
            prov = fragment.provenance
            for pid in [prov.creator, *prov.agents, *prov.resources]:
                if not self.directory.known(pid):
                    raise UnknownPrincipalInProvenance(str(pid))
        self._fragments[fragment.id] = fragment
        self._rows.append(fragment)

    def attach_audit(self, audit: AuditLog | None) -> None:
        self._audit = audit

    def get(self, fragment_id: str) -> MemoryFragment:
        try:
            return self._fragments[fragment_id]
        except KeyError:
            raise UnknownFragment(fragment_id) from None

    def __contains__(self, fragment_id: str) -> bool:
        return fragment_id in self._fragments

    def __len__(self) -> int:
        return len(self._fragments)

    def fragments(self) -> tuple[MemoryFragment, ...]:
        """All fragments in insertion order (snapshot; safe against
        concurrent inserts)."""
        with self._write_lock:
            return tuple(self._rows)

    # -- columns

    def _filled_columns(self) -> _Columns:
        """Columns with every recorded row filled."""
        with self._write_lock:
            if self._filled < len(self._rows):
                self._fill()
            return self._columns

    def _fill(self) -> None:
        """Write the columns of the rows recorded since the last fill, in one
        batch. The caller holds the write lock."""
        start, new = self._filled, self._rows[self._filled :]
        end = start + len(new)
        creators = [_intern(self._creator_ix, f.provenance.creator) for f in new]
        agent_masks = [_mask(self._agent_ix, f.provenance.agents) for f in new]
        resource_masks = [_mask(self._resource_ix, f.provenance.resources) for f in new]

        cols = self._columns
        capacity = len(cols.created_at)
        rows = capacity if end <= capacity else end + end // 4 + 64  # geometric growth
        agent_words = max(1, -(-len(self._agent_ix) // 64))
        resource_words = max(1, -(-len(self._resource_ix) // 64))
        if (rows, agent_words, resource_words) != (
            capacity,
            cols.agent_bits.shape[1],
            cols.resource_bits.shape[1],
        ):
            cols = _Columns(
                _regrown(cols.embeddings, rows),
                _regrown(cols.created_at, rows),
                _regrown(cols.shared, rows),
                _regrown(cols.creator, rows),
                _regrown(cols.agent_bits, rows, agent_words),
                _regrown(cols.resource_bits, rows, resource_words),
                cols.max_norm,
            )
        block = cols.embeddings[start:end]
        np.stack([f.embedding for f in new], out=block)
        cols.created_at[start:end] = [f.provenance.created_at for f in new]
        cols.shared[start:end] = [f.tier is Tier.SHARED for f in new]
        cols.creator[start:end] = creators
        for bits, masks in ((cols.agent_bits, agent_masks), (cols.resource_bits, resource_masks)):
            for w in range(bits.shape[1]):
                bits[start:end, w] = [(m >> (64 * w)) & _WORD for m in masks]
        max_norm = max(cols.max_norm, math.sqrt(np.einsum("ij,ij->i", block, block).max()))
        self._columns = cols._replace(max_norm=max_norm)
        self._filled = end

    # -- admissibility

    def _decide(
        self,
        fragment: MemoryFragment,
        u: PrincipalId,
        user_agents: frozenset[PrincipalId],
        agent_resources: frozenset[PrincipalId],
    ) -> AdmissibilityClause | None:
        prov = fragment.provenance
        if fragment.tier is Tier.PRIVATE and prov.creator != u:
            return AdmissibilityClause.TIER_OWNERSHIP
        if not prov.agents <= user_agents:
            return AdmissibilityClause.AGENT_SUBSET
        if not prov.resources <= agent_resources:
            return AdmissibilityClause.RESOURCE_SUBSET
        return None

    def admissible(
        self, timeline: AccessTimeline, u: PrincipalId, a: PrincipalId, t: int
    ) -> AdmissibleSet:
        """Ids of every fragment reader (u, a, t) may see.

        Exactly the fragments whose contributing agents all lie in
        ``agents_of(u, t)`` and touched resources in ``resources_of(a, t)``,
        with private fragments further restricted to their creator. The
        clauses are one mask over the columns of the ``fragments()``
        snapshot: ``(shared | creator == u) & no agent bit outside the
        user's agents & no resource bit outside the agent's resources``.
        """
        user_agents = timeline.agents_of(u, t)
        agent_resources = timeline.resources_of(a, t)
        rows = self.fragments()
        cols = self._filled_columns().head(len(rows))
        mask = (cols.shared | (cols.creator == self._creator_ix.get(u, -1))) & (
            _within(cols.agent_bits, self._agent_ix, user_agents)
            & _within(cols.resource_bits, self._resource_ix, agent_resources)
        )
        return AdmissibleSet(rows, cols, mask)

    def explain(
        self,
        timeline: AccessTimeline,
        u: PrincipalId,
        a: PrincipalId,
        t: int,
        fragment_id: str,
    ) -> AdmissibilityDecision:
        """Audit-friendly decomposition of one admissibility check."""
        fragment = self.get(fragment_id)
        failed = self._decide(
            fragment, u, timeline.agents_of(u, t), timeline.resources_of(a, t)
        )
        return AdmissibilityDecision(
            fragment_id=fragment_id, admitted=failed is None, failed_clause=failed
        )

    # -- line-delimited JSON snapshot

    def export_jsonl(self, fp: IO[str]) -> None:
        for fragment in self.fragments():
            fp.write(json.dumps(fragment.to_dict(), sort_keys=True) + "\n")

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(f.to_dict(), sort_keys=True) + "\n" for f in self.fragments()
        )

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fp:
            self.export_jsonl(fp)

    @classmethod
    def from_jsonl(
        cls,
        lines: Iterable[str] | str,
        dimension: int | None = None,
        directory: PrincipalDirectory | None = None,
        audit: AuditLog | None = None,
    ) -> "MemoryStore":
        """Rebuild a store from a snapshot.

        The dimension is taken from the first fragment when not given;
        principals named in provenance are auto-registered into a fresh
        directory when none is supplied.
        """
        if isinstance(lines, str):
            lines = lines.splitlines()
        fragments = [
            MemoryFragment.from_dict(json.loads(line)) for line in lines if line.strip()
        ]
        if dimension is None:
            if not fragments:
                raise ValueError("cannot infer dimension from an empty snapshot")
            dimension = fragments[0].embedding.shape[0]
        own_directory = directory if directory is not None else PrincipalDirectory()
        for f in fragments:
            own_directory.register(f.provenance.creator)
            for a in f.provenance.agents:
                own_directory.register(a)
            for r in f.provenance.resources:
                own_directory.register(r)
        store = cls(dimension, directory=own_directory, audit=audit)
        with store._write_lock:
            for f in fragments:
                store._append(f)
        return store

    @classmethod
    def load(cls, path: str | Path, **kwargs) -> "MemoryStore":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"), **kwargs)
