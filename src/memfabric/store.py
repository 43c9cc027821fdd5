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

Records are slotted and share equal immutable values: interned principals and
principal sets with their sorted names (:mod:`memfabric.principals`), and embeddings held
as a :func:`frozen_vector`, which a fragment adopts as given, so the
fragments of one text, both tiers of a write included, share one vector.
An insert hands the audit log its ``fragment_write`` detail as JSON text built
by one f-string of each set's cached list text and the quoted key and value:
the bytes of ``wire.dumps(write_detail(f))``.

With a directory attached, :meth:`MemoryStore.check` looks every principal of
a provenance up, but remembers each agent or resource set whose names it has
all found and looks it up no more. That is sound because a directory only
ever adds names; as sets are interned, the memo lookup ends at an identity
check. The creator and the embedding are checked on every insert.

Beside the ``id -> MemoryFragment`` records the store keeps columns:
``created_at``, tier, creator and ``vector`` arrays. Keys repeat (both tiers
of a write, and many users asking one subquery), so each distinct embedding
is stored once, as a row of a V x d vector table, and a row's ``vector`` is
its table row: dictionary encoding (Abadi, Madden & Ferreira, SIGMOD 2006).
The table is keyed by each embedding's own ``bytes``, with no copy: a
fragment adopts only a vector that spans its whole ``bytes``. Inserts only
append a record; the next read fills the new rows' columns, and the table
rows of new vectors, under the store lock. Rows are append-only and never
change once filled, so a snapshot is just a row count:
:meth:`MemoryStore.fragments` returns a read-only view of the first n rows,
and a read evaluates the three clauses as one boolean mask over those rows,
returned as an :class:`AdmissibleSet` that retrieval ranks over without
walking the store.

The two subset clauses are one bitset test. Agents and resources share one
interned index, and each row's agents and resources are one bitset over it,
stored word-major: one contiguous uint64 array per 64-name word, the
bit-sliced layout of O'Neil & Quass (SIGMOD 1997). A read ORs the bits of
``agents_of(u, t)`` and ``resources_of(a, t)`` into ``allowed`` and admits the
rows whose every word lies within it, ``(word & ~allowed_w) == 0``, in one
pass over the rows; no agent is a resource, so that is both clauses. The
bits of each distinct set, row or granted, are kept per set; a granted name
is interned when first read, so they never go stale. The tier clause is
``shared | creator == u``. :meth:`MemoryStore.explain` stays the scalar
clause-by-clause reference.

:class:`LogState` is the one fold of an audit log: fed its records in order,
it rebuilds the permission timeline and the store, and tallies the count,
head tick and episodes that resume and verify continue from.
"""

from __future__ import annotations

import itertools
import math
import mmap
import random
import threading
import uuid
from collections.abc import Sequence, Set
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import wire
from .access import AccessTimeline, PermissionEvent
from .audit import AuditAction, AuditLog, AuditRecord, iter_audit_file
from .errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidFragment,
    MemFabricError,
    NonFiniteVector,
    OutdatedAuditLog,
    UnknownFragment,
    UnknownPrincipalInProvenance,
)
from .principals import (
    PrincipalDirectory,
    PrincipalId,
    PrincipalKind,
    PrincipalSet,
    agent,
    resource,
    user,
)

UNIT_NORM_TOLERANCE = 1e-6
_quote = wire.quote
_WORD = (1 << 64) - 1


class Tier(str, Enum):
    PRIVATE = "private"
    SHARED = "shared"


_TIER_JSON = {tier: wire.dumps(tier.value) for tier in Tier}  # a lookup beats .value


def frozen_vector(values) -> np.ndarray:
    """``values`` as a float64 array over its own ``bytes``: immutable, since
    no holder can make an array over ``bytes`` writable again."""
    array = np.asarray(values, dtype=np.float64)
    vector = np.frombuffer(array.tobytes(), np.float64)
    return vector if array.ndim == 1 else vector.reshape(array.shape)


@dataclass(frozen=True, slots=True)
class Provenance:
    """Immutable origin stamp attached to a fragment at insert time; its sets are interned."""

    created_at: int
    creator: PrincipalId
    agents: PrincipalSet
    resources: PrincipalSet = PrincipalSet()

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", PrincipalSet(self.agents))
        object.__setattr__(self, "resources", PrincipalSet(self.resources))
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
            "agents": list(self.agents.names),
            "resources": list(self.resources.names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        return cls(
            created_at=int(data["created_at"]),
            creator=user(data["creator"]),
            agents=map(agent, data["agents"]),
            resources=map(resource, data["resources"]),
        )


@dataclass(frozen=True, eq=False, slots=True)
class MemoryFragment:
    """A key/value record, its key's embedding and its provenance. A 1-d
    :func:`frozen_vector` embedding, an array spanning exactly its own
    ``bytes``, is adopted as given, so that ``bytes`` is its content; any
    other value is copied into one."""

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
        emb = self.embedding
        frozen = type(emb) is np.ndarray and type(emb.base) is bytes and emb.ndim == 1
        spans = frozen and emb.flags.c_contiguous and emb.nbytes == len(emb.base)
        if not (spans and emb.dtype == np.float64):
            object.__setattr__(self, "embedding", frozen_vector(emb))

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "tier": self.tier.value,
            "key": self.key,
            "value": self.value,
            "embedding": self.embedding.tolist(),  # float64 -> the same Python floats
            "provenance": self.provenance.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryFragment":
        return cls(
            id=data["id"],
            tier=Tier(data["tier"]),
            key=data["key"],
            value=data["value"],
            embedding=data["embedding"],  # decoded once, by __post_init__
            provenance=Provenance.from_dict(data["provenance"]),
        )


def write_detail(fragment: MemoryFragment) -> dict:
    """The ``detail`` of the ``fragment_write`` record of ``fragment``, in fresh lists."""
    return {
        "tier": fragment.tier.value,
        "key": fragment.key,
        "value": fragment.value,
        "agents": list(fragment.provenance.agents.names),
        "resources": list(fragment.provenance.resources.names),
    }


def new_fragment_id() -> str:
    return str(uuid.uuid4())


def seeded_id_factory(seed: int):
    """UUID-format id generator that is a pure function of the seed.

    Used by the scenario harness so replays with the same seed produce
    byte-identical stores and audit logs.
    """
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


def failed_clause(
    fragment: MemoryFragment,
    u: PrincipalId,
    user_agents: frozenset[PrincipalId],
    agent_resources: frozenset[PrincipalId],
) -> AdmissibilityClause | None:
    """The first clause ``fragment`` fails for user ``u`` holding the grants
    ``user_agents`` through an agent holding ``agent_resources``, or ``None``
    when it is admitted: the scalar rule :meth:`MemoryStore.explain` applies."""
    prov = fragment.provenance
    if fragment.tier is Tier.PRIVATE and prov.creator != u:
        return AdmissibilityClause.TIER_OWNERSHIP
    if not prov.agents <= user_agents:
        return AdmissibilityClause.AGENT_SUBSET
    if not prov.resources <= agent_resources:
        return AdmissibilityClause.RESOURCE_SUBSET
    return None


class _Columns(NamedTuple):
    """Column arrays of the store; row i describes the i-th inserted fragment.

    Arrays may be longer than the filled rows (spare capacity). Rows below the
    store's fill mark are never written again, so a reader that sliced them
    keeps a consistent view while later rows are filled or the arrays regrow.
    """

    vector: np.ndarray  # int64 row of the store's vector table
    created_at: np.ndarray  # int64
    shared: np.ndarray  # bool: tier is SHARED
    creator: np.ndarray  # int64 index into the store's creator interning

    def head(self, n: int) -> "_Columns":
        """Views of the first ``n`` rows."""
        return _Columns(*(column[:n] for column in self))


def _intern(index: dict, key) -> int:
    i = index.get(key)
    if i is None:
        i = index[key] = len(index)
    return i


def _regrown(array: np.ndarray, rows: int) -> np.ndarray:
    """Zero-padded copy of ``array`` with ``rows`` rows.

    The copy lives in its own anonymous memory map: spare rows take no
    resident memory until written, and a dropped store unmaps its columns
    instead of leaving column-sized holes in the allocator's arenas.
    """
    shape = (rows, *array.shape[1:])
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * array.itemsize))
    out = np.frombuffer(buffer, array.dtype, count=count).reshape(shape)
    out[tuple(slice(0, size) for size in array.shape)] = array
    return out


def _capacity(capacity: int, rows: int) -> int:
    """Capacity that holds ``rows`` rows: ``capacity`` or geometric growth."""
    return capacity if rows <= capacity else rows + rows // 4 + 64


class _Prefix(Sequence):
    """Read-only view of the first ``n`` items of an append-only list."""

    __slots__ = ("_items", "_n")

    def __init__(self, items: list, n: int) -> None:
        self._items = items
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._items[j] for j in range(*i.indices(self._n)))
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("snapshot index out of range")
        return self._items[i]

    def __iter__(self) -> Iterator:
        return itertools.islice(self._items, self._n)

    def take(self, indices: list[int]) -> list:
        """The items at ``indices``, each a row of the view (unchecked)."""
        return list(map(self._items.__getitem__, indices))


class AdmissibleSet(Set):
    """Read-only set of the fragment ids a reader may see.

    Computed over one snapshot of the store: ``rows`` is the read-only view
    returned by :meth:`MemoryStore.fragments`, ``columns`` the column views
    of exactly those rows, ``mask`` the admitted ones and ``vectors`` the
    store's vector table, which ``columns.vector`` indexes, so a caller can
    rank over the same snapshot without walking it again. The agent and
    resource clauses of ``mask`` are one pass over the store's row bitsets.
    Compares equal to a plain ``set`` of the same ids.
    """

    def __init__(self, rows: _Prefix, columns: _Columns, mask: np.ndarray, vectors: np.ndarray):
        self.rows = rows
        self.columns = columns
        self.mask = mask
        self.vectors = vectors
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
    records, from which a :class:`LogState` rebuilds the store; :meth:`save` exports it.
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
        self._known_sets: set[PrincipalSet] = set()  # sets whose every name is in directory
        self._rows: list[MemoryFragment] = []  # insertion order; row i of the columns
        self._write_lock = threading.Lock()  # single serialized writer
        self._filled = 0  # rows whose columns are written
        self._creator_ix: dict[PrincipalId, int] = {}
        self._principal_ix: dict[PrincipalId, int] = {}  # agents and resources
        self._bitsets: dict[frozenset[PrincipalId], int] = {}  # bits of each distinct set
        self._words: list[np.ndarray] = []  # word w of each row's bitset, uint64
        self._vector_ix: dict[bytes, int] = {}  # content of each distinct embedding
        self._vectors = np.zeros((0, dimension))  # row i: the vector _vector_ix maps to i
        self._vector_rows = 0  # rows of _vectors written
        self._columns = _Columns(
            np.zeros(0, np.int64),
            np.zeros(0, np.int64),
            np.zeros(0, bool),
            np.zeros(0, np.int64),
        )

    # -- persistence

    def insert(self, fragment: MemoryFragment, *, checked: bool = False) -> str:
        """Store ``fragment``; ``checked=True``: the caller ran :meth:`check` on it."""
        with self._write_lock:
            self._append(fragment, checked)
            if self._audit is not None:
                prov = fragment.provenance
                # the text of wire.dumps(write_detail(fragment)), keys sorted
                detail = (f'{{"agents": {prov.agents.names_json}, "key": {_quote(fragment.key)}, '
                          f'"resources": {prov.resources.names_json}, '
                          f'"tier": {_TIER_JSON[fragment.tier]}, "value": {_quote(fragment.value)}}}')
                self._audit.append(
                    at=prov.created_at,
                    actor=prov.creator.name,
                    action=AuditAction.FRAGMENT_WRITE,
                    subjects=(fragment.id,),
                    detail=detail,
                )
        return fragment.id

    def check(self, embedding: np.ndarray, provenance: Provenance) -> None:
        """Raise what :meth:`insert` would raise for a fragment of this
        embedding and provenance, a duplicate id aside; store nothing."""
        if embedding.shape != (self.dimension,):
            raise DimensionMismatch(
                f"embedding shape {embedding.shape}, store dimension {self.dimension}"
            )
        norm = math.sqrt(float(embedding.dot(embedding)))  # np.linalg.norm's arithmetic
        if not math.isfinite(norm):
            raise NonFiniteVector("embedding is not finite")
        if abs(norm - 1.0) > UNIT_NORM_TOLERANCE:
            raise InvalidFragment(f"embedding norm {norm} is not unit")
        if self.directory is not None:
            if not self.directory.known(provenance.creator):
                raise UnknownPrincipalInProvenance(str(provenance.creator))
            for pids in (provenance.agents, provenance.resources):
                if pids not in self._known_sets:
                    for pid in pids:
                        if not self.directory.known(pid):
                            raise UnknownPrincipalInProvenance(str(pid))
                    self._known_sets.add(pids)

    def _append(self, fragment: MemoryFragment, checked: bool = False) -> None:
        """Check and record one fragment; the next read fills its columns.
        The caller holds the write lock."""
        if fragment.id in self._fragments:
            raise DuplicateId(fragment.id)
        if not checked:
            self.check(fragment.embedding, fragment.provenance)
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

    def fragments(self) -> Sequence[MemoryFragment]:
        """All fragments in insertion order: a read-only view of the rows
        stored at the call, which later inserts do not change."""
        with self._write_lock:
            return _Prefix(self._rows, len(self._rows))

    # -- columns

    def _fill(self) -> None:
        """Write the columns of the rows recorded since the last fill. The
        caller holds the write lock."""
        start, new = self._filled, self._rows[self._filled :]
        end = start + len(new)
        cols = self._columns
        rows = _capacity(len(cols.created_at), end)
        if rows != len(cols.created_at):
            cols = self._columns = _Columns(*(_regrown(column, rows) for column in cols))
            self._words = [_regrown(word, rows) for word in self._words]
        index, known = self._vector_ix, self._vector_rows
        vector = [_intern(index, f.embedding.base) for f in new]  # the base is its content
        cols.vector[start:end] = vector
        fresh = {i: f.embedding for f, i in zip(new, vector) if i >= known}  # in order of i
        if fresh:
            size = _capacity(len(self._vectors), len(index))
            if size != len(self._vectors):
                self._vectors = _regrown(self._vectors, size)
            # rows of a C-contiguous matrix: the reshape is a view, written in place
            np.concatenate(list(fresh.values()), out=self._vectors[known : len(index)].reshape(-1))
            self._vector_rows = len(index)  # a fill that failed before here writes them again
        cols.created_at[start:end] = [f.provenance.created_at for f in new]
        cols.shared[start:end] = [f.tier is Tier.SHARED for f in new]
        cols.creator[start:end] = [_intern(self._creator_ix, f.provenance.creator) for f in new]
        bits = [self._bits(f.provenance.agents) | self._bits(f.provenance.resources) for f in new]
        width = max(map(int.bit_length, bits))  # words only as many as rows use
        while 64 * len(self._words) < width:
            self._words.append(_regrown(np.zeros(0, np.uint64), rows))
        for w, word in enumerate(self._words):
            word[start:end] = [(b >> (64 * w)) & _WORD for b in bits]
        self._filled = end

    def _bits(self, pids: frozenset[PrincipalId]) -> int:
        """Bitset of ``pids``, interning new names. The caller holds the write lock."""
        bits = self._bitsets.get(pids)
        if bits is None:
            bits = 0
            for pid in pids:
                bits |= 1 << _intern(self._principal_ix, pid)
            self._bitsets[pids] = bits
        return bits

    # -- admissibility

    def admissible(
        self, timeline: AccessTimeline, u: PrincipalId, a: PrincipalId, t: int
    ) -> AdmissibleSet:
        """Ids of every fragment reader (u, a, t) may see.

        Exactly the fragments whose contributing agents all lie in
        ``agents_of(u, t)`` and touched resources in ``resources_of(a, t)``,
        with private fragments further restricted to their creator. The
        clauses are one mask over the rows of the ``fragments()`` snapshot:
        ``shared | creator == u``, AND-ed per word with ``(word & ~allowed) ==
        0``, where ``allowed`` holds the bits of the user's agents and the
        agent's resources.
        """
        user_agents = timeline.agents_of(u, t)
        agent_resources = timeline.resources_of(a, t)
        rows = self.fragments()
        n = len(rows)
        with self._write_lock:
            if self._filled < len(self._rows):
                self._fill()
            cols = self._columns.head(n)
            words = [word[:n] for word in self._words]
            vectors = self._vectors[: self._vector_rows]
            allowed = self._bits(user_agents) | self._bits(agent_resources)
            creator = self._creator_ix.get(u, -1)
        mask = cols.shared | (cols.creator == creator)
        for w, word in enumerate(words):
            mask &= (word & np.uint64(~(allowed >> (64 * w)) & _WORD)) == 0
        return AdmissibleSet(rows, cols, mask, vectors)

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
        failed = failed_clause(fragment, u, timeline.agents_of(u, t), timeline.resources_of(a, t))
        return AdmissibilityDecision(
            fragment_id=fragment_id, admitted=failed is None, failed_clause=failed
        )

    # -- line-delimited JSON snapshot

    def to_jsonl(self) -> str:
        return "".join(wire.encode(f.to_dict()) for f in self.fragments())

    def save(self, path: str | Path) -> None:
        wire.dump(path, (f.to_dict() for f in self.fragments()))

    @classmethod
    def from_jsonl(
        cls, lines: Iterable[str] | str, directory: PrincipalDirectory | None = None
    ) -> "MemoryStore":
        """Rebuild a store, of its first fragment's dimension, from a snapshot
        (see :meth:`_add`); ``directory`` defaults to a fresh one."""
        fragments = [MemoryFragment.from_dict(doc) for doc in wire.decode(lines)]
        if not fragments:
            raise ValueError("cannot infer dimension from an empty snapshot")
        directory = directory if directory is not None else PrincipalDirectory()
        return cls(fragments[0].embedding.shape[0], directory)._add(*fragments)

    def _add(self, *fragments: MemoryFragment) -> "MemoryStore":
        """Store ``fragments`` in order, unaudited, registering the principals
        their provenance names first."""
        for fragment in fragments:
            prov = fragment.provenance
            for pid in (prov.creator, *prov.agents, *prov.resources):
                self.directory.register(pid)
            with self._write_lock:
                self._append(fragment)
        return self

    @classmethod
    def load(cls, path: str | Path, **kwargs) -> "MemoryStore":
        with Path(path).open(encoding="utf-8") as fp:
            return cls.from_jsonl(fp, **kwargs)


class LogState:
    """What a replay keeps of an audit log's records fed to it in order: their count, the head
    tick, the episodes started and the one still open (``started``, with its ``rounds``). It also
    applies each grant or revoke to ``timeline`` (:meth:`AccessTimeline.restore`) and stores each
    ``fragment_write`` in ``store``, its key embedded with ``embed``; ``None`` leaves that part
    alone, so ``LogState()`` keeps the tally only. Strict, the first record that fails to apply,
    or whose seq is not its position or whose tick is behind the head, raises; ``strict=False``
    leaves out what does not apply, for a verifier to report."""

    def __init__(self, timeline: AccessTimeline | None = None, store: MemoryStore | None = None,
                 embed: Callable[[str], np.ndarray] | None = None, strict: bool = True) -> None:
        self.timeline, self.store, self.embed, self.strict = timeline, store, embed, strict
        self.count = self.head = self.episodes = 0
        self.started: AuditRecord | None = None  # the episode_start of the open episode
        self.rounds = 0  # its agent_invoke records

    def feed(self, rec: AuditRecord) -> None:
        try:
            if rec.action in (AuditAction.GRANT, AuditAction.REVOKE):
                if self.timeline is not None:
                    self.timeline.restore(PermissionEvent.from_record(rec))
            elif rec.action is AuditAction.FRAGMENT_WRITE and self.store is not None:
                self.store._add(self._fragment(rec))
        except (LookupError, TypeError, ValueError, MemFabricError):
            if self.strict:
                raise
        if self.strict and (rec.seq != self.count or rec.at < self.head):
            message = f"log record {self.count}: seq={rec.seq} at={rec.at}, head {self.head}"
            raise MemFabricError(message)
        self.count, self.head = self.count + 1, max(self.head, rec.at)
        if rec.action is AuditAction.EPISODE_START:
            self.started, self.rounds = rec, 0
            self.episodes += 1
        elif rec.action is AuditAction.EPISODE_END:
            self.started = None
        elif rec.action is AuditAction.AGENT_INVOKE:
            self.rounds += 1

    def fold(self, path: str | Path) -> "LogState":
        """Feed every record of the log at ``path`` (:func:`iter_audit_file`); return self."""
        for rec in iter_audit_file(path):
            self.feed(rec)
        return self

    def _fragment(self, rec: AuditRecord) -> MemoryFragment:
        (fid,) = rec.subjects
        d = rec.detail
        if "key" not in d or "value" not in d:
            raise OutdatedAuditLog(
                f"fragment_write seq={rec.seq} has no key or value: the log "
                "predates the format that carries fragment content"
            )
        agents, resources = map(agent, d["agents"]), map(resource, d["resources"])
        prov = Provenance(rec.at, user(rec.actor), agents, resources)
        key = d["key"]
        return MemoryFragment(fid, Tier(d["tier"]), key, d["value"], self.embed(key), prov)
