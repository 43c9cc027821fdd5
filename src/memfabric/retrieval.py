"""Text embedding and tiered top-k retrieval over admissible fragments.

Retrieval ranks fragments by cosine similarity between the query embedding
and fragment *key* embeddings, separately for the reader's own private tier
and the cross-user shared tier, keeping at most ``k_user`` / ``k_cross``
results at or above the similarity threshold. Only admissible fragments are
ever considered, and fragments newer than the query tick are not visible.

A read asks the store for its admissible set once; that set carries the row
snapshot, its columns, the admitted mask and the store's table of distinct
key vectors, which the ``vector`` column indexes, so ranking walks nothing.
The visible admitted rows of both tiers are scored in one exact pass. When
the table has no more rows than those candidates, each distinct vector is
scored once, ``np.vecdot(vectors, query)[vector[rows]]``; otherwise only the
candidates' vectors are gathered, ``np.vecdot(vectors[vector[rows]], query)``.
Either runs the same per-row dot kernel as ``float(np.dot(query,
embedding))`` on the same bytes, so the scores equal a row-by-row scan bit
for bit (a matrix product may differ in the last bits). The threshold and
the k-th best are applied to those scores, ties at the k-th kept, and only
those candidates are sorted. Ids and similarities are therefore exactly those
of a full scan, ties included.

The deterministic embedder hashes character n-grams into a fixed-dimension
unit vector. Similarity is then a pure function of surface text: identical
strings embed identically (cosine 1.0), which is what lets scripted agents
recognize an exact repeat without any remote model. The bucket and sign of
each n-gram are cached per dimension, so an unseen text costs one lookup and
one add per n-gram, and each embedder keeps the vectors of the texts it
embedded last, so a repeated text costs one lookup. Both embedders return a
:func:`~memfabric.store.frozen_vector`, which fragments adopt without a
copy: every fragment of one text shares the one immutable vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from hashlib import blake2b
from typing import NamedTuple, Protocol, runtime_checkable

import numpy as np

from . import wire
from .access import AccessTimeline
from .errors import DimensionMismatch, EmptyText, NonFiniteVector, RemoteUnavailable
from .principals import PrincipalId
from .store import AdmissibleSet, MemoryStore, Tier, frozen_vector

DEFAULT_SIMILARITY_THRESHOLD = 0.1


@runtime_checkable
class Embedder(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


# distinct (dimension, n-gram) pairs whose terms are kept, and distinct texts
# whose vectors each deterministic embedder keeps; bounded, so memory stays
# flat however much distinct text a long-running service embeds
NGRAM_CACHE_SIZE = 1 << 14
EMBED_CACHE_SIZE = 1 << 10


@lru_cache(maxsize=NGRAM_CACHE_SIZE)
def _ngram_term(dimension: int, gram: str) -> tuple[int, float]:
    """The bucket and the sign +-1.0 that ``gram`` adds to a vector of ``dimension``.
    A lone surrogate, which JSON text may carry, hashes as its own code point."""
    digest = blake2b(gram.encode("utf-8", "surrogatepass"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    return (h >> 1) % dimension, 1.0 if h & 1 else -1.0


def _vector(dimension: int, text: str) -> np.ndarray:
    marked = f"\x02{text}\x03"
    # sums of +-1.0 are exact in any order, so a list accumulates the
    # same vector as a float64 array would
    counts = [0.0] * dimension
    for n in (2, 3):
        for i in range(len(marked) - n + 1):
            bucket, sign = _ngram_term(dimension, marked[i : i + n])
            counts[bucket] += sign
    # never zero: a text of L marked characters adds 2L - 3 terms of +-1,
    # an odd count, so they cannot all cancel
    vec = np.array(counts, dtype=np.float64)
    return frozen_vector(vec / float(np.linalg.norm(vec)))


class DeterministicEmbedder:
    """Hash character 2-/3-grams of the input into a unit vector.

    Pure function of the text: stable across processes (keyed on blake2b,
    not Python's randomized ``hash``). The immutable vectors of the last
    ``EMBED_CACHE_SIZE`` distinct texts are kept and returned again.
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 2:
            raise ValueError("dimension must be at least 2")
        self.dimension = dimension
        # the cache holds no reference to the embedder, so a dropped embedder
        # and its vectors are freed by reference counting
        self._cached = lru_cache(maxsize=EMBED_CACHE_SIZE)(partial(_vector, dimension))

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmptyText("cannot embed an empty string")
        return self._cached(text)


class RemoteEmbedder:
    """HTTP+JSON embedder: request {"input": text} -> {"embedding": [...]}."""

    def __init__(self, endpoint: str, dimension: int, timeout: float = 10.0) -> None:
        self.endpoint = endpoint
        self.dimension = dimension
        self.timeout = timeout

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmptyText("cannot embed an empty string")
        embedding = wire.post_json(self.endpoint, {"input": text}, "embedding", self.timeout)
        try:
            vec = np.array(embedding, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise RemoteUnavailable(f"embedder returned malformed payload: {exc}") from exc
        if vec.shape != (self.dimension,):
            raise DimensionMismatch(
                f"remote embedding has shape {vec.shape}, expected ({self.dimension},)"
            )
        norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm) or norm == 0.0:
            # the backend is at fault, not the caller
            raise RemoteUnavailable(f"embedder returned a vector of norm {norm}")
        return frozen_vector(vec / norm)


def cosine(x: np.ndarray, y: np.ndarray) -> float:
    """Dot product of unit vectors; stays within [-1, 1] up to rounding."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatch(f"cosine over shapes {x.shape} and {y.shape}")
    return float(np.dot(x, y))


@dataclass(frozen=True)
class RetrievalConfig:
    k_user: int = 10
    k_cross: int = 10
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD

    def __post_init__(self) -> None:
        if self.k_user < 0 or self.k_cross < 0:
            raise ValueError("tier sizes must be non-negative")
        if not (-1.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must lie in [-1, 1]")


class RankedFragment(NamedTuple):
    """One retrieval hit as presented to a reader: content plus score,
    no provenance beyond the tier tag and creation tick; equal to the tuple of its fields."""

    fragment_id: str
    similarity: float
    tier: Tier
    key: str
    value: str
    created_at: int


def _top(
    admitted: AdmissibleSet, rows: np.ndarray, sims: np.ndarray, k: int
) -> list[RankedFragment]:
    """The ``k`` best of the given snapshot rows by their exact scores: one sort
    of plain ``(-similarity, -created_at, id, i)`` tuples of those at or above the k-th."""
    if len(rows) > k:
        if k == 0:
            return []
        kth = np.partition(sims, len(sims) - k)[len(sims) - k]
        keep = sims >= kth  # ties at the k-th are ranked by the sort below
        rows, sims = rows[keep], sims[keep]
    fragments = admitted.rows.take(rows.tolist())
    neg_created = (-admitted.columns.created_at[rows]).tolist()
    ranked = zip((-sims).tolist(), neg_created, [f.id for f in fragments], range(len(rows)))
    hits = []
    for neg_sim, neg_at, fragment_id, j in sorted(ranked)[:k]:
        f = fragments[j]
        hits.append(RankedFragment(fragment_id, -neg_sim, f.tier, f.key, f.value, -neg_at))
    return hits


def retrieve(
    store: MemoryStore,
    timeline: AccessTimeline,
    u: PrincipalId,
    a: PrincipalId,
    t: int,
    query_embedding: np.ndarray,
    config: RetrievalConfig,
) -> tuple[list[RankedFragment], list[RankedFragment]]:
    """Two-tier top-k retrieval for reader (u, a, t).

    Returns ``(user_tier, cross_tier)``: the reader's own private fragments
    and the shared pool, each filtered to admissible fragments created at or
    before ``t`` with similarity >= threshold, sorted by (similarity desc,
    created_at desc, id asc), and truncated to the configured tier size.
    """
    query = np.asarray(query_embedding, dtype=np.float64)
    if query.shape != (store.dimension,):
        raise DimensionMismatch(
            f"query embedding shape {query.shape}, store dimension {store.dimension}"
        )
    if not math.isfinite(float(query.dot(query))):  # finite exactly when its norm is
        raise NonFiniteVector("query embedding is not finite")
    admitted = store.admissible(timeline, u, a, t)
    cols = admitted.columns
    rows = np.flatnonzero(admitted.mask & (cols.created_at <= t))
    vectors, vix = admitted.vectors, cols.vector[rows]
    if len(vectors) <= len(rows):  # scoring every distinct vector is the smaller pass
        sims = np.vecdot(vectors, query)[vix]
    else:
        sims = np.vecdot(vectors.take(vix, axis=0), query)
    keep = sims >= config.threshold
    rows, sims = rows[keep], sims[keep]
    shared = cols.shared[rows]
    private = ~shared  # admissibility pins creator == u
    return (
        _top(admitted, rows[private], sims[private], config.k_user),
        _top(admitted, rows[shared], sims[shared], config.k_cross),
    )
