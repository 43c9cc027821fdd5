"""Text embedding and tiered top-k retrieval over admissible fragments.

Retrieval ranks fragments by cosine similarity between the query embedding
and fragment *key* embeddings, separately for the reader's own private tier
and the cross-user shared tier, keeping at most ``k_user`` / ``k_cross``
results at or above the similarity threshold. Only admissible fragments are
ever considered, and fragments newer than the query tick are not visible.

A read asks the store for its admissible set once; that set carries the row
snapshot, its columns and the admitted mask, so ranking walks nothing. The
embedding matrix times the query only filters candidates: its products may
differ from a row-by-row float dot product in the last bits, so candidates
are kept within a rounding slack of the threshold and of the k-th best, then
rescored one by one with ``float(np.dot(query, embedding))``. Ids and
similarities are therefore exactly those of a full scan, ties included.

The deterministic embedder hashes character n-grams into a fixed-dimension
unit vector. Similarity is then a pure function of surface text: identical
strings embed identically (cosine 1.0), which is what lets scripted agents
recognize an exact repeat without any remote model.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from typing import Protocol, runtime_checkable

import numpy as np

from .access import AccessTimeline
from .errors import DimensionMismatch, EmptyText, NonFiniteVector, RemoteUnavailable
from .principals import PrincipalId
from .store import AdmissibleSet, MemoryStore, Tier

DEFAULT_SIMILARITY_THRESHOLD = 0.1


@runtime_checkable
class Embedder(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


# distinct n-grams whose hashes are kept; bounded, so memory stays flat
# however much distinct text a long-running service embeds
NGRAM_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=NGRAM_CACHE_SIZE)
def _ngram_hash(gram: str) -> int:
    return int.from_bytes(blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")


class DeterministicEmbedder:
    """Hash character 2-/3-grams of the input into a unit vector.

    Pure function of the text: stable across processes (keyed on blake2b,
    not Python's randomized ``hash``).
    """

    def __init__(self, dimension: int = 32) -> None:
        if dimension < 2:
            raise ValueError("dimension must be at least 2")
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmptyText("cannot embed an empty string")
        marked = f"\x02{text}\x03"
        # sums of +-1.0 are exact in any order, so a list accumulates the
        # same vector as a float64 array would
        counts = [0.0] * self.dimension
        for n in (2, 3):
            for i in range(len(marked) - n + 1):
                h = _ngram_hash(marked[i : i + n])
                counts[(h >> 1) % self.dimension] += 1.0 if h & 1 else -1.0
        # never zero: a text of L marked characters adds 2L - 3 terms of +-1,
        # an odd count, so they cannot all cancel
        vec = np.array(counts, dtype=np.float64)
        out = vec / float(np.linalg.norm(vec))
        out.setflags(write=False)
        return out


class RemoteEmbedder:
    """HTTP+JSON embedder: request {"input": text} -> {"embedding": [...]}."""

    def __init__(self, endpoint: str, dimension: int, timeout: float = 10.0) -> None:
        self.endpoint = endpoint
        self.dimension = dimension
        self.timeout = timeout

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmptyText("cannot embed an empty string")
        payload = json.dumps({"input": text}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise RemoteUnavailable(f"embedder at {self.endpoint}: {exc}") from exc
        try:
            vec = np.array(body["embedding"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise RemoteUnavailable(f"embedder returned malformed payload: {exc}") from exc
        if vec.shape != (self.dimension,):
            raise DimensionMismatch(
                f"remote embedding has shape {vec.shape}, expected ({self.dimension},)"
            )
        norm = float(np.linalg.norm(vec))
        if norm > 0:
            vec = vec / norm
        vec.setflags(write=False)
        return vec


def build_embedder(kind: str, dimension: int, endpoint: str | None = None) -> Embedder:
    if kind == "deterministic":
        return DeterministicEmbedder(dimension)
    if kind == "remote":
        if not endpoint:
            raise ValueError("remote embedder needs an endpoint")
        return RemoteEmbedder(endpoint, dimension)
    raise ValueError(f"unknown embedder kind {kind!r}")


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


@dataclass(frozen=True)
class RankedFragment:
    """One retrieval hit as presented to a reader: content plus score,
    no provenance beyond the tier tag and creation tick."""

    fragment_id: str
    similarity: float
    tier: Tier
    key: str
    value: str
    created_at: int


def _rank(candidates: list[RankedFragment], k: int) -> list[RankedFragment]:
    ordered = sorted(
        candidates, key=lambda c: (-c.similarity, -c.created_at, c.fragment_id)
    )
    return ordered[:k]


def _top(
    admitted: AdmissibleSet,
    rows: np.ndarray,
    query: np.ndarray,
    slack: float,
    threshold: float,
    k: int,
) -> list[RankedFragment]:
    """Exact top ``k`` of the given snapshot rows at or above ``threshold``.

    ``embeddings @ query`` is within ``slack`` of each row's float dot
    product, so a row it puts below ``threshold - slack`` fails the threshold
    and one more than ``2 * slack`` below the k-th best cannot reach the top
    k. The survivors are rescored exactly and ranked.
    """
    if k == 0 or not len(rows):
        return []
    approx = admitted.columns.embeddings[rows] @ query
    keep = approx >= threshold - slack
    rows, approx = rows[keep], approx[keep]
    if len(rows) > k:
        kth = np.partition(approx, len(rows) - k)[len(rows) - k]
        rows = rows[approx >= kth - 2 * slack]
    hits = []
    for i in rows.tolist():
        fragment = admitted.rows[i]
        similarity = float(np.dot(query, fragment.embedding))
        if similarity >= threshold:
            hits.append(
                RankedFragment(
                    fragment_id=fragment.id,
                    similarity=similarity,
                    tier=fragment.tier,
                    key=fragment.key,
                    value=fragment.value,
                    created_at=fragment.provenance.created_at,
                )
            )
    return _rank(hits, k)


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
    query_norm = float(np.linalg.norm(query))
    if not math.isfinite(query_norm):
        raise NonFiniteVector("query embedding is not finite")
    admitted = store.admissible(timeline, u, a, t)
    cols = admitted.columns
    visible = admitted.mask & (cols.created_at <= t)
    # each computed d-term product is within d * 2**-53 * |q| * |e| of the real
    # one, so the two computations differ by at most twice that; doubled again
    slack = 4 * store.dimension * 2.0**-53 * query_norm * cols.max_norm
    user_rows = np.flatnonzero(visible & ~cols.shared)  # admissibility pins creator == u
    cross_rows = np.flatnonzero(visible & cols.shared)
    return (
        _top(admitted, user_rows, query, slack, config.threshold, config.k_user),
        _top(admitted, cross_rows, query, slack, config.threshold, config.k_cross),
    )
