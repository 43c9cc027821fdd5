"""Independent brute-force oracles the implementation is checked against.

Everything here recomputes answers the slow, obvious way - full event
replays, per-fragment clause checks, naive summation dot products, scan-
everything ranking - and deliberately avoids the code paths under test.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

from memfabric import PrincipalKind, Tier

# events are plain (tick, "grant"/"revoke", (src PrincipalId, dst PrincipalId))


def replay_edges(events, t):
    present = set()
    for tick, action, edge in events:
        if tick <= t:
            if action == "grant":
                present.add(edge)
            else:
                present.discard(edge)
    return present


def oracle_agents_of(events, u, t):
    return {
        b
        for (a, b) in replay_edges(events, t)
        if a == u and b.kind is PrincipalKind.AGENT
    }


def oracle_resources_of(events, a, t):
    return {
        b
        for (x, b) in replay_edges(events, t)
        if x == a and b.kind is PrincipalKind.RESOURCE
    }


def oracle_admissible(fragments, events, u, a, t):
    """Clause-by-clause admissibility: tier ownership, agent subset,
    resource subset, each against a naive replay snapshot."""
    user_agents = oracle_agents_of(events, u, t)
    agent_resources = oracle_resources_of(events, a, t)
    admitted = set()
    for f in fragments:
        if f.tier is Tier.PRIVATE and f.provenance.creator != u:
            continue
        if not set(f.provenance.agents) <= user_agents:
            continue
        if not set(f.provenance.resources) <= agent_resources:
            continue
        admitted.add(f.id)
    return admitted


def oracle_embed(text, dimension):
    """The deterministic embedding, one fresh blake2b per n-gram added
    straight into a float64 array."""
    marked = f"\x02{text}\x03"
    vec = np.zeros(dimension, dtype=np.float64)
    for n in (2, 3):
        for i in range(len(marked) - n + 1):
            digest = blake2b(marked[i : i + n].encode("utf-8"), digest_size=8).digest()
            h = int.from_bytes(digest, "big")
            vec[(h >> 1) % dimension] += 1.0 if h & 1 else -1.0
    return vec / float(np.linalg.norm(vec))


def naive_dot(x, y):
    total = 0.0
    for xi, yi in zip(x, y):
        total += float(xi) * float(yi)
    return total


def oracle_retrieve(fragments, events, u, a, t, query_vec, k_user, k_cross, threshold):
    """Score everything, filter by admissibility + visibility + threshold,
    sort by (similarity desc, created_at desc, id asc), slice per tier."""
    admitted = oracle_admissible(fragments, events, u, a, t)
    user_rows, cross_rows = [], []
    for f in fragments:
        if f.id not in admitted or f.provenance.created_at > t:
            continue
        sim = naive_dot(query_vec, f.embedding)
        if sim < threshold:
            continue
        row = (f.id, sim, f.provenance.created_at)
        (user_rows if f.tier is Tier.PRIVATE else cross_rows).append(row)

    def ranked(rows, k):
        ordered = sorted(rows, key=lambda r: (-r[1], -r[2], r[0]))
        return [r[0] for r in ordered[:k]]

    return ranked(user_rows, k_user), ranked(cross_rows, k_cross)


def oracle_retrieve_scan(fragments, events, u, a, t, query_vec, k_user, k_cross, threshold):
    """Per-tier ``(id, similarity)`` lists from a full scan that scores every
    visible admissible fragment with one ``float(np.dot(query, embedding))``,
    the float the store reports, so ids and similarities must match bit for
    bit, ties included."""
    admitted = oracle_admissible(fragments, events, u, a, t)
    user_rows, cross_rows = [], []
    for f in fragments:
        if f.id not in admitted or f.provenance.created_at > t:
            continue
        sim = float(np.dot(query_vec, f.embedding))
        if sim < threshold:
            continue
        row = (-sim, -f.provenance.created_at, f.id)
        (user_rows if f.tier is Tier.PRIVATE else cross_rows).append(row)

    def ranked(rows, k):
        return [(fid, -neg_sim) for neg_sim, _, fid in sorted(rows)[:k]]

    return ranked(user_rows, k_user), ranked(cross_rows, k_cross)


def oracle_resolve(bindings, u, a, t, direction):
    """Score every binding and keep the max-rank matches (the caller decides
    what multiple winners mean). Matching is re-derived from scope fields."""

    def matches(scope):
        name = scope.level.name
        if name == "GLOBAL":
            return True
        if name == "USER":
            return scope.user == u
        if name == "AGENT":
            return scope.agent == a
        return scope.window[0] <= t <= scope.window[1]

    scored = [
        (int(b.scope.level), b)
        for b in bindings
        if b.direction is direction and matches(b.scope)
    ]
    if not scored:
        return []
    top = max(rank for rank, _ in scored)
    return [b for rank, b in scored if rank == top]
