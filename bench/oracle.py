"""Brute-force read oracle for recall-10k, independent of the store's code.

It follows the rule of ``tests/oracles.py``: replay the permission events up
to the read tick, check the three admissibility clauses fragment by
fragment, drop fragments newer than the read, score every survivor, and
sort by (similarity desc, created_at desc, id asc) within each tier.
Similarity is the same float dot product the program computes, so the id
lists must match exactly.
"""

from __future__ import annotations

import numpy as np

from memfabric import PrincipalKind, Tier


def replay_edges(events, t: int) -> set:
    present = set()
    for tick, action, edge in events:
        if tick <= t:
            if action == "grant":
                present.add(edge)
            else:
                present.discard(edge)
    return present


def oracle_read(fragments, events, u, a, t, query_vec, k_user, k_cross, threshold):
    """Per-tier id lists reader (u, a, t) must be shown."""
    edges = replay_edges(events, t)
    user_agents = {b for x, b in edges if x == u and b.kind is PrincipalKind.AGENT}
    agent_resources = {b for x, b in edges if x == a and b.kind is PrincipalKind.RESOURCE}
    user_rows, cross_rows = [], []
    for f in fragments:
        prov = f.provenance
        if f.tier is Tier.PRIVATE and prov.creator != u:
            continue
        if not set(prov.agents) <= user_agents or not set(prov.resources) <= agent_resources:
            continue
        if prov.created_at > t:
            continue
        sim = float(np.dot(query_vec, f.embedding))
        if sim < threshold:
            continue
        row = (-sim, -prov.created_at, f.id)
        (user_rows if f.tier is Tier.PRIVATE else cross_rows).append(row)
    return (
        [row[2] for row in sorted(user_rows)[:k_user]],
        [row[2] for row in sorted(cross_rows)[:k_cross]],
    )
