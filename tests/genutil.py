"""Seeded random generators for universes, timelines, and fragment stores,
and the example count of property tests."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import settings

from memfabric import (
    AccessTimeline,
    MemoryFragment,
    MemoryStore,
    PrincipalDirectory,
    Provenance,
    Tier,
)


def make_universe(n_users: int, n_agents: int, n_resources: int):
    directory = PrincipalDirectory()
    users = [directory.add_user(f"u{i + 1}") for i in range(n_users)]
    agents = [directory.add_agent(f"a{i + 1}") for i in range(n_agents)]
    resources = [directory.add_resource(f"r{i + 1}") for i in range(n_resources)]
    return directory, users, agents, resources


def random_universe(rng: random.Random, max_users=5, max_agents=5, max_resources=5):
    return make_universe(
        rng.randint(1, max_users), rng.randint(1, max_agents), rng.randint(1, max_resources)
    )


def random_timeline(rng: random.Random, directory, users, agents, resources, n_events):
    """Build a valid random event history plus its plain-tuple shadow for
    the replay oracles. Grants pick absent edges, revokes present ones."""
    timeline = AccessTimeline(directory)
    candidates = [(u, a) for u in users for a in agents] + [
        (a, r) for a in agents for r in resources
    ]
    present: set = set()
    shadow = []
    tick = 0
    for _ in range(n_events):
        tick += rng.randint(1, 3)
        absent = [e for e in candidates if e not in present]
        granted = [e for e in candidates if e in present]
        if granted and (not absent or rng.random() < 0.4):
            edge = rng.choice(granted)
            timeline.revoke(edge, tick)
            present.discard(edge)
            shadow.append((tick, "revoke", edge))
        elif absent:
            edge = rng.choice(absent)
            timeline.grant(edge, tick)
            present.add(edge)
            shadow.append((tick, "grant", edge))
    return timeline, shadow


def random_unit_vector(rng: random.Random, dim: int) -> np.ndarray:
    vec = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
    norm = np.linalg.norm(vec)
    if norm == 0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def random_fragment(
    rng: random.Random, users, agents, resources, dim: int, fid: str, max_tick: int = 50
) -> MemoryFragment:
    n_agents = rng.randint(1, min(3, len(agents)))
    n_resources = rng.randint(0, min(3, len(resources)))
    return MemoryFragment(
        id=fid,
        tier=rng.choice([Tier.PRIVATE, Tier.SHARED]),
        key=f"topic-{fid}",
        value=f"content-{fid}",
        embedding=random_unit_vector(rng, dim),
        provenance=Provenance(
            created_at=rng.randint(0, max_tick),
            creator=rng.choice(users),
            agents=frozenset(rng.sample(agents, n_agents)),
            resources=frozenset(rng.sample(resources, n_resources)),
        ),
    )


def random_store(
    rng: random.Random, directory, users, agents, resources, dim: int, n_fragments: int
) -> MemoryStore:
    store = MemoryStore(dim, directory=directory)
    for i in range(n_fragments):
        store.insert(
            random_fragment(rng, users, agents, resources, dim, f"f{i:04d}")
        )
    return store


def examples(n: int) -> int:
    """``n``, or more under a profile that asks for more (CI runs some property
    tests again with --hypothesis-profile=thorough)."""
    return max(n, settings.default.max_examples)
