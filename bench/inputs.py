"""Seeded input generators, one per workload.

Each generator is a pure function of its seed: the universe, the grants,
the preloaded fragments and the request stream. The program under test
receives only these inputs. A client-side mirror of the grants keeps every
generated request permitted, so the expected number of refused requests is
zero.
"""

from __future__ import annotations

import itertools
import random
import uuid
from dataclasses import dataclass
from typing import Callable, Iterator

from memfabric import (
    DeterministicEmbedder,
    MemoryFragment,
    Provenance,
    Tier,
    agent,
    resource,
    user,
)

DIMENSION = 32

# --- text --------------------------------------------------------------------------

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
WORDS = [a + b for a, b in itertools.product(_SYLLABLES[::3], _SYLLABLES[1::3])]


def phrase(rng: random.Random) -> str:
    """A query-like text of about forty characters."""
    return "how does {} {} affect {} {}".format(*rng.sample(WORDS, 4))


# --- episodes: the scenario of a `memfabric run` -------------------------------------


def episodes_config(seed: int) -> dict:
    """20 users, 5 agents with one knowledge base each, full static grants,
    a synthetic pool of 200 queries of which half every user issues."""
    categories = [f"domain{i + 1}" for i in range(5)]
    return {
        "name": "bench-episodes",
        "seed": seed,
        "memory_mode": "shared",
        "users": [f"user_{i + 1:02d}" for i in range(20)],
        "agents": [
            {
                "id": f"{cat}_agent",
                "category": cat,
                "specialization": f"{cat} specialist",
                "resource": f"{cat}_kb",
            }
            for cat in categories
        ],
        "resources": [
            {"id": f"{cat}_kb", "category": cat, "kind": "knowledge_base"} for cat in categories
        ],
        "timeline": {"agent_resources": "one_to_one", "user_agents": "all"},
        "workload": {"synthetic": {"count": 200}, "overlap": 0.5},
        "retrieval": {"k_user": 10, "k_cross": 10, "threshold": 0.1},
        "embedder": {"kind": "deterministic", "dimension": DIMENSION},
    }


# --- the service universe shared by recall-10k and ingest-churn ----------------------

N_USERS, N_AGENTS, N_RESOURCES = 50, 20, 20


@dataclass
class Grants:
    """Client-side mirror of the permission graph."""

    users: list[str]
    agents: list[str]
    resources: list[str]
    user_agents: dict[str, set[str]]
    agent_resources: dict[str, set[str]]

    def edges(self) -> list[dict]:
        """Every present edge as a service edge document, in a fixed order."""
        docs = [{"user": u, "agent": a} for u in self.users for a in sorted(self.user_agents[u])]
        docs += [
            {"agent": a, "resource": r}
            for a in self.agents
            for r in sorted(self.agent_resources[a])
        ]
        return docs

    def holders(self) -> list[str]:
        return [u for u in self.users if self.user_agents[u]]

    def update(self, action: str, doc: dict) -> None:
        """Follow one grant or revoke of the edge document ``doc``."""
        if "user" in doc:
            held, name = self.user_agents[doc["user"]], doc["agent"]
        else:
            held, name = self.agent_resources[doc["agent"]], doc["resource"]
        if action == "grant":
            held.add(name)
        else:
            held.discard(name)


def service_universe(rng: random.Random) -> Grants:
    """50 users x 20 agents x 20 resources; each user holds ~60% of the
    agents, each agent 1-3 resources."""
    users = [f"user_{i:02d}" for i in range(N_USERS)]
    agents = [f"agent_{i:02d}" for i in range(N_AGENTS)]
    resources = [f"kb_{i:02d}" for i in range(N_RESOURCES)]
    user_agents = {}
    for u in users:
        held = {a for a in agents if rng.random() < 0.6}
        user_agents[u] = held or {rng.choice(agents)}
    agent_resources = {a: set(rng.sample(resources, rng.randint(1, 3))) for a in agents}
    return Grants(users, agents, resources, user_agents, agent_resources)


def service_config(seed: int, grants: Grants) -> dict:
    return {
        "name": "bench-service",
        "seed": seed,
        "memory_mode": "shared",
        "users": grants.users,
        "agents": [{"id": a, "category": a} for a in grants.agents],
        "resources": [{"id": r, "category": r} for r in grants.resources],
        "timeline": {},
        "workload": {},
        "embedder": {"kind": "deterministic", "dimension": DIMENSION},
    }


def _pick_pair(rng: random.Random, grants: Grants) -> tuple[str, str]:
    u = rng.choice(grants.holders())
    return u, rng.choice(sorted(grants.user_agents[u]))


def _write_request(rng: random.Random, grants: Grants) -> dict:
    u, a = _pick_pair(rng, grants)
    held = sorted(grants.agent_resources[a])
    used = rng.sample(held, min(len(held), rng.randint(0, 2)))
    return {
        "kind": "write",
        "identity": u,
        "body": {
            "agent": a,
            "subquery": phrase(rng),
            "response": f"{u} asked; {phrase(rng)} is settled by {rng.choice(WORDS)}",
            "resources": used,
        },
    }


# --- recall-10k ----------------------------------------------------------------------

PRELOAD = 10_000
ROUND_READS = 200  # a round of recall-10k: 200 reads on a fresh 10k store...
WRITE_EVERY = 10  # ...with one write after every ten reads
REPEAT_SHARE = 0.3  # share of reads whose query is an existing key, verbatim


@dataclass
class RecallInputs:
    grants: Grants
    config: dict
    preload: list[MemoryFragment]
    requests: Callable[[], Iterator[dict]]  # one round's requests, the same every call


def preload_fragments(rng: random.Random, grants: Grants, first_tick: int) -> list[MemoryFragment]:
    """Fragments whose provenance holds at their creation tick: the creator
    holds every contributing agent, and every touched resource is held by
    one of them. Half are private; keys repeat, so exact hits exist."""
    embedder = DeterministicEmbedder(DIMENSION)
    keys = [phrase(rng) for _ in range(PRELOAD // 2)]
    vectors: dict[str, object] = {}
    holders = grants.holders()
    fragments = []
    for i in range(PRELOAD):
        u = rng.choice(holders)
        held = sorted(grants.user_agents[u])
        agents = rng.sample(held, min(len(held), rng.randint(1, 3)))
        reachable = sorted(set().union(*(grants.agent_resources[a] for a in agents)))
        touched = rng.sample(reachable, min(len(reachable), rng.randint(0, 2)))
        key = rng.choice(keys)
        if key not in vectors:
            vectors[key] = embedder.embed(key)
        fragments.append(
            MemoryFragment(
                id=str(uuid.UUID(int=rng.getrandbits(128), version=4)),
                tier=Tier.PRIVATE if i % 2 == 0 else Tier.SHARED,
                key=key,
                value=f"note {i} on {key}",
                embedding=vectors[key],
                provenance=Provenance(
                    created_at=first_tick + i,
                    creator=user(u),
                    agents=frozenset(agent(a) for a in agents),
                    resources=frozenset(resource(r) for r in touched),
                ),
            )
        )
    return fragments


def recall_inputs(seed: int) -> RecallInputs:
    rng = random.Random(f"recall-10k/{seed}")
    grants = service_universe(rng)
    preload = preload_fragments(rng, grants, first_tick=len(grants.edges()) + 1)
    keys = [f.key for f in preload]

    def requests() -> Iterator[dict]:
        stream = random.Random(f"recall-10k/{seed}/requests")
        for n in range(1, ROUND_READS * (WRITE_EVERY + 1) // WRITE_EVERY + 1):
            if n % (WRITE_EVERY + 1) == 0:
                yield _write_request(stream, grants)
                continue
            u, a = _pick_pair(stream, grants)
            query = stream.choice(keys) if stream.random() < REPEAT_SHARE else phrase(stream)
            yield {
                "kind": "read",
                "identity": u,
                "body": {"user": u, "agent": a, "query": query},
            }

    return RecallInputs(grants, service_config(seed, grants), preload, requests)


# --- ingest-churn --------------------------------------------------------------------

ROUND_OPS = 1500  # a round of ingest-churn: 1,500 requests on a fresh, empty store
WRITE_SHARE, SNAPSHOT_SHARE = 0.70, 0.15  # the rest are grants and revokes


@dataclass
class ChurnInputs:
    grants: Grants
    config: dict
    requests: Iterator[dict]


def churn_inputs(seed: int) -> ChurnInputs:
    """One round of writes, snapshots and alternating revoke/re-grant pairs,
    which hold the edge count steady. The mirror follows every permission
    change as the round's requests are drawn."""
    rng = random.Random(f"ingest-churn/{seed}")
    grants = service_universe(rng)

    def requests() -> Iterator[dict]:
        revoked: dict | None = None
        for _ in range(ROUND_OPS):
            draw = rng.random()
            if draw < WRITE_SHARE:
                yield _write_request(rng, grants)
            elif draw < WRITE_SHARE + SNAPSHOT_SHARE:
                if rng.random() < 0.5:
                    query = f"user={rng.choice(grants.users)}"
                else:
                    query = f"agent={rng.choice(grants.agents)}"
                yield {"kind": "snapshot", "identity": "admin", "query": query}
            elif revoked is None:
                revoked = rng.choice(grants.edges())
                grants.update("revoke", revoked)
                yield {"kind": "revoke", "identity": "admin", "body": {"edge": revoked}}
            else:
                edge, revoked = revoked, None
                grants.update("grant", edge)
                yield {"kind": "grant", "identity": "admin", "body": {"edge": edge}}

    return ChurnInputs(grants, service_config(seed, grants), requests())
