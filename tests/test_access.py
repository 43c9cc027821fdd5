from __future__ import annotations

import random

import pytest

from memfabric import (
    AccessTimeline,
    DuplicateEdge,
    EdgeKind,
    EdgeNotPresent,
    NonMonotonicTimestamp,
    PrincipalDirectory,
    UnknownPrincipal,
    agent,
    user,
)
from genutil import make_universe, random_timeline, random_universe
from oracles import oracle_agents_of, oracle_resources_of


def test_grant_visible_from_its_tick(directory):
    tl = AccessTimeline(directory)
    tl.grant((user("u1"), agent("a1")), at=3)
    assert agent("a1") in tl.agents_of(user("u1"), 3)
    assert agent("a1") in tl.agents_of(user("u1"), 10)


def test_grant_invisible_before_its_tick(directory):
    tl = AccessTimeline(directory)
    tl.grant((user("u1"), agent("a1")), at=3)
    assert agent("a1") not in tl.agents_of(user("u1"), 2)


def test_a_snapshot_is_one_stored_set_until_its_source_changes(directory):
    tl = AccessTimeline(directory)
    u, a1, a2 = user("u1"), agent("a1"), agent("a2")
    tl.grant((u, a1), at=1)
    first = tl.agents_of(u, 1)
    tl.grant((user("u2"), a2), at=2)  # another source's event
    assert tl.agents_of(u, 5) is first and first == {a1}
    tl.grant((u, a2), at=6)
    tl.revoke((u, a1), at=7)
    assert tl.agents_of(u, 5) is first
    assert (tl.agents_of(u, 6), tl.agents_of(u, 7), tl.agents_of(u, 0)) == ({a1, a2}, {a2}, set())


def test_empty_timeline_snapshots(directory):
    tl = AccessTimeline(directory)
    assert tl.agents_of(user("u1"), 0) == frozenset()
    assert tl.resources_of(agent("a1"), 99) == frozenset()


def test_grant_then_revoke_excludes_edge(directory):
    tl = AccessTimeline(directory)
    tl.grant((user("u1"), agent("a1")), at=1)
    tl.revoke((user("u1"), agent("a1")), at=5)
    assert agent("a1") in tl.agents_of(user("u1"), 4)
    assert agent("a1") not in tl.agents_of(user("u1"), 5)


def test_revoke_never_granted_rejected(directory):
    tl = AccessTimeline(directory)
    with pytest.raises(EdgeNotPresent):
        tl.revoke((user("u1"), agent("a1")), at=1)


def test_duplicate_grant_rejected(directory):
    tl = AccessTimeline(directory)
    tl.grant((user("u1"), agent("a1")), at=1)
    with pytest.raises(DuplicateEdge):
        tl.grant((user("u1"), agent("a1")), at=2)


def test_out_of_order_append_impossible(directory):
    tl = AccessTimeline(directory)
    tl.grant((user("u1"), agent("a1")), at=5)
    with pytest.raises(NonMonotonicTimestamp):
        tl.grant((user("u1"), agent("a2")), at=5)
    with pytest.raises(NonMonotonicTimestamp):
        tl.grant((user("u1"), agent("a2")), at=4)


def test_unknown_principal_rejected(directory):
    tl = AccessTimeline(directory)
    with pytest.raises(UnknownPrincipal):
        tl.grant((user("ghost"), agent("a1")), at=1)
    with pytest.raises(UnknownPrincipal):
        tl.agents_of(user("ghost"), 0)
    with pytest.raises(UnknownPrincipal):
        tl.resources_of(agent("ghost"), 0)


def test_wrong_edge_kinds_rejected(directory):
    tl = AccessTimeline(directory)
    with pytest.raises(ValueError):
        tl.grant((user("u1"), user("u2")), at=1)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        tl.grant((agent("a1"), agent("a2")), at=1)  # type: ignore[arg-type]


# --- snapshot consistency against the naive replay oracle ---


def test_snapshots_match_replay_oracle_1000_cases():
    rng = random.Random(20240811)
    for _ in range(1000):
        directory, users, agents, resources = random_universe(rng, 4, 4, 4)
        timeline, shadow = random_timeline(
            rng, directory, users, agents, resources, rng.randint(0, 100)
        )
        horizon = timeline.latest_tick + 2
        for _ in range(3):
            t = rng.randint(0, max(horizon, 1))
            u = rng.choice(users)
            a = rng.choice(agents)
            assert timeline.agents_of(u, t) == oracle_agents_of(shadow, u, t)
            assert timeline.resources_of(a, t) == oracle_resources_of(shadow, a, t)


def test_200_event_timeline_equals_replay_oracle():
    rng = random.Random(7)
    directory, users, agents, resources = make_universe(3, 3, 3)
    timeline, shadow = random_timeline(rng, directory, users, agents, resources, 200)
    for t in range(0, timeline.latest_tick + 1):
        for u in users:
            assert timeline.agents_of(u, t) == oracle_agents_of(shadow, u, t)


def test_grant_revoke_alternation_per_edge():
    rng = random.Random(99)
    directory, users, agents, resources = make_universe(3, 3, 2)
    timeline, _ = random_timeline(rng, directory, users, agents, resources, 150)
    per_edge: dict = {}
    for event in timeline.events:
        per_edge.setdefault(event.edge, []).append(event.action.value)
    for actions in per_edge.values():
        for i, action in enumerate(actions):
            assert action == ("grant" if i % 2 == 0 else "revoke")


# --- published dynamic-permission fixture ---
# Per-user accessible-agent sets at each step of the 5->25->5 ladder.

AGENTS = [
    "chemistry_analytical_agent",
    "energy_fuels_agent",
    "materials_paper_wood_agent",
    "materials_ceramics_agent",
    "physics_mathematical_agent",
]
CHEM, ENERGY, PAPER, CERAMICS, PHYSICS = AGENTS

PHASE_TABLES: dict[str, dict[str, set[str]]] = {
    "t0": {
        "user_1": {PAPER, CERAMICS},
        "user_2": {PHYSICS},
        "user_3": set(),
        "user_4": {PAPER},
        "user_5": {CHEM},
    },
    "t1": {
        "user_1": {PAPER, CERAMICS, ENERGY},
        "user_2": {PHYSICS, ENERGY},
        "user_3": {ENERGY, CHEM},
        "user_4": {PAPER, ENERGY},
        "user_5": {CHEM},
    },
    "t2": {
        "user_1": {PAPER, CERAMICS, ENERGY},
        "user_2": {PHYSICS, ENERGY, CHEM},
        "user_3": {ENERGY, CHEM, CERAMICS},
        "user_4": {PAPER, ENERGY, PHYSICS},
        "user_5": {CHEM, CERAMICS, ENERGY},
    },
    "t3": {
        "user_1": {PAPER, CERAMICS, ENERGY, CHEM},
        "user_2": {PHYSICS, ENERGY, CHEM, CERAMICS},
        "user_3": {ENERGY, CHEM, CERAMICS, PHYSICS},
        "user_4": {PAPER, ENERGY, PHYSICS, CERAMICS},
        "user_5": {CHEM, CERAMICS, ENERGY, PHYSICS},
    },
    "t4": {f"user_{i}": set(AGENTS) for i in range(1, 6)},
    "t5": {
        "user_1": {CHEM, ENERGY, PHYSICS},
        "user_2": {CHEM, ENERGY, PAPER, CERAMICS},
        "user_3": set(AGENTS),
        "user_4": {CHEM, ENERGY, CERAMICS, PHYSICS},
        "user_5": {ENERGY, PAPER, CERAMICS, PHYSICS},
    },
    "t6": {
        "user_1": {ENERGY},
        "user_2": {CHEM, ENERGY, CERAMICS},
        "user_3": {CHEM, PAPER, CERAMICS, PHYSICS},
        "user_4": {CHEM, ENERGY, CERAMICS, PHYSICS},
        "user_5": {ENERGY, PAPER, PHYSICS},
    },
    "t7": {
        "user_1": set(),
        "user_2": {CHEM, ENERGY, CERAMICS},
        "user_3": {PAPER, CERAMICS},
        "user_4": {CERAMICS, PHYSICS},
        "user_5": {ENERGY, PAPER, PHYSICS},
    },
    "t8": {
        "user_1": set(),
        "user_2": {CHEM},
        "user_3": {CERAMICS},
        "user_4": {CERAMICS},
        "user_5": {ENERGY, PHYSICS},
    },
}

PHASE_EDGE_COUNTS = {
    "t0": 5, "t1": 10, "t2": 15, "t3": 20, "t4": 25,
    "t5": 20, "t6": 15, "t7": 10, "t8": 5,
}


def build_published_timeline() -> tuple[AccessTimeline, dict[str, int]]:
    """Replay the published phase tables as explicit grant/revoke diffs."""
    directory = PrincipalDirectory()
    users = {f"user_{i}": directory.add_user(f"user_{i}") for i in range(1, 6)}
    agents_by_name = {name: directory.add_agent(name) for name in AGENTS}
    timeline = AccessTimeline(directory)
    tick = 0
    boundaries: dict[str, int] = {}
    previous: dict[str, set[str]] = {u: set() for u in users}
    for label in sorted(PHASE_TABLES):
        table = PHASE_TABLES[label]
        for u in sorted(users):
            for a in sorted(table[u] - previous[u]):
                tick += 1
                timeline.grant((users[u], agents_by_name[a]), tick)
            for a in sorted(previous[u] - table[u]):
                tick += 1
                timeline.revoke((users[u], agents_by_name[a]), tick)
        previous = {u: set(table[u]) for u in users}
        boundaries[label] = tick
    return timeline, boundaries


def test_published_t0_grants_reproduce_user1_agents():
    timeline, boundaries = build_published_timeline()
    got = {a.name for a in timeline.agents_of(user("user_1"), boundaries["t0"])}
    assert got == {PAPER, CERAMICS}


def test_published_phase_tables_reproduce_edge_counts_and_snapshots():
    timeline, boundaries = build_published_timeline()
    for label, expected_count in PHASE_EDGE_COUNTS.items():
        t = boundaries[label]
        assert timeline.edge_count(t, EdgeKind.USER_AGENT) == expected_count, label
        for u, expected_agents in PHASE_TABLES[label].items():
            got = {a.name for a in timeline.agents_of(user(u), t)}
            assert got == expected_agents, (label, u)


def test_revoke_phases_from_full_graph_hit_20_15_10_5():
    timeline, boundaries = build_published_timeline()
    counts = [
        timeline.edge_count(boundaries[label], EdgeKind.USER_AGENT)
        for label in ("t5", "t6", "t7", "t8")
    ]
    assert counts == [20, 15, 10, 5]


# --- event log round-trip ---


def test_jsonl_round_trip_preserves_everything(directory):
    rng = random.Random(5)
    d2, users, agents, resources = make_universe(3, 3, 3)
    timeline, _ = random_timeline(rng, d2, users, agents, resources, 60)
    text = timeline.to_jsonl()
    rebuilt = AccessTimeline.from_jsonl(text)
    assert rebuilt.events == timeline.events
    assert rebuilt.to_jsonl() == text
    t = timeline.latest_tick
    for u in users:
        assert rebuilt.agents_of(u, t) == timeline.agents_of(u, t)
