from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import threading

import numpy as np
import pytest

from memfabric import (
    AccessTimeline,
    AdmissibilityClause,
    AuditLog,
    DeterministicEmbedder,
    DimensionMismatch,
    DuplicateId,
    InteractionTrace,
    InvalidFragment,
    MemoryFragment,
    MemoryStore,
    PolicyTable,
    PrincipalDirectory,
    Provenance,
    Tier,
    UnknownFragment,
    UnknownPrincipalInProvenance,
    agent,
    encode_and_write,
    resource,
    user,
)
from memfabric import RetrievalConfig, retrieve
from memfabric.errors import NonFiniteVector
from memfabric.store import frozen_vector, write_detail
from genutil import (
    make_universe,
    random_fragment,
    random_store,
    random_timeline,
    random_unit_vector,
)
from oracles import oracle_admissible


def unit(dim: int, axis: int = 0) -> np.ndarray:
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def fragment(
    fid="f1",
    tier=Tier.SHARED,
    key="k",
    value="v",
    dim=4,
    created_at=0,
    creator="u1",
    agents=("a1",),
    resources=(),
) -> MemoryFragment:
    return MemoryFragment(
        id=fid,
        tier=tier,
        key=key,
        value=value,
        embedding=unit(dim),
        provenance=Provenance(
            created_at=created_at,
            creator=user(creator),
            agents=frozenset(agent(a) for a in agents),
            resources=frozenset(resource(r) for r in resources),
        ),
    )


def test_insert_then_fetch_round_trip(directory):
    store = MemoryStore(4, directory=directory)
    f = fragment()
    store.insert(f)
    got = store.get("f1")
    assert got is f
    assert got.provenance == f.provenance
    assert np.array_equal(got.embedding, f.embedding)


def test_wrong_dimension_rejected(directory):
    store = MemoryStore(4, directory=directory)
    with pytest.raises(DimensionMismatch):
        store.insert(fragment(dim=5))


def test_duplicate_id_rejected(directory):
    store = MemoryStore(4, directory=directory)
    store.insert(fragment())
    with pytest.raises(DuplicateId):
        store.insert(fragment())


def test_non_unit_embedding_rejected(directory):
    store = MemoryStore(4, directory=directory)
    bad = MemoryFragment(
        id="f1",
        tier=Tier.SHARED,
        key="k",
        value="v",
        embedding=np.array([1.0, 1.0, 0.0, 0.0]),
        provenance=Provenance(0, user("u1"), frozenset({agent("a1")})),
    )
    with pytest.raises(InvalidFragment):
        store.insert(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_embedding_rejected(directory, bad):
    store = MemoryStore(4, directory=directory)
    f = dataclasses.replace(fragment(), embedding=np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(NonFiniteVector):
        store.insert(f)
    assert len(store) == 0 and list(store.fragments()) == []


def test_empty_key_or_value_rejected():
    with pytest.raises(InvalidFragment):
        fragment(key="")
    with pytest.raises(InvalidFragment):
        fragment(value="")


def test_unknown_provenance_principal_rejected(directory):
    log = AuditLog()
    store = MemoryStore(4, directory=directory, audit=log)
    with pytest.raises(UnknownPrincipalInProvenance):
        store.insert(fragment(agents=("phantom",)))
    # sets the store has found known do not vouch for a larger set, nor for the creator
    store.insert(fragment("f1", agents=("a1",), resources=("r1",)))
    with pytest.raises(UnknownPrincipalInProvenance, match="agent:phantom"):
        store.insert(fragment("f2", agents=("a1", "phantom"), resources=("r1",)))
    with pytest.raises(UnknownPrincipalInProvenance, match="user:u9"):
        store.insert(fragment("f3", creator="u9", agents=("a1",), resources=("r1",)))
    assert [f.id for f in store.fragments()] == ["f1"] and len(log) == 1
    # encode_and_write checks before it inserts: an agent its timeline knows and the
    # store's directory does not stores and audits nothing
    wider = PrincipalDirectory()
    for pid in (agent("a1"), agent("phantom")):
        wider.register(pid)
    timeline, embedder = AccessTimeline(wider), DeterministicEmbedder(4)
    write = InteractionTrace(user("u1"), agent("a1"), 1, "what is x", "x is y")
    assert len(encode_and_write(write, PolicyTable(), store, timeline, embedder)) == 2
    phantom = dataclasses.replace(write, agent=agent("phantom"), timestamp=2)
    with pytest.raises(UnknownPrincipalInProvenance, match="agent:phantom"):
        encode_and_write(phantom, PolicyTable(), store, timeline, embedder)
    assert len(store) == 3 and len(log) == 3


def test_provenance_needs_an_agent():
    with pytest.raises(InvalidFragment):
        Provenance(0, user("u1"), frozenset())


def test_unknown_fragment(directory):
    store = MemoryStore(4, directory=directory)
    with pytest.raises(UnknownFragment):
        store.get("nope")


# --- immutability ---


def test_provenance_is_frozen():
    f = fragment()
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.provenance.created_at = 99  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.key = "other"  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.provenance.creator.name = "other"  # type: ignore[misc]


def test_records_are_slotted_and_share_the_empty_resource_set():
    f = fragment(resources=())
    for record in (f, f.provenance, f.provenance.creator):
        assert not hasattr(record, "__dict__")
    other = Provenance(created_at=1, creator=user("u2"), agents=[agent("a2")], resources=[])
    assert other.resources is f.provenance.resources


def test_provenance_holds_one_interned_set_per_distinct_set():
    f = fragment(agents=("a2", "a1"), resources=("r1",))
    other = Provenance(created_at=3, creator=user("u2"), agents=[agent("a1"), agent("a2")],
                       resources=iter([resource("r1")]))
    assert other.agents is f.provenance.agents and other.resources is f.provenance.resources
    assert f.provenance.agents.names == ("a1", "a2")
    assert Provenance.from_dict(f.provenance.to_dict()).agents is f.provenance.agents


def test_write_detail_lists_are_fresh():
    # verify compares them with decoded lists, and a caller may edit its copy
    f = fragment(agents=("a2", "a1"), resources=("r1",))
    first = write_detail(f)
    first["agents"].append("a9")
    first["resources"].clear()
    assert write_detail(f)["agents"] == ["a1", "a2"] and write_detail(f)["resources"] == ["r1"]
    first = f.provenance.to_dict()
    first["agents"].pop()
    assert f.provenance.to_dict()["agents"] == ["a1", "a2"]


def test_embedding_is_read_only():
    f = fragment()
    with pytest.raises(ValueError):
        f.embedding[0] = 0.5
    with pytest.raises(ValueError):
        f.embedding.setflags(write=True)


def test_immutable_vector_is_adopted():
    vector = DeterministicEmbedder(4).embed("kiln glaze")
    f = dataclasses.replace(fragment(), embedding=vector)
    assert f.embedding is vector
    assert dataclasses.replace(f, id="f2", tier=Tier.PRIVATE).embedding is vector


def _writable() -> np.ndarray:
    return unit(4, 1)


def _read_only_view() -> np.ndarray:
    view = unit(4, 1)[:]
    view.setflags(write=False)
    return view


@pytest.mark.parametrize(
    "make",
    [_writable, _read_only_view, lambda: unit(4, 1).astype(np.float32)],
    ids=["writable", "read-only-view", "float32"],
)
def test_other_embeddings_are_copied(make):
    given = make()
    f = dataclasses.replace(fragment(), embedding=given)
    assert f.embedding is not given and not np.shares_memory(f.embedding, given)
    assert f.embedding.dtype == np.float64 and f.embedding.tolist() == [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        f.embedding.setflags(write=True)
    if given.flags.writeable:
        given[1] = 0.5
    else:
        given.base[1] = 0.5
    assert f.embedding[1] == 1.0


def test_a_vector_over_part_of_its_bytes_is_copied():
    # adopted, its bytes would hold more or other than its content, by which
    # the store keys its table of distinct vectors
    buffer = np.array([9.0, 0.0, 1.0, 0.0, 0.0, 9.0]).tobytes()
    for given in (np.frombuffer(buffer, count=4, offset=8), frozen_vector([0, 0, 1.0, 0])[::-1]):
        f = dataclasses.replace(fragment(), embedding=given)
        assert f.embedding is not given and f.embedding.base == given.tobytes()
        assert f.embedding.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_provenance_bytes_stable_across_reads(directory):
    store = MemoryStore(4, directory=directory)
    f = fragment()
    digest_at_insert = hashlib.sha256(
        json.dumps(f.provenance.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    store.insert(f)
    for _ in range(3):
        digest_later = hashlib.sha256(
            json.dumps(store.get("f1").provenance.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        assert digest_later == digest_at_insert


# --- admissibility ---


def scenario_timeline(directory) -> AccessTimeline:
    tl = AccessTimeline(directory)
    tl.grant((user("u1"), agent("a1")), 1)
    tl.grant((user("u2"), agent("a1")), 2)
    tl.grant((user("u1"), agent("a2")), 3)
    tl.grant((agent("a1"), resource("r1")), 4)
    tl.grant((agent("a2"), resource("r2")), 5)
    return tl


def test_one_to_one_kb_fragment_admitted(directory):
    # Shared fragment produced through an agent with a dedicated knowledge
    # base is readable by another user holding that agent at the time.
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    store.insert(fragment(tier=Tier.SHARED, creator="u2", agents=("a1",), resources=("r1",)))
    assert store.admissible(tl, user("u1"), agent("a1"), 10) == {"f1"}


def test_empty_provenance_sets_admit_everywhere(directory):
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    # no touched resources, single agent both users hold
    store.insert(fragment(tier=Tier.SHARED, creator="u1", agents=("a1",), resources=()))
    for u in ("u1", "u2"):
        assert "f1" in store.admissible(tl, user(u), agent("a1"), 10)


def test_private_requires_creator(directory):
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    store.insert(fragment(tier=Tier.PRIVATE, creator="u2", agents=("a1",)))
    assert store.admissible(tl, user("u2"), agent("a1"), 10) == {"f1"}
    assert store.admissible(tl, user("u1"), agent("a1"), 10) == set()


def test_admissible_matches_oracle_on_random_universes():
    rng = random.Random(11)
    for _ in range(150):
        directory, users, agents, resources = make_universe(3, 3, 3)
        timeline, shadow = random_timeline(
            rng, directory, users, agents, resources, rng.randint(0, 60)
        )
        store = random_store(rng, directory, users, agents, resources, 8, 50)
        fragments = list(store.fragments())
        t = rng.randint(0, max(timeline.latest_tick, 1))
        u = rng.choice(users)
        a = rng.choice(agents)
        assert store.admissible(timeline, u, a, t) == oracle_admissible(
            fragments, shadow, u, a, t
        )



@pytest.mark.parametrize("n_resources", [3, 100], ids=["agents", "agents-and-resources"])
def test_cached_masks_stay_exact_as_rows_need_more_bitset_words(n_resources):
    # each fragment names agents from a window sliding over 150 agents and,
    # with 100 resources, resources from a window sliding over those, so the
    # one index of agents and resources passes 64 and 128 (one, two, three
    # words and more) while reads, each a full pass over the words of every
    # row, come every few inserts; an agent reaches all of 3 resources, or
    # the 23 of 100 nearest its own place
    rng = random.Random(29)
    directory, users, agents, resources = make_universe(3, 150, n_resources)
    timeline, shadow = AccessTimeline(directory), []
    reach = [(a, r) for j, a in enumerate(agents) for k, r in enumerate(resources)
             if n_resources == 3 or abs(k - j * 2 // 3) < 12]
    edges = [(u, a) for u in users for a in agents] + reach
    for tick, edge in enumerate(edges):
        if rng.random() < 0.8:
            timeline.grant(edge, tick)
            shadow.append((tick, "grant", edge))
    t = timeline.latest_tick
    store = MemoryStore(8, directory=directory)
    admitted = 0
    for i in range(240):
        start = i * 7 // 12
        window = agents[start : start + 10]
        touched = resources[start * 2 // 3 : start * 2 // 3 + 10] if n_resources > 3 else resources
        store.insert(random_fragment(rng, users, window, touched, 8, f"f{i:04d}", t))
        if i % 3 == 2:
            fragments = list(store.fragments())
            for u, a in zip(users, (agents[0], agents[140], agents[i % 150])):
                got = store.admissible(timeline, u, a, t)
                assert got == oracle_admissible(fragments, shadow, u, a, t)
                admitted += len(got)
    assert admitted > 0


def test_admissible_soundness_clause_by_clause():
    rng = random.Random(23)
    directory, users, agents, resources = make_universe(4, 4, 4)
    timeline, _ = random_timeline(rng, directory, users, agents, resources, 80)
    store = random_store(rng, directory, users, agents, resources, 8, 120)
    t = timeline.latest_tick
    for u in users:
        for a in agents:
            ua = timeline.agents_of(u, t)
            ar = timeline.resources_of(a, t)
            for fid in store.admissible(timeline, u, a, t):
                f = store.get(fid)
                if f.tier is Tier.PRIVATE:
                    assert f.provenance.creator == u
                assert f.provenance.agents <= ua
                assert f.provenance.resources <= ar


def test_revocation_monotonicity():
    rng = random.Random(31)
    directory, users, agents, resources = make_universe(3, 3, 3)
    timeline, _ = random_timeline(rng, directory, users, agents, resources, 120)
    store = random_store(rng, directory, users, agents, resources, 8, 60)
    ticks = range(0, timeline.latest_tick + 1, 7)
    for u in users:
        for a in agents:
            for t1 in ticks:
                for t2 in ticks:
                    if (
                        timeline.agents_of(u, t1) <= timeline.agents_of(u, t2)
                        and timeline.resources_of(a, t1) <= timeline.resources_of(a, t2)
                    ):
                        assert store.admissible(timeline, u, a, t1) <= store.admissible(
                            timeline, u, a, t2
                        )


# --- the three cross-reach cases ---


def test_sharing_case_1_own_history_via_other_agent(directory):
    # u1's own fragment made with a2 surfaces while a1 serves u1.
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    store.insert(fragment(tier=Tier.PRIVATE, creator="u1", agents=("a2",)))
    assert "f1" in store.admissible(tl, user("u1"), agent("a1"), 10)


def test_sharing_case_2_same_agent_other_user(directory):
    # a1 made it for u2; a1 now serves u1.
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    store.insert(fragment(tier=Tier.SHARED, creator="u2", agents=("a1",)))
    assert "f1" in store.admissible(tl, user("u1"), agent("a1"), 10)


def test_sharing_case_3_other_user_other_agent_resource_gated(directory):
    # u2's fragment via a1 touching r1, read by u1 through a2: admitted only
    # if a2 holds r1.
    tl = scenario_timeline(directory)
    tl.grant((user("u2"), agent("a2")), 6)
    store = MemoryStore(4, directory=directory)
    store.insert(
        fragment(tier=Tier.SHARED, creator="u2", agents=("a1",), resources=("r1",))
    )
    assert "f1" not in store.admissible(tl, user("u1"), agent("a2"), 10)
    tl.grant((agent("a2"), resource("r1")), 7)
    assert "f1" in store.admissible(tl, user("u1"), agent("a2"), 10)


# --- explain ---


def test_explain_tier_ownership_first(directory):
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    # fails tier AND agent clause; tier must be named
    store.insert(fragment(tier=Tier.PRIVATE, creator="u2", agents=("a3",)))
    decision = store.explain(tl, user("u1"), agent("a1"), 10, "f1")
    assert not decision.admitted
    assert decision.failed_clause is AdmissibilityClause.TIER_OWNERSHIP


def test_explain_agent_then_resource_clause(directory):
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    store.insert(fragment(fid="fa", tier=Tier.SHARED, creator="u1", agents=("a3",)))
    store.insert(
        fragment(fid="fr", tier=Tier.SHARED, creator="u1", agents=("a1",), resources=("r2",))
    )
    assert (
        store.explain(tl, user("u1"), agent("a1"), 10, "fa").failed_clause
        is AdmissibilityClause.AGENT_SUBSET
    )
    assert (
        store.explain(tl, user("u1"), agent("a1"), 10, "fr").failed_clause
        is AdmissibilityClause.RESOURCE_SUBSET
    )


def test_explain_agrees_with_admissible_on_random_universe():
    rng = random.Random(41)
    directory, users, agents, resources = make_universe(3, 3, 3)
    timeline, _ = random_timeline(rng, directory, users, agents, resources, 60)
    store = random_store(rng, directory, users, agents, resources, 8, 60)
    t = timeline.latest_tick
    for u in users:
        for a in agents:
            admitted = store.admissible(timeline, u, a, t)
            for f in store.fragments():
                decision = store.explain(timeline, u, a, t, f.id)
                assert decision.admitted == (f.id in admitted)


def test_explain_unknown_fragment(directory):
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    with pytest.raises(UnknownFragment):
        store.explain(tl, user("u1"), agent("a1"), 0, "missing")


# --- snapshot round-trip ---


def test_export_reimport_byte_identical_10k():
    rng = random.Random(77)
    directory, users, agents, resources = make_universe(5, 5, 5)
    store = random_store(rng, directory, users, agents, resources, 8, 10_000)
    text = store.to_jsonl()
    rebuilt = MemoryStore.from_jsonl(text)
    assert rebuilt.to_jsonl() == text
    assert len(rebuilt) == 10_000


def test_loaded_store_admits_and_retrieves_like_the_saved_one(tmp_path):
    rng = random.Random(5)
    directory, users, agents, resources = make_universe(3, 4, 4)
    timeline, _ = random_timeline(rng, directory, users, agents, resources, 40)
    store = random_store(rng, directory, users, agents, resources, 8, 300)
    store.save(tmp_path / "store.jsonl")
    loaded = MemoryStore.load(tmp_path / "store.jsonl")
    assert [f.id for f in loaded.fragments()] == [f.id for f in store.fragments()]
    cfg = RetrievalConfig(k_user=5, k_cross=5, threshold=0.0)
    for t in range(0, timeline.latest_tick + 2, 5):
        for u in users:
            for a in agents:
                assert loaded.admissible(timeline, u, a, t) == store.admissible(timeline, u, a, t)
                q = random_unit_vector(rng, 8)
                assert retrieve(loaded, timeline, u, a, t, q, cfg) == retrieve(
                    store, timeline, u, a, t, q, cfg
                )


def test_fill_writes_the_same_columns_in_one_batch_or_many():
    rng = random.Random(41)
    directory, users, agents, resources = make_universe(3, 4, 4)
    timeline, _ = random_timeline(rng, directory, users, agents, resources, 20)
    fragments = [
        random_fragment(rng, users, agents, resources, 8, f"f{i:05d}") for i in range(10_000)
    ]
    # keys repeat, as equal vectors in distinct arrays, within a batch and across batches
    fragments = [
        dataclasses.replace(f, embedding=np.array(fragments[rng.randrange(3000)].embedding))
        for f in fragments
    ]
    reader = (users[0], agents[0], timeline.latest_tick)
    one, many = MemoryStore(8, directory), MemoryStore(8, directory)
    for fragment_ in fragments:
        one.insert(fragment_)
    i = 0
    while i < len(fragments):
        for fragment_ in fragments[i : i + rng.randint(1, 2)]:
            many.insert(fragment_)
            i += 1
        many.admissible(timeline, *reader)  # fills the rows inserted since the last read
    once, batched = one.admissible(timeline, *reader), many.admissible(timeline, *reader)
    assert np.array_equal(once.mask, batched.mask)
    for column_once, column_batched in zip(once.columns, batched.columns):
        assert column_once.tobytes() == column_batched.tobytes()
    assert once.vectors.tobytes() == batched.vectors.tobytes()
    assert len(once.vectors) == len({f.embedding.tobytes() for f in fragments})  # each once
    by_row = once.vectors[once.columns.vector]
    assert by_row.tobytes() == b"".join(f.embedding.tobytes() for f in fragments)


def test_a_fill_that_fails_growing_the_vector_table_writes_it_on_the_next_read(
    directory, monkeypatch
):
    import memfabric.store as store_module

    regrown, failures = store_module._regrown, []

    def regrown_failing_once(array, rows):
        if array.ndim == 2 and not failures:  # the vector table is the one 2-d array
            failures.append(rows)
            raise MemoryError("no room for the vector table")
        return regrown(array, rows)

    monkeypatch.setattr(store_module, "_regrown", regrown_failing_once)
    store = MemoryStore(4, directory=directory)
    fragments = [
        dataclasses.replace(fragment(fid=f"f{i}", created_at=i), embedding=np.eye(4)[i % 3])
        for i in range(6)
    ]
    for fragment_ in fragments:
        store.insert(fragment_)
    reader = (scenario_timeline(directory), user("u1"), agent("a1"), 9)
    with pytest.raises(MemoryError):
        store.admissible(*reader)
    admitted = store.admissible(*reader)
    assert failures and len(admitted.vectors) == 3
    by_row = admitted.vectors[admitted.columns.vector]
    assert by_row.tobytes() == b"".join(f.embedding.tobytes() for f in fragments)


def test_fragments_view_keeps_its_rows_across_inserts(directory):
    store = MemoryStore(4, directory=directory)
    for i in range(3):
        store.insert(fragment(fid=f"f{i}", created_at=i))
    view = store.fragments()
    store.insert(fragment(fid="f3", created_at=3))
    store.admissible(scenario_timeline(directory), user("u1"), agent("a1"), 9)  # fills f3
    assert len(view) == 3
    assert [f.id for f in view] == ["f0", "f1", "f2"]
    assert view[-1].id == "f2" and [f.id for f in view[1:]] == ["f1", "f2"]
    with pytest.raises(IndexError):
        view[3]
    assert [f.id for f in store.fragments()] == ["f0", "f1", "f2", "f3"]


def test_concurrent_reads_see_a_consistent_prefix(directory):
    # One writer inserts f0000, f0001, ... in order while readers query: every
    # read must see exactly the first m fragments for some m that never shrinks.
    tl = scenario_timeline(directory)
    store = MemoryStore(4, directory=directory)
    n = 400
    ids = [f"f{i:04d}" for i in range(n)]
    errors: list[str] = []
    done = threading.Event()

    def write() -> None:
        try:
            for i, fid in enumerate(ids):
                store.insert(fragment(fid=fid, created_at=i))
        finally:
            done.set()

    def read() -> None:
        seen = 0
        cfg = RetrievalConfig(k_user=0, k_cross=n, threshold=-1.0)
        while not done.is_set() or seen < n:
            admitted = store.admissible(tl, user("u1"), agent("a1"), n)
            m = len(admitted)
            if set(admitted) != set(ids[:m]) or m < seen:
                errors.append(f"admissible saw {m} rows after {seen}: not a prefix")
                return
            _, cross = retrieve(store, tl, user("u1"), agent("a1"), n, unit(4), cfg)
            got = {h.fragment_id for h in cross}
            if got != set(ids[: len(got)]) or len(got) < m:
                errors.append(f"retrieve saw {len(got)} rows after {m}: not a prefix")
                return
            seen = len(got)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert set(store.admissible(tl, user("u1"), agent("a1"), n)) == set(ids)


def test_published_sparse_phase_one_to_one_kb_admission():
    # The first sparse step of the published dynamic scenario: user_1 holds
    # the two materials agents, each agent holds exactly its own kb. A shared
    # fragment written through the ceramics agent + ceramics kb is admissible
    # to (user_1, ceramics agent) right at that step.
    from memfabric import AccessTimeline, PrincipalDirectory, DeterministicEmbedder

    directory = PrincipalDirectory()
    u1 = directory.add_user("user_1")
    u5 = directory.add_user("user_5")
    ceramics = directory.add_agent("materials_ceramics_agent")
    paper_wood = directory.add_agent("materials_paper_wood_agent")
    chem = directory.add_agent("chemistry_analytical_agent")
    ceramics_kb = directory.add_resource("materials_ceramics_kb")
    timeline = AccessTimeline(directory)
    timeline.grant((u1, paper_wood), 1)
    timeline.grant((u1, ceramics), 2)
    timeline.grant((u5, chem), 3)
    timeline.grant((ceramics, ceramics_kb), 4)

    embedder = DeterministicEmbedder(8)
    store = MemoryStore(8, directory=directory)
    store.insert(
        MemoryFragment(
            id="frag-ceramics",
            tier=Tier.SHARED,
            key="sintering window",
            value="Hold at 1300C for densification.",
            embedding=embedder.embed("sintering window"),
            provenance=Provenance(5, u5, frozenset({ceramics}), frozenset({ceramics_kb})),
        )
    )
    assert "frag-ceramics" in store.admissible(timeline, u1, ceramics, 5)
    # user_5 lacks the ceramics agent at this step, so it cannot see it
    assert "frag-ceramics" not in store.admissible(timeline, u5, chem, 5)
