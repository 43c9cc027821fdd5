from __future__ import annotations

import itertools
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memfabric import (
    AccessTimeline,
    DeterministicEmbedder,
    DimensionMismatch,
    EmptyText,
    MemoryFragment,
    MemoryStore,
    Provenance,
    RemoteEmbedder,
    RemoteUnavailable,
    RetrievalConfig,
    Tier,
    cosine,
    retrieve,
)
from memfabric.errors import NonFiniteVector
from genutil import make_universe, random_store, random_timeline, random_unit_vector
from oracles import (
    naive_dot,
    oracle_admissible,
    oracle_embed,
    oracle_retrieve,
    oracle_retrieve_scan,
)


def test_embed_is_deterministic():
    emb = DeterministicEmbedder(32)
    assert np.array_equal(emb.embed("abc"), emb.embed("abc"))


def test_embed_unit_norm_for_100_random_strings():
    emb = DeterministicEmbedder(32)
    rng = random.Random(1)
    for _ in range(100):
        text = "".join(rng.choice("abcdefghij klmnop") for _ in range(rng.randint(1, 40)))
        assert abs(np.linalg.norm(emb.embed(text)) - 1.0) <= 1e-6


def test_self_similarity_is_one():
    emb = DeterministicEmbedder(16)
    v = emb.embed("the same text")
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)


def test_different_texts_below_exact_match():
    emb = DeterministicEmbedder(32)
    a = emb.embed("chemistry: question 000")
    b = emb.embed("chemistry: question 001")
    assert cosine(a, b) < 1.0 - 1e-9


@settings(max_examples=300, deadline=None)
@given(text=st.text(min_size=1, max_size=40), dimension=st.sampled_from([2, 3, 16, 32, 97]))
@example(text="x", dimension=16)  # 3 terms cancel down to one
@example(text="ayy", dimension=16)  # 7 terms cancel down to one
@example(text="é", dimension=32)
@example(text="日本語のテキスト", dimension=32)
@example(text="\x00\U0001f600", dimension=2)
def test_embed_equals_per_ngram_oracle(text, dimension):
    got = DeterministicEmbedder(dimension).embed(text)
    assert got.tobytes() == oracle_embed(text, dimension).tobytes()


def test_embed_terms_never_cancel_out():
    # 2L - 3 terms of +-1 for L marked characters: odd, so never all zero,
    # even at the smallest dimension where collisions are most frequent
    emb = DeterministicEmbedder(2)
    for n in (1, 2, 3):
        for chars in itertools.product("abcxyz", repeat=n):
            v = emb.embed("".join(chars))
            assert np.all(np.isfinite(v)) and abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_empty_text_rejected():
    with pytest.raises(EmptyText):
        DeterministicEmbedder(8).embed("")


def test_cosine_identity_and_orthogonal():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert cosine(x, x) == 1.0
    assert cosine(x, y) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine(np.zeros(3), np.zeros(4))


def test_cosine_matches_naive_oracle_to_1e12():
    rng = random.Random(3)
    for _ in range(200):
        dim = rng.randint(2, 24)
        x = random_unit_vector(rng, dim)
        y = random_unit_vector(rng, dim)
        assert abs(cosine(x, y) - naive_dot(x, y)) <= 1e-12
        assert -1.0 - 1e-9 <= cosine(x, y) <= 1.0 + 1e-9


# --- retrieve ---


def full_graph_timeline(directory, users, agents, resources) -> AccessTimeline:
    tl = AccessTimeline(directory)
    t = 0
    for u in users:
        for a in agents:
            t += 1
            tl.grant((u, a), t)
    for a in agents:
        for r in resources:
            t += 1
            tl.grant((a, r), t)
    return tl


def test_empty_store_returns_empty_tiers():
    directory, users, agents, resources = make_universe(2, 2, 2)
    tl = full_graph_timeline(directory, users, agents, resources)
    store = MemoryStore(8, directory=directory)
    q = random_unit_vector(random.Random(0), 8)
    assert retrieve(store, tl, users[0], agents[0], 99, q, RetrievalConfig()) == ([], [])


def test_k_cross_bounds_and_top_similarities():
    # 25 admissible shared fragments above threshold; k=10 keeps the 10 best
    directory, users, agents, resources = make_universe(2, 2, 2)
    tl = full_graph_timeline(directory, users, agents, resources)
    store = MemoryStore(4, directory=directory)
    query = np.array([1.0, 0.0, 0.0, 0.0])
    sims = []
    for i in range(25):
        angle = (i + 1) / 26 * np.pi / 2.2
        emb = np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])
        sims.append(float(np.dot(query, emb)))
        store.insert(
            MemoryFragment(
                id=f"f{i:02d}",
                tier=Tier.SHARED,
                key=f"k{i}",
                value=f"v{i}",
                embedding=emb,
                provenance=Provenance(0, users[0], frozenset({agents[0]})),
            )
        )
    cfg = RetrievalConfig(k_user=10, k_cross=10, threshold=0.1)
    user_tier, cross_tier = retrieve(store, tl, users[1], agents[0], 99, query, cfg)
    assert user_tier == []
    assert len(cross_tier) == 10
    expected_top = sorted(sims, reverse=True)[:10]
    assert [h.similarity for h in cross_tier] == pytest.approx(expected_top)


def test_matches_brute_force_oracle_on_random_stores():
    rng = random.Random(17)
    for _ in range(60):
        directory, users, agents, resources = make_universe(3, 3, 3)
        timeline, shadow = random_timeline(
            rng, directory, users, agents, resources, rng.randint(0, 50)
        )
        store = random_store(rng, directory, users, agents, resources, 8, rng.randint(0, 80))
        cfg = RetrievalConfig(
            k_user=rng.randint(0, 6), k_cross=rng.randint(0, 6), threshold=rng.uniform(-0.2, 0.4)
        )
        t = rng.randint(0, max(timeline.latest_tick, 1))
        u, a = rng.choice(users), rng.choice(agents)
        q = random_unit_vector(rng, 8)
        user_tier, cross_tier = retrieve(store, timeline, u, a, t, q, cfg)
        oracle_user, oracle_cross = oracle_retrieve(
            list(store.fragments()), shadow, u, a, t, q, cfg.k_user, cfg.k_cross, cfg.threshold
        )
        assert [h.fragment_id for h in user_tier] == oracle_user
        assert [h.fragment_id for h in cross_tier] == oracle_cross


def test_only_admissible_fragments_ever_surface():
    rng = random.Random(19)
    for _ in range(40):
        directory, users, agents, resources = make_universe(3, 3, 3)
        timeline, _ = random_timeline(
            rng, directory, users, agents, resources, rng.randint(0, 60)
        )
        store = random_store(rng, directory, users, agents, resources, 8, 40)
        t = rng.randint(0, max(timeline.latest_tick, 1))
        u, a = rng.choice(users), rng.choice(agents)
        cfg = RetrievalConfig(k_user=50, k_cross=50, threshold=-1.0)
        user_tier, cross_tier = retrieve(
            store, timeline, u, a, t, random_unit_vector(rng, 8), cfg
        )
        admitted = store.admissible(timeline, u, a, t)
        for hit in user_tier + cross_tier:
            assert hit.fragment_id in admitted
            assert hit.created_at <= t
        assert len(user_tier) <= cfg.k_user and len(cross_tier) <= cfg.k_cross


def test_fragments_newer_than_query_tick_invisible():
    directory, users, agents, resources = make_universe(1, 1, 1)
    tl = full_graph_timeline(directory, users, agents, resources)
    store = MemoryStore(4, directory=directory)
    emb = np.array([1.0, 0.0, 0.0, 0.0])
    store.insert(
        MemoryFragment(
            id="late",
            tier=Tier.SHARED,
            key="k",
            value="v",
            embedding=emb,
            provenance=Provenance(50, users[0], frozenset({agents[0]})),
        )
    )
    cfg = RetrievalConfig()
    assert retrieve(store, tl, users[0], agents[0], 49, emb, cfg) == ([], [])
    _, cross = retrieve(store, tl, users[0], agents[0], 50, emb, cfg)
    assert [h.fragment_id for h in cross] == ["late"]


def test_tie_break_newest_then_id():
    directory, users, agents, resources = make_universe(1, 1, 1)
    tl = full_graph_timeline(directory, users, agents, resources)
    store = MemoryStore(4, directory=directory)
    emb = np.array([1.0, 0.0, 0.0, 0.0])
    for fid, created in (("b", 5), ("a", 5), ("c", 9)):
        store.insert(
            MemoryFragment(
                id=fid,
                tier=Tier.SHARED,
                key="k",
                value="v",
                embedding=emb,
                provenance=Provenance(created, users[0], frozenset({agents[0]})),
            )
        )
    _, cross = retrieve(store, tl, users[0], agents[0], 99, emb, RetrievalConfig())
    assert [h.fragment_id for h in cross] == ["c", "a", "b"]


def test_tie_heavy_ranking_equals_float_dot_scan_bit_for_bit():
    # Keys drawn from a tiny vocabulary make tie groups larger than k; the
    # thresholds are similarities the queries actually attain; 70 agents and
    # 70 resources need two bitset words each; some fragments are newer
    # than the read tick.
    rng = random.Random(41)
    embedder = DeterministicEmbedder(16)
    vocabulary = ["alloy", "alloy grain", "grain", "kiln", "kiln glaze", "glaze", "ore"]
    directory, users, agents, resources = make_universe(4, 70, 70)
    timeline = AccessTimeline(directory)
    events, tick = [], 0
    for edge in [(u, a) for u in users for a in agents] + [
        (a, r) for a in agents for r in resources
    ]:
        if rng.random() < 0.85:
            tick += 1
            timeline.grant(edge, tick)
            events.append((tick, "grant", edge))
    for _ in range(60):  # revoke a few, so some fragments are inadmissible
        tick += 1
        _, _, edge = rng.choice(events)
        if timeline.edge_present(edge, tick):
            timeline.revoke(edge, tick)
            events.append((tick, "revoke", edge))
    store = MemoryStore(16, directory=directory)
    for i in range(600):
        key = rng.choice(vocabulary)
        store.insert(
            MemoryFragment(
                id=f"f{rng.randrange(10**6):06d}-{i}",
                tier=rng.choice([Tier.PRIVATE, Tier.SHARED]),
                key=key,
                value=f"v{i}",
                embedding=embedder.embed(key),
                provenance=Provenance(
                    created_at=tick + rng.randint(-3, 3),
                    creator=rng.choice(users),
                    agents=frozenset(rng.sample(agents, rng.randint(1, 3))),
                    resources=frozenset(rng.sample(resources, rng.randint(0, 3))),
                ),
            )
        )
    fragments = list(store.fragments())
    for _ in range(150):
        u, a = rng.choice(users), rng.choice(agents)
        t = tick + rng.randint(-2, 3)
        query = embedder.embed(rng.choice(vocabulary + ["alloy kiln", "grain ore"]))
        attained = sorted(
            {s for s in (float(np.dot(query, f.embedding)) for f in fragments) if -1 <= s <= 1}
        )
        cfg = RetrievalConfig(
            k_user=rng.randint(1, 3), k_cross=rng.randint(1, 3), threshold=rng.choice(attained)
        )
        assert store.admissible(timeline, u, a, t) == oracle_admissible(
            fragments, events, u, a, t
        )
        user_tier, cross_tier = retrieve(store, timeline, u, a, t, query, cfg)
        expected = oracle_retrieve_scan(
            fragments, events, u, a, t, query, cfg.k_user, cfg.k_cross, cfg.threshold
        )
        got = (
            [(h.fragment_id, h.similarity) for h in user_tier],
            [(h.fragment_id, h.similarity) for h in cross_tier],
        )
        assert got == expected


def test_non_finite_query_rejected():
    directory, users, agents, resources = make_universe(1, 1, 1)
    tl = full_graph_timeline(directory, users, agents, resources)
    store = MemoryStore(4, directory=directory)
    for bad in (np.array([np.nan, 0.0, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(NonFiniteVector):
            retrieve(store, tl, users[0], agents[0], 0, bad, RetrievalConfig())


def test_query_dimension_checked():
    directory, users, agents, resources = make_universe(1, 1, 1)
    tl = full_graph_timeline(directory, users, agents, resources)
    store = MemoryStore(4, directory=directory)
    with pytest.raises(DimensionMismatch):
        retrieve(store, tl, users[0], agents[0], 0, np.zeros(5), RetrievalConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(k_user=-1)
    with pytest.raises(ValueError):
        RetrievalConfig(threshold=1.5)


# --- remote embedder ---


class _StubEmbedServer:
    def __init__(self, dimension: int):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                text = json.loads(self.rfile.read(length))["input"]
                rng = random.Random(len(text))
                vec = [rng.gauss(0, 1) for _ in range(dimension)]
                body = json.dumps({"embedding": vec}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/embed"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


def test_remote_embedder_round_trip():
    with _StubEmbedServer(8) as stub:
        emb = RemoteEmbedder(stub.url, 8)
        vec = emb.embed("hello")
        assert vec.shape == (8,)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


def test_remote_embedder_unavailable():
    emb = RemoteEmbedder("http://127.0.0.1:1/never", 8, timeout=0.2)
    with pytest.raises(RemoteUnavailable):
        emb.embed("hello")
