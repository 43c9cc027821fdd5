from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memfabric import (
    AccessTimeline,
    AmbiguousBinding,
    DeterministicEmbedder,
    Direction,
    IdentityTransform,
    InteractionTrace,
    MemoryStore,
    PolicyBinding,
    PolicyTable,
    PromptedRemote,
    RankedFragment,
    Redactor,
    RemoteUnavailable,
    ResourceNotPermitted,
    Scope,
    ScopeLevel,
    Tier,
    agent,
    apply_read,
    encode_and_write,
    resource,
    user,
)
from oracles import oracle_resolve


def table(*bindings) -> PolicyTable:
    return PolicyTable(bindings)


def test_global_binding_matches_everyone():
    tf = Redactor((("x", "y"),))
    t = table(PolicyBinding(Scope.everywhere(), Direction.READ, tf))
    for u, a, tick in ((user("u1"), agent("a1"), 0), (user("u9"), agent("a9"), 99)):
        assert t.resolve(u, a, tick, Direction.READ) is tf


def test_user_binding_beats_global():
    global_tf = Redactor((("g", "g"),))
    user_tf = Redactor((("u", "u"),))
    t = table(
        PolicyBinding(Scope.everywhere(), Direction.READ, global_tf),
        PolicyBinding(Scope.for_user(user("u1")), Direction.READ, user_tf),
    )
    assert t.resolve(user("u1"), agent("a1"), 0, Direction.READ) is user_tf
    assert t.resolve(user("u2"), agent("a1"), 0, Direction.READ) is global_tf


def test_specificity_ladder_user_agent_window_global():
    tf = {
        "g": Redactor((("g", "g"),)),
        "w": Redactor((("w", "w"),)),
        "a": Redactor((("a", "a"),)),
        "u": Redactor((("u", "u"),)),
    }
    t = table(
        PolicyBinding(Scope.everywhere(), Direction.READ, tf["g"]),
        PolicyBinding(Scope.during(0, 100), Direction.READ, tf["w"]),
        PolicyBinding(Scope.for_agent(agent("a1")), Direction.READ, tf["a"]),
        PolicyBinding(Scope.for_user(user("u1")), Direction.READ, tf["u"]),
    )
    assert t.resolve(user("u1"), agent("a1"), 5, Direction.READ) is tf["u"]
    assert t.resolve(user("u2"), agent("a1"), 5, Direction.READ) is tf["a"]
    assert t.resolve(user("u2"), agent("a2"), 5, Direction.READ) is tf["w"]
    assert t.resolve(user("u2"), agent("a2"), 101, Direction.READ) is tf["g"]


def test_no_binding_resolves_to_identity():
    t = table()
    assert isinstance(t.resolve(user("u1"), agent("a1"), 0, Direction.READ), IdentityTransform)


def test_same_rank_double_match_is_ambiguous():
    t = table(
        PolicyBinding(Scope.during(0, 10), Direction.READ, IdentityTransform()),
        PolicyBinding(Scope.during(5, 15), Direction.READ, IdentityTransform()),
    )
    with pytest.raises(AmbiguousBinding):
        t.resolve(user("u1"), agent("a1"), 7, Direction.READ)


def test_duplicate_scope_direction_rejected():
    t = table(PolicyBinding(Scope.everywhere(), Direction.READ, IdentityTransform()))
    with pytest.raises(AmbiguousBinding):
        t.add(PolicyBinding(Scope.everywhere(), Direction.READ, Redactor(())))


def test_resolve_matches_brute_force_oracle():
    rng = random.Random(13)
    users = [user(f"u{i}") for i in range(3)]
    agents = [agent(f"a{i}") for i in range(3)]
    for _ in range(300):
        bindings = []
        seen = set()
        for _ in range(rng.randint(0, 8)):
            level = rng.choice(list(ScopeLevel))
            if level is ScopeLevel.GLOBAL:
                scope = Scope.everywhere()
            elif level is ScopeLevel.USER:
                scope = Scope.for_user(rng.choice(users))
            elif level is ScopeLevel.AGENT:
                scope = Scope.for_agent(rng.choice(agents))
            else:
                start = rng.randint(0, 20)
                scope = Scope.during(start, start + rng.randint(0, 10))
            direction = rng.choice(list(Direction))
            if (scope, direction) in seen:
                continue
            seen.add((scope, direction))
            bindings.append(PolicyBinding(scope, direction, Redactor(((str(len(bindings)), "x"),))))
        t = PolicyTable(bindings)
        u, a, tick = rng.choice(users), rng.choice(agents), rng.randint(0, 25)
        direction = rng.choice(list(Direction))
        winners = oracle_resolve(bindings, u, a, tick, direction)
        if len(winners) > 1:
            with pytest.raises(AmbiguousBinding):
                t.resolve(u, a, tick, direction)
        elif len(winners) == 1:
            assert t.resolve(u, a, tick, direction) is winners[0].transformer
        else:
            assert isinstance(t.resolve(u, a, tick, direction), IdentityTransform)


# --- transformers ---


def test_redactor_email_rule():
    redactor = Redactor(((r"[\w.+-]+@[\w.-]+", "[REDACTED]"),))
    assert redactor.apply("contact alice@x.com") == "contact [REDACTED]"


def test_redactor_rules_apply_in_order():
    redactor = Redactor((("a", "b"), ("b", "c")))
    assert redactor.apply("a") == "c"


def test_redactor_placeholder_expansion():
    redactor = Redactor((("{user}", "[user]"),))
    assert redactor.apply("u1 wrote this", {"user": "u1"}) == "[user] wrote this"
    # unresolved placeholder: rule skipped, text untouched
    assert redactor.apply("u1 wrote this", None) == "u1 wrote this"


def test_redactor_placeholder_is_escaped():
    redactor = Redactor((("{user}", "[user]"),))
    assert redactor.apply("a.b says hi", {"user": "a.b"}) == "[user] says hi"
    assert redactor.apply("axb says hi", {"user": "a.b"}) == "axb says hi"


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(alphabet="abcdef ghij", max_size=60),
    needle=st.text(alphabet="abcdef", min_size=1, max_size=4),
)
def test_redactor_idempotent(text, needle):
    redactor = Redactor(((needle, "#"),))
    once = redactor.apply(text)
    assert redactor.apply(once) == once


def make_view(n: int) -> list[RankedFragment]:
    return [
        RankedFragment(
            fragment_id=f"f{i}",
            similarity=1.0 - i / 100,
            tier=Tier.SHARED,
            key=f"key {i}",
            value=f"value {i} alice@x.com",
            created_at=i,
        )
        for i in range(n)
    ]


def test_apply_read_identity_returns_view_verbatim():
    view = make_view(4)
    assert apply_read(IdentityTransform(), view) == view


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    needle=st.text(alphabet="aeiou valk", min_size=1, max_size=3),
)
def test_apply_read_preserves_cardinality_and_order(n, needle):
    view = make_view(n)
    out = apply_read(Redactor(((needle, "*"),)), view)
    assert len(out) == len(view)
    assert [h.fragment_id for h in out] == [h.fragment_id for h in view]
    assert [h.similarity for h in out] == [h.similarity for h in view]
    assert [h.tier for h in out] == [h.tier for h in view]


# --- write path ---


def write_env():
    from genutil import make_universe

    directory, users, agents, resources = make_universe(2, 2, 2)
    timeline = AccessTimeline(directory)
    t = 0
    for u in users:
        for a in agents:
            t += 1
            timeline.grant((u, a), t)
    for a in agents:
        for r in resources:
            t += 1
            timeline.grant((a, r), t)
    store = MemoryStore(16, directory=directory)
    embedder = DeterministicEmbedder(16)
    return directory, timeline, store, embedder, t


def counter_ids():
    count = [0]

    def factory() -> str:
        count[0] += 1
        return f"id-{count[0]:03d}"

    return factory


def default_policies() -> PolicyTable:
    return PolicyTable(
        [
            PolicyBinding(Scope.everywhere(), Direction.READ, IdentityTransform()),
            PolicyBinding(Scope.everywhere(), Direction.WRITE_PRIVATE, IdentityTransform()),
            PolicyBinding(
                Scope.everywhere(),
                Direction.WRITE_SHARED,
                Redactor((("{user}", "[user]"),)),
            ),
        ]
    )


def test_encode_and_write_two_tiers_with_trace_provenance():
    directory, timeline, store, embedder, t = write_env()
    trace = InteractionTrace(
        user=user("u1"),
        agent=agent("a1"),
        timestamp=t + 1,
        subquery="what is x",
        response="x is y",
        resources_invoked=(resource("r1"),),
    )
    ids = encode_and_write(trace, default_policies(), store, timeline, embedder, counter_ids())
    assert len(ids) == 2
    tiers = {store.get(i).tier for i in ids}
    assert tiers == {Tier.PRIVATE, Tier.SHARED}
    for i in ids:
        prov = store.get(i).provenance
        assert prov.created_at == t + 1
        assert prov.creator == user("u1")
        assert prov.agents == frozenset({agent("a1")})
        assert prov.resources == frozenset({resource("r1")})


def test_shared_tier_redactor_strips_user_name():
    directory, timeline, store, embedder, t = write_env()
    rng = random.Random(4)
    ids_factory = counter_ids()
    for i in range(30):
        name = rng.choice(["u1", "u2"])
        trace = InteractionTrace(
            user=user(name),
            agent=agent("a1"),
            timestamp=t + 1 + i,
            subquery=f"ask {i}",
            response=f"{name} learned fact {i} from {name}",
        )
        ids = encode_and_write(
            trace, default_policies(), store, timeline, embedder, ids_factory
        )
        for fid in ids:
            f = store.get(fid)
            if f.tier is Tier.SHARED:
                assert name not in f.value
            else:
                assert name in f.value  # private keeps it verbatim


class CountingEmbedder:
    def __init__(self, inner) -> None:
        self.inner = inner
        self.dimension = inner.dimension
        self.texts: list[str] = []

    def embed(self, text: str):
        self.texts.append(text)
        return self.inner.embed(text)


def test_encode_and_write_embeds_each_distinct_key_once():
    directory, timeline, store, embedder, t = write_env()
    counting, ids_factory = CountingEmbedder(embedder), counter_ids()
    trace = InteractionTrace(user("u1"), agent("a1"), t + 1, "what is x", "x is y")
    ids = encode_and_write(trace, PolicyTable(), store, timeline, counting, ids_factory)
    assert counting.texts == ["what is x"]
    private, shared = (store.get(i) for i in ids)
    assert (private.tier, shared.tier) == (Tier.PRIVATE, Tier.SHARED)
    assert private.embedding.tobytes() == shared.embedding.tobytes()

    # a shared-tier rule that rewrites the key gives that fragment its own embedding
    redact_key = PolicyTable(
        [
            PolicyBinding(
                Scope.everywhere(), Direction.WRITE_SHARED, Redactor((("{user}", "[user]"),))
            )
        ]
    )
    trace = InteractionTrace(user("u1"), agent("a1"), t + 2, "ask u1 about x", "x is y")
    ids = encode_and_write(trace, redact_key, store, timeline, counting, ids_factory)
    assert counting.texts[1:] == ["ask u1 about x", "ask [user] about x"]
    private, shared = (store.get(i) for i in ids)
    assert private.embedding.tobytes() == embedder.embed("ask u1 about x").tobytes()
    assert shared.embedding.tobytes() == embedder.embed("ask [user] about x").tobytes()


def test_force_private_writes_both_fragments_private():
    directory, timeline, store, embedder, t = write_env()
    trace = InteractionTrace(user("u1"), agent("a1"), t + 1, "q", "r")
    ids = encode_and_write(
        trace, default_policies(), store, timeline, embedder, counter_ids(), force_private=True
    )
    assert [store.get(i).tier for i in ids] == [Tier.PRIVATE, Tier.PRIVATE]


def test_transformer_failure_writes_nothing():
    class Exploding:
        def apply(self, text, context=None):
            raise RemoteUnavailable("backend down")

    directory, timeline, store, embedder, t = write_env()
    policies = PolicyTable(
        [
            PolicyBinding(Scope.everywhere(), Direction.WRITE_PRIVATE, IdentityTransform()),
            PolicyBinding(Scope.everywhere(), Direction.WRITE_SHARED, Exploding()),
        ]
    )
    trace = InteractionTrace(user("u1"), agent("a1"), t + 1, "q", "r")
    with pytest.raises(RemoteUnavailable):
        encode_and_write(trace, policies, store, timeline, embedder, counter_ids())
    assert len(store) == 0


def test_unpermitted_resource_claim_rejected():
    directory, timeline, store, embedder, t = write_env()
    timeline.revoke((agent("a1"), resource("r1")), t + 1)
    trace = InteractionTrace(
        user("u1"), agent("a1"), t + 2, "q", "r", resources_invoked=(resource("r1"),)
    )
    with pytest.raises(ResourceNotPermitted):
        encode_and_write(trace, default_policies(), store, timeline, embedder, counter_ids())
    assert len(store) == 0


def test_provenance_untouched_by_content_transformers():
    directory, timeline, store, embedder, t = write_env()
    policies = PolicyTable(
        [
            PolicyBinding(
                Scope.everywhere(), Direction.WRITE_PRIVATE, Redactor((("q", "Z"),))
            ),
            PolicyBinding(
                Scope.everywhere(), Direction.WRITE_SHARED, Redactor((("r", "Z"),))
            ),
        ]
    )
    trace = InteractionTrace(user("u1"), agent("a1"), t + 1, "qqq", "rrr")
    ids = encode_and_write(trace, policies, store, timeline, embedder, counter_ids())
    for fid in ids:
        f = store.get(fid)
        assert f.key != "qqq" or f.value != "rrr"  # content rewritten
        assert f.provenance.creator == user("u1")
        assert f.provenance.agents == frozenset({agent("a1")})
        assert f.provenance.created_at == t + 1


# --- remote transformer and encoder ---


class _StubChatServer:
    """Chat stub: returns a canned output, or echoes candidates for encoders."""

    def __init__(self, reply):
        outer_reply = reply

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                request = json.loads(self.rfile.read(length))
                output = outer_reply(request)
                body = json.dumps({"output": output}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/chat"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


def test_prompted_remote_round_trip():
    with _StubChatServer(lambda req: req["input"].upper()) as stub:
        tf = PromptedRemote(system_prompt="shout", endpoint=stub.url)
        assert tf.apply("hello") == "HELLO"


def test_prompted_remote_unavailable():
    tf = PromptedRemote(system_prompt="s", endpoint="http://127.0.0.1:1/x", timeout=0.2)
    with pytest.raises(RemoteUnavailable):
        tf.apply("hello")


def test_remote_encoder_emits_multiple_candidates():
    def reply(request):
        trace = json.loads(request["input"])
        return json.dumps(
            [
                {"key": trace["subquery"], "value": trace["response"]},
                {"key": "extra topic", "value": "extra detail"},
            ]
        )

    with _StubChatServer(reply) as stub:
        directory, timeline, store, embedder, t = write_env()
        trace = InteractionTrace(user("u1"), agent("a1"), t + 1, "q1", "r1")
        ids = encode_and_write(
            trace,
            default_policies(),
            store,
            timeline,
            embedder,
            counter_ids(),
            encoder=PromptedRemote(system_prompt="encode", endpoint=stub.url),
        )
        assert len(ids) == 4  # two candidates x two tiers
