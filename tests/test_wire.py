"""The JSON-lines codec of the artifacts and the remote-call client."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memfabric import (
    AccessTimeline,
    AuditAction,
    AuditLog,
    MemoryFragment,
    MemoryService,
    MemoryStore,
    PromptedRemote,
    Provenance,
    RemoteCoordinator,
    RemoteEmbedder,
    RemoteUnavailable,
    Tier,
    agent,
    iter_audit_file,
    resource,
    user,
)
from memfabric import wire
from memfabric.store import write_detail
from genutil import make_universe, random_store, random_timeline
from rtutil import StubServer, make_runtime, refused_url


def _spread_blank_lines(text: str) -> str:
    """The same records with blank and whitespace-only lines around them."""
    return "\n" + "".join(line + "\n  \n" for line in text.splitlines(keepends=True)) + "\n"


def _artifacts():
    rng = random.Random(5)
    directory, users, agents, resources = make_universe(3, 3, 3)
    timeline, _ = random_timeline(rng, directory, users, agents, resources, 40)
    store = random_store(rng, directory, users, agents, resources, 8, 25)
    return timeline, store


DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def examples(n: int) -> int:
    """``n``, or more under a profile that asks for more (CI runs these tests
    again with --hypothesis-profile=thorough)."""
    return max(n, settings.default.max_examples)


@settings(max_examples=examples(200), deadline=None)
@given(DOCUMENTS)
@example({"z": [float("nan"), float("inf"), -float("inf"), 0.1, -0.0], "\u00e9": ["\u2603"]})
def test_encode_gives_the_bytes_of_json_dumps(doc):
    assert wire.encode(doc) == json.dumps(doc, sort_keys=True) + "\n"


# any code point, lone surrogates included, and the ones JSON escapes
ESCAPED = st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600')
TEXT = st.text(st.characters(exclude_categories=()) | ESCAPED)
RECORDS = st.lists(
    st.tuples(
        st.integers(0, 2**40),  # the tick step
        st.sampled_from(AuditAction),
        TEXT,
        st.lists(TEXT, max_size=20) | st.lists(TEXT, max_size=3).map(tuple),
        st.none() | st.dictionaries(TEXT, DOCUMENTS, max_size=3),
    ),
    max_size=4,
)


@settings(max_examples=examples(100), deadline=None)
@given(RECORDS)
@example([(1, action, "user_1", ("f1",), {"n": 1}) for action in AuditAction])
@example([(0, AuditAction.FRAGMENT_READ, "", [], None), (0, AuditAction.GRANT, '"\\', ["s"] * 500, {})])
@example([(3, AuditAction.EPISODE_END, "\u00e9\x00", ["\ud800"], {"a": {"b": [{"c": None}]}})])
def test_an_audit_line_is_wire_encode_of_its_record(records):
    log, at, expected = AuditLog(), 0, []
    for step, action, actor, subjects, detail in records:
        at += step
        seq = log.append(at, actor, action, subjects, detail)
        record = {"seq": seq, "at": at, "actor": actor, "action": action.value,
                  "subjects": subjects, "detail": detail or {}}
        expected.append(wire.encode(record))
    assert list(log.lines()) == expected


NAMES = st.frozensets(TEXT.filter(bool), max_size=5)  # principal names, escaped ones too
WRITES = st.lists(
    st.tuples(TEXT.filter(bool), TEXT.filter(bool), TEXT.filter(bool),
              NAMES.filter(bool), NAMES, st.sampled_from(Tier)),
    max_size=4,
)


@settings(max_examples=examples(100), deadline=None)
@given(WRITES)
@example([("k", "v", "u1", {"a1"}, set(), Tier.PRIVATE),
          ('"\\', "\x00\x1f\n\t\u2028", '"u', {"a", "b\\", "c"}, {"r1", "r2", "r3", "r4", "r5"}, Tier.SHARED)])
@example([("\ud800\udfff", "\udc00\U0001f600\u00e9", "\u00e9\x7f", {"\ud800"}, {'"'}, Tier.SHARED)])
def test_a_fragment_write_line_is_wire_encode_of_its_record(writes):
    log = AuditLog()
    store = MemoryStore(2, audit=log)
    expected = []
    for at, (key, value, creator, agents, resources, tier) in enumerate(writes):
        prov = Provenance(at, user(creator), map(agent, agents), map(resource, resources))
        fragment = MemoryFragment(f"f{at}", tier, key, value, [1.0, 0.0], prov)
        store.insert(fragment)
        record = {"seq": at, "at": at, "actor": creator, "action": "fragment_write",
                  "subjects": [fragment.id], "detail": write_detail(fragment)}
        expected.append(wire.encode(record))
    assert list(log.lines()) == expected


def test_save_writes_exactly_to_jsonl(tmp_path):
    timeline, store = _artifacts()
    timeline.save(tmp_path / "timeline.jsonl")
    store.save(tmp_path / "store.jsonl")
    assert (tmp_path / "timeline.jsonl").read_text(encoding="utf-8") == timeline.to_jsonl()
    assert (tmp_path / "store.jsonl").read_text(encoding="utf-8") == store.to_jsonl()
    assert timeline.to_jsonl().count("\n") == len(timeline.events)
    assert store.to_jsonl().count("\n") == len(store)


def test_audit_file_sink_equals_to_jsonl(tmp_path):
    log = AuditLog(tmp_path / "audit.jsonl")
    for at in range(6):
        log.append(at, "u1", AuditAction.FRAGMENT_READ, ("f1",), {"user": "u1", "n": at})
    log.close()
    assert (tmp_path / "audit.jsonl").read_text(encoding="utf-8") == log.to_jsonl()


def test_blank_lines_are_skipped_on_load(tmp_path):
    timeline, store = _artifacts()
    log = AuditLog()
    log.append(0, "admin", AuditAction.GRANT, ("u1", "a1"))
    log.append(1, "u1", AuditAction.FRAGMENT_READ, ("f1",), {"user": "u1"})

    spread = _spread_blank_lines(timeline.to_jsonl())
    assert AccessTimeline.from_jsonl(spread).to_jsonl() == timeline.to_jsonl()
    (tmp_path / "timeline.jsonl").write_text(spread, encoding="utf-8")
    assert AccessTimeline.load(tmp_path / "timeline.jsonl").to_jsonl() == timeline.to_jsonl()

    spread = _spread_blank_lines(store.to_jsonl())
    assert MemoryStore.from_jsonl(spread).to_jsonl() == store.to_jsonl()
    (tmp_path / "store.jsonl").write_text(spread, encoding="utf-8")
    assert MemoryStore.load(tmp_path / "store.jsonl").to_jsonl() == store.to_jsonl()

    (tmp_path / "audit.jsonl").write_text(_spread_blank_lines(log.to_jsonl()), encoding="utf-8")
    assert list(iter_audit_file(tmp_path / "audit.jsonl")) == list(log.records)


def test_decode_parses_one_line_at_a_time():
    def lines():
        yield '{"b": 2, "a": 1}\n'
        raise AssertionError("read past the first record")

    assert next(wire.decode(lines())) == {"a": 1, "b": 2}
    assert wire.encode({"b": 2, "a": 1}) == '{"a": 1, "b": 2}\n'


# --- one remote-call client: every failure is RemoteUnavailable ---

CLIENTS = {
    "transformer": lambda url: PromptedRemote(system_prompt="s", endpoint=url, timeout=5).apply("x"),
    "coordinator": lambda url: RemoteCoordinator(url, "route", timeout=5).decide("q", [], []),
    "embedder": lambda url: RemoteEmbedder(url, 8, timeout=5).embed("x"),
}

BAD_REPLIES = {
    "non_object_body": lambda request: [1, 2],
    "missing_field": lambda request: {"unrelated": "x"},
    "garbage_status_line": lambda request: b"garbage\r\n\r\n",
}


@pytest.mark.parametrize("failure", [*BAD_REPLIES, "refused_port"])
@pytest.mark.parametrize("client", CLIENTS)
def test_every_remote_failure_is_remote_unavailable(client, failure):
    if failure == "refused_port":
        with pytest.raises(RemoteUnavailable):
            CLIENTS[client](refused_url())
        return
    with StubServer(BAD_REPLIES[failure]) as stub, pytest.raises(RemoteUnavailable):
        CLIENTS[client](stub.url)


def test_service_answers_503_for_a_malformed_remote_reply():
    # a read fails with its embedder; an episode ends failed and answers 200
    with StubServer(BAD_REPLIES["non_object_body"]) as stub:
        runtime, _ = make_runtime()
        runtime.embedder = RemoteEmbedder(stub.url, 16, timeout=5)
        runtime.coordinator = RemoteCoordinator(stub.url, "route", timeout=5)
        service = MemoryService(runtime)
        read = {"user": "u1", "agent": "a1", "query": "d1 q"}
        status, body = service.handle("POST", "/memory/read", {}, "u1", read)
        assert (status, body["error"]) == (503, "remote_unavailable")
        episode = {"user": "u1", "query": "d1 q"}
        status, body = service.handle("POST", "/episodes", {}, "u1", episode)
    assert (status, body["failure"]) == (200, "remote_unavailable")
