"""The JSON-lines codec of the artifacts and the remote-call client."""

from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
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
    ScenarioConfig,
    Tier,
    agent,
    iter_audit_file,
    resource,
    user,
    verify_files,
)
from memfabric import wire
from memfabric.store import write_detail
from genutil import examples, make_universe, random_store, random_timeline
from rtutil import StubServer, granted_service, make_runtime, refused_url
from scenarios import REMOTE_ROLES, overlap_config, with_remote


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

def _http_reply(body: bytes) -> bytes:
    return b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


CLIENTS = {
    "transformer": lambda url: PromptedRemote(system_prompt="s", endpoint=url, timeout=5).apply("x"),
    "coordinator": lambda url: RemoteCoordinator(url, "route", timeout=5).decide("q", [], []),
    "embedder": lambda url: RemoteEmbedder(url, 8, timeout=5).embed("x"),
}

BAD_REPLIES = {
    "non_object_body": lambda request: [1, 2],
    "missing_field": lambda request: {"unrelated": "x"},
    "garbage_status_line": lambda request: b"garbage\r\n\r\n",
    "nested_too_deep": lambda request: _http_reply(b"[" * 100_000 + b"]" * 100_000),
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


# --- remote replies fuzzed: one role at a time answers anything ---

FUZZ_QUERY = "domain1: topic"  # the keyword coordinator routes it to domain1_agent
# the names and fields the roles read, so replies often come close to well formed
ROLE_TEXT = st.sampled_from(["domain1_agent", "domain2_agent", "domain1_kb", "domain2_kb", ""]) | TEXT
ROLE_KEYS = st.sampled_from(["invoke", "answer", "agent", "subquery", "stop"]) | st.text(max_size=4)
REPLY_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ROLE_TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(ROLE_KEYS, children, max_size=3),
    max_leaves=8,
)


def _not_json(body: bytes) -> bool:
    try:
        json.loads(body)
    except ValueError:
        return True
    return False


REPLIES = (
    REPLY_DOCUMENTS  # any reply body
    | REPLY_DOCUMENTS.map(lambda doc: {"output": doc})  # any output
    | REPLY_DOCUMENTS.map(lambda doc: {"output": json.dumps(doc)})  # output the role parses as JSON
    | st.binary(max_size=16).filter(_not_json).map(_http_reply)
)


def _texts(doc: object) -> set[str]:
    """Every string in ``doc``, and in the JSON that a string of it holds."""
    if isinstance(doc, str):
        try:
            return {doc} | _texts(json.loads(doc))
        except ValueError:
            return {doc}
    if isinstance(doc, dict):
        return set().union(*map(_texts, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_texts, doc))
    return set()


# the texts the scripted agents and resources build around another text
SCRIPTED = (r"According to domain\d_kb: (.*)", r"domain\d_kb reference entry for '(.*)'")


def _allowed(text: str, known: set[str]) -> bool:
    """Whether ``text`` is one of ``known``, or what the scripted parts build from them."""
    if text in known:
        return True
    for pattern in SCRIPTED:
        match = re.fullmatch(pattern, text, re.S)
        if match and _allowed(match.group(1), known):
            return True
    parts = text.split("; ")  # a remote agent's answer joins its lookups
    return len(parts) > 1 and all(_allowed(part, known) for part in parts)


def _asks_ungranted(reply: object) -> bool:
    """Whether ``reply`` is a well-formed agent reply invoking a resource
    other than domain1_kb, the one resource domain1_agent is granted."""
    try:
        data = json.loads(reply["output"])
    except (TypeError, KeyError, ValueError):
        return False
    if not isinstance(data, dict) or not isinstance(data.get("answer", ""), str):
        return False
    names = data.get("invoke", [])
    return (isinstance(names, list) and all(isinstance(n, str) and n for n in names)
            and any(n != "domain1_kb" for n in names))


@pytest.fixture(scope="module")
def fuzz_backend():
    """One stub for every remote role, answering ``reply["now"]``, and the
    scenario config of each role served by it."""
    reply = {}
    with StubServer(lambda request: reply["now"]) as stub:
        configs = {}
        for role in REMOTE_ROLES:
            doc = with_remote(overlap_config(count=6, n_users=3, n_agents=2), role, stub.url)
            doc["policies"] = {"write_shared": {"kind": "identity"}}  # stored text as built
            configs[role] = ScenarioConfig.from_dict(doc)
        yield reply, configs


@settings(max_examples=examples(60), deadline=None)
@given(role=st.sampled_from(REMOTE_ROLES), reply=REPLIES)
@example(role="agent", reply={"output": None})
@example(role="agent", reply={"output": json.dumps({"invoke": "domain1_kb"})})
@example(role="agent", reply={"output": json.dumps({"invoke": ["domain1_kb"], "answer": ""})})
@example(role="coordinator", reply={"output": json.dumps({"agent": "domain1_agent", "subquery": 7})})
@example(role="coordinator", reply={"output": json.dumps({"agent": "domain1_agent", "subquery": "s"})})
@example(role="coordinator", reply={"output": json.dumps({"agent": "domain1_agent", "subquery": "\ud800"})})
@example(role="coordinator", reply={"output": json.dumps({"agent": "domain1_agent", "subquery": ""})})
@example(role="judge", reply={"output": "nan"})
@example(role="resource", reply={"output": ["r"]})
def test_any_remote_reply_fails_the_episode_or_is_stored_as_sent(fuzz_backend, role, reply):
    replies, configs = fuzz_backend
    replies["now"] = reply
    with tempfile.TemporaryDirectory() as tmp:
        audit = Path(tmp) / "audit.jsonl"
        svc = granted_service(configs[role], audit)
        try:
            status, body = svc.handle(
                "POST", "/episodes", {}, "user_1", {"user": "user_1", "query": FUZZ_QUERY})
            stored = [(f.key, f.value) for f in svc.rt.store.fragments()]
        finally:
            svc.rt.audit.close()
        event(f"{role}: {status} {body.get('failure') or body.get('error')}")
        if status == 403:
            assert role == "agent" and _asks_ungranted(reply)
        else:
            assert status in (200, 503) or (status, body["error"]) == (400, "InvalidFragment")
        known = {FUZZ_QUERY} | _texts(reply)
        for key, value in stored:
            assert isinstance(key, str) and isinstance(value, str)
            assert _allowed(key, known) and _allowed(value, known)
        records = list(iter_audit_file(audit))
        started = [r.subjects for r in records if r.action is AuditAction.EPISODE_START]
        ended = [r.subjects for r in records if r.action is AuditAction.EPISODE_END]
        assert started == ended
        assert verify_files(audit) == []
