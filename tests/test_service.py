from __future__ import annotations

import http.client
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from memfabric import (
    AgentSpec,
    MemoryService,
    RemoteAgentBackend,
    ScenarioConfig,
    agent,
    build_runtime,
    iter_audit_file,
    make_server,
    plan_scenario,
    run_scenario,
    verify_files,
)
from memfabric import service as service_module
from memfabric.service import ApiError
from rtutil import CountingFlushes, StubServer, granted_service, make_runtime
from scenarios import overlap_config, revocation_phase_config, with_remote


class Client:
    def __init__(self, base: str):
        self.base = base

    def request(self, method: str, path: str, body=None, identity="admin"):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json", "X-Identity": identity},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, response.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def get(self, path, identity="admin"):
        status, body = self.request("GET", path, None, identity)
        return status, json.loads(body) if body else None

    def post(self, path, body, identity="admin"):
        status, text = self.request("POST", path, body, identity)
        return status, json.loads(text)


@pytest.fixture
def service(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
    runtime = build_runtime(cfg, audit_path=tmp_path / "audit.jsonl")
    svc = MemoryService(runtime)
    server = make_server(svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = Client(f"http://127.0.0.1:{server.server_port}")
    yield client, runtime, cfg, tmp_path
    server.shutdown()
    server.server_close()
    runtime.audit.close()


def grant_all(client: Client, cfg: ScenarioConfig) -> None:
    plan = plan_scenario(cfg)
    for a, b in plan.setup_edges:
        doc = (
            {"user": a.name, "agent": b.name}
            if a.kind.value == "user"
            else {"agent": a.name, "resource": b.name}
        )
        status, _ = client.post("/permissions/grant", {"edge": doc})
        assert status == 200


def test_permission_endpoints_admin_scoped(service):
    client, runtime, cfg, _ = service
    edge = {"user": "user_1", "agent": "domain1_agent"}
    status, body = client.post("/permissions/grant", {"edge": edge}, identity="user_1")
    assert status == 403
    status, body = client.post("/permissions/grant", {"edge": edge})
    assert status == 200 and body["applied"] == "grant"
    status, body = client.post("/permissions/grant", {"edge": edge})
    assert status == 409 and body["error"] == "duplicate_edge"
    status, body = client.post("/permissions/revoke", {"edge": edge})
    assert status == 200
    status, body = client.post("/permissions/revoke", {"edge": edge})
    assert status == 409 and body["error"] == "edge_not_present"


def test_snapshot_endpoints(service):
    client, runtime, cfg, _ = service
    grant_all(client, cfg)
    status, body = client.get("/permissions/snapshot?user=user_1")
    assert status == 200
    assert body["agents"] == ["domain1_agent", "domain2_agent"]
    status, body = client.get("/permissions/snapshot?user=user_1&t=0")
    assert body["agents"] == []
    status, body = client.get("/permissions/snapshot?agent=domain1_agent")
    assert body["resources"] == ["domain1_kb"]
    status, body = client.get("/permissions/snapshot")
    assert status == 400


def test_unknown_principal_is_400(service):
    client, *_ = service
    status, body = client.post(
        "/permissions/grant", {"edge": {"user": "nobody", "agent": "domain1_agent"}}
    )
    assert status == 400 and body["error"] == "unknown_principal"


def test_memory_read_respects_permissions(service):
    client, runtime, cfg, _ = service
    status, body = client.post(
        "/memory/read",
        {"user": "user_1", "agent": "domain1_agent", "query": "domain1 q"},
        identity="user_1",
    )
    assert status == 403  # nothing granted yet
    grant_all(client, cfg)
    status, body = client.post(
        "/memory/read",
        {"user": "user_1", "agent": "domain1_agent", "query": "domain1 q"},
        identity="user_1",
    )
    assert status == 200 and body["view"] == []
    # a different caller cannot read as user_1
    status, body = client.post(
        "/memory/read",
        {"user": "user_1", "agent": "domain1_agent", "query": "domain1 q"},
        identity="user_2",
    )
    assert status == 403


def test_memory_read_403_after_revoke(service):
    client, runtime, cfg, _ = service
    grant_all(client, cfg)
    read_body = {"user": "user_1", "agent": "domain1_agent", "query": "domain1 q"}
    status, _ = client.post("/memory/read", read_body, identity="user_1")
    assert status == 200
    status, _ = client.post(
        "/permissions/revoke", {"edge": {"user": "user_1", "agent": "domain1_agent"}}
    )
    assert status == 200
    status, body = client.post("/memory/read", read_body, identity="user_1")
    assert status == 403


def test_memory_write_derives_provenance_server_side(service):
    client, runtime, cfg, _ = service
    grant_all(client, cfg)
    status, body = client.post(
        "/memory/write",
        {
            "agent": "domain1_agent",
            "subquery": "domain1 topic",
            "response": "the details",
            "resources": ["domain1_kb"],
        },
        identity="user_1",
    )
    assert status == 200 and len(body["fragment_ids"]) == 2
    for fid in body["fragment_ids"]:
        fragment = runtime.store.get(fid)
        assert fragment.provenance.creator.name == "user_1"
        assert fragment.provenance.created_at == body["tick"]
    # claiming a resource the agent does not hold is refused
    status, body = client.post(
        "/memory/write",
        {
            "agent": "domain1_agent",
            "subquery": "x",
            "response": "y",
            "resources": ["domain2_kb"],
        },
        identity="user_1",
    )
    assert status == 403
    # a caller cannot write as someone else
    status, body = client.post(
        "/memory/write",
        {"user": "user_2", "agent": "domain1_agent", "subquery": "x", "response": "y"},
        identity="user_1",
    )
    assert status == 403


def test_episode_endpoint_runs_and_reuses_memory(service):
    client, runtime, cfg, _ = service
    grant_all(client, cfg)
    status, first = client.post(
        "/episodes", {"user": "user_1", "query": "domain1: topic"}, identity="user_1"
    )
    assert status == 200 and first["failure"] is None and first["rounds"] == 1
    status, second = client.post(
        "/episodes", {"user": "user_2", "query": "domain1: topic"}, identity="user_2"
    )
    assert status == 200
    assert second["final_answer"] == first["final_answer"]
    # read through the bare endpoint too, then re-verify the whole session
    status, _ = client.post(
        "/memory/read",
        {"user": "user_2", "agent": "domain1_agent", "query": "domain1: topic"},
        identity="user_2",
    )
    assert status == 200
    from memfabric import verify_run

    assert verify_run(runtime.audit.records, runtime.timeline, runtime.store) == []


def test_audit_stream_since_seq(service):
    client, runtime, cfg, _ = service
    grant_all(client, cfg)
    status, text = client.request("GET", "/audit?since_seq=0")
    assert status == 200
    lines = [json.loads(line) for line in text.splitlines()]
    assert [r["seq"] for r in lines] == list(range(len(lines)))
    tail_from = lines[-1]["seq"]
    status, tail = client.request("GET", f"/audit?since_seq={tail_from}")
    assert len(tail.splitlines()) == 1


def test_malformed_body_and_unknown_route(service):
    client, *_ = service
    status, body = client.post("/episodes", {"user": "user_1"}, identity="user_1")
    assert status == 400
    status, body = client.post("/nowhere", {}, identity="admin")
    assert status == 404
    request = urllib.request.Request(
        client.base + "/episodes",
        data=b"not json",
        headers={"X-Identity": "user_1"},
    )
    try:
        urllib.request.urlopen(request, timeout=5)
        raised = None
    except urllib.error.HTTPError as exc:
        raised = exc.code
    assert raised == 400


def test_missing_identity_header_rejected(service):
    client, runtime, cfg, _ = service
    request = urllib.request.Request(
        client.base + "/permissions/snapshot?user=user_1", method="GET"
    )
    try:
        urllib.request.urlopen(request, timeout=5)
        status = 200
    except urllib.error.HTTPError as exc:
        status = exc.code
    assert status == 400


def test_service_resumes_from_artifacts(tmp_path):
    cfg = ScenarioConfig.from_dict(revocation_phase_config())
    artifacts = run_scenario(cfg, tmp_path / "run")
    runtime = build_runtime(cfg, artifacts.audit_path, resume=True)
    try:
        # state carried over: store, timeline, clock, audit sequence
        assert len(runtime.store) > 0
        assert runtime.clock.now >= runtime.timeline.latest_tick
        before = len(runtime.audit)
        svc = MemoryService(runtime)
        server = make_server(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = Client(f"http://127.0.0.1:{server.server_port}")
        status, body = client.post(
            "/episodes", {"user": "user_1", "query": "lab: solvent handling"}, identity="user_1"
        )
        assert status == 200 and body["failure"] is None
        # memory survived the restart: the repeat is answered without lookups
        assert body["rounds"] == 1
        assert len(runtime.audit) > before
        seqs = [r.seq for r in runtime.audit.records]
        assert seqs == list(range(len(seqs)))
        server.shutdown()
        server.server_close()
    finally:
        runtime.audit.close()


def test_resume_after_a_rejected_write_continues_ids_exactly(tmp_path):
    # the rejected write must draw no fragment id, or the resumed runtime's
    # fast-forward (one id per stored fragment) falls one id short
    cfg = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
    rejected = {"agent": "domain1_agent", "subquery": "domain1: q0", "response": ""}

    def requests(svc, n):
        return [
            svc.handle(
                "POST",
                "/memory/write",
                {},
                "user_1",
                {"agent": "domain1_agent", "subquery": f"domain1: q{n}", "response": f"a{n}"},
            ),
            svc.handle(
                "POST", "/episodes", {}, "user_2", {"user": "user_2", "query": f"domain2: e{n}"}
            ),
        ]

    replies = {}
    for name in ("uninterrupted", "resumed"):
        audit_path = tmp_path / name / "audit.jsonl"
        svc = granted_service(cfg, audit_path)
        status, body = svc.handle("POST", "/memory/write", {}, "user_1", rejected)
        assert (status, body["error"]) == (400, "InvalidFragment")
        assert [status for status, _ in requests(svc, 1)] == [200, 200]
        if name == "resumed":
            svc.rt.timeline.save(audit_path.parent / "timeline.jsonl")
            svc.rt.store.save(audit_path.parent / "store.jsonl")
            svc.rt.audit.close()
            svc = granted_service(cfg, audit_path, resume=True)
        replies[name] = requests(svc, 2)
        svc.rt.audit.close()
    assert replies["resumed"] == replies["uninterrupted"]
    assert [status for status, _ in replies["resumed"]] == [200, 200]
    assert (tmp_path / "resumed" / "audit.jsonl").read_bytes() == (
        tmp_path / "uninterrupted" / "audit.jsonl"
    ).read_bytes()


@pytest.mark.parametrize("saved", ["no timeline", "stale timeline", "no store"])
def test_a_resumed_runtime_answers_like_an_uninterrupted_one(tmp_path, saved):
    # resume replays the permission history and the store from the audit log
    # alone, so a missing or stale timeline.jsonl or a missing store.jsonl
    # changes nothing
    cfg = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
    write = {"agent": "domain1_agent", "subquery": "domain1: q", "response": "a"}
    edge = {"edge": {"user": "user_1", "agent": "domain1_agent"}}
    replies, stores = {}, {}
    for name in ("uninterrupted", "resumed"):
        audit_path = tmp_path / name / "audit.jsonl"
        svc = granted_service(cfg, audit_path)
        assert svc.handle("POST", "/memory/write", {}, "user_1", write)[0] == 200
        assert svc.handle("POST", "/permissions/revoke", {}, "admin", edge)[0] == 200
        if saved == "stale timeline":
            svc.rt.timeline.save(audit_path.parent / "timeline.jsonl")
        assert svc.handle("POST", "/permissions/grant", {}, "admin", edge)[0] == 200
        if name == "resumed":
            if saved != "no store":
                svc.rt.store.save(audit_path.parent / "store.jsonl")
            svc.rt.audit.close()
            svc = granted_service(cfg, audit_path, resume=True)
        replies[name] = svc.handle("POST", "/memory/write", {}, "user_1", write)
        stores[name] = svc.rt.store.to_jsonl()
        svc.rt.audit.close()
    assert replies["resumed"] == replies["uninterrupted"]
    assert replies["resumed"][0] == 200
    assert stores["resumed"] == stores["uninterrupted"]
    assert (tmp_path / "resumed" / "audit.jsonl").read_bytes() == (
        tmp_path / "uninterrupted" / "audit.jsonl"
    ).read_bytes()


def test_a_request_flushes_its_audit_records_once(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
    svc = granted_service(cfg, tmp_path / "audit.jsonl")
    svc.rt.audit._fp = sink = CountingFlushes(svc.rt.audit._fp)
    before = len(svc.rt.audit)
    body = {"agent": "domain1_agent", "subquery": "domain1: q", "response": "a"}
    assert svc.handle("POST", "/memory/write", {}, "user_1", body)[0] == 200
    assert len(svc.rt.audit) - before == 2 and sink.flushes == 1
    assert (tmp_path / "audit.jsonl").read_text() == svc.rt.audit.to_jsonl()
    svc.rt.audit.close()


def test_audit_stream_serves_the_lines_of_the_file_from_since_seq(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
    svc = granted_service(cfg, tmp_path / "audit.jsonl")
    for query in ("domain1: first", "domain2: second"):
        svc.handle("POST", "/episodes", {}, "user_1", {"user": "user_1", "query": query})
    lines = (tmp_path / "audit.jsonl").read_bytes().splitlines(keepends=True)
    count = len(svc.rt.audit)
    assert len(lines) == count > 4
    for since in (-3, 0, count // 2, count, count + 5):
        status, text = svc.handle("GET", "/audit", {"since_seq": [str(since)]}, "admin", {})
        assert (status, text.encode()) == (200, b"".join(lines[max(since, 0) :]))
    svc.rt.audit.close()


@pytest.mark.parametrize("component", [0.0, float("nan")])
def test_unusable_remote_embedding_is_503(component):
    # a zero or NaN vector is the embedding backend's fault, not the caller's
    with StubServer(lambda request: {"embedding": [component] * 8}) as stub:
        doc = overlap_config(count=6, n_users=3, n_agents=2)
        doc["embedder"] = {"kind": "remote", "dimension": 8, "endpoint": stub.url}
        svc = granted_service(ScenarioConfig.from_dict(doc))
        write = {"agent": "domain1_agent", "subquery": "q", "response": "r"}
        read = {"user": "user_1", "agent": "domain1_agent", "query": "q"}
        for route, body in (("/memory/write", write), ("/memory/read", read)):
            status, reply = svc.handle("POST", route, {}, "user_1", body)
            assert (status, reply["error"]) == (503, "remote_unavailable")
        assert len(svc.rt.store) == 0


# --- malformed requests ---


def test_malformed_integer_parameters_are_bad_requests(tmp_path):
    # MemoryService.handle and handle_audit_stream are called directly, no socket
    cfg = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
    svc = MemoryService(build_runtime(cfg, audit_path=tmp_path / "audit.jsonl"))
    try:
        for who in ({"user": ["user_1"]}, {"agent": ["domain1_agent"]}):
            status, body = svc.handle(
                "GET", "/permissions/snapshot", {**who, "t": ["abc"]}, "admin", {}
            )
            assert status == 400 and body["error"] == "bad_request"
        with pytest.raises(ApiError) as raised:
            svc.handle_audit_stream({"since_seq": ["abc"]})
        assert (raised.value.status, raised.value.code) == (400, "bad_request")
        assert svc.handle_audit_stream({"since_seq": ["0"]}) == svc.handle_audit_stream({})
    finally:
        svc.rt.audit.close()


def test_malformed_since_seq_over_http_is_400(service):
    client, *_ = service
    status, text = client.request("GET", "/audit?since_seq=abc")
    assert status == 400 and json.loads(text)["error"] == "bad_request"


def port_of(client: Client) -> int:
    return int(client.base.rsplit(":", 1)[1])


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw`` and read until the server closes the connection; a
    connection left open fails the read by timeout. A reset after the reply
    counts as the close: a server refusing a request may close with part of
    it unread."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(raw)
        try:
            while chunk := conn.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def test_audit_stream_is_admin_only(service):
    client, *_ = service
    status, text = client.request("GET", "/audit", identity="user_1")
    assert status == 403 and json.loads(text)["error"] == "forbidden"
    reply = exchange(port_of(client), b"GET /audit HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 400")
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"] == "bad_request"


def test_requests_reuse_one_connection(service):
    client, *_ = service
    conn = http.client.HTTPConnection("127.0.0.1", port_of(client), timeout=5)
    try:
        statuses, sockets = [], []
        for _ in range(2):
            conn.request("GET", "/permissions/snapshot?user=user_1", headers={"X-Identity": "admin"})
            response = conn.getresponse()
            statuses.append(response.status)
            response.read()
            sockets.append(conn.sock)
        assert statuses == [200, 200]
        assert sockets[0] is not None and sockets[0] is sockets[1]
    finally:
        conn.close()


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /permissions/snapshot?user=user_1 HTTP/1.0\r\n",
        b"GET /permissions/snapshot?user=user_1 HTTP/1.1\r\nConnection: close\r\n",
        b"GET /permissions/snapshot?user=user_1 HTTP/1.0\r\nConnection: keep-alive\r\n",
        b"GET //permissions/snapshot?user=user_1 HTTP/1.0\r\n",
    ],
)
def test_closing_requests_are_closed_after_reply(service, request_head):
    client, *_ = service
    reply = exchange(port_of(client), request_head + b"X-Identity: admin\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 200") and reply.count(b"HTTP/1.") == 1


def test_idle_connection_is_closed(service, monkeypatch):
    client, *_ = service
    assert service_module._Handler.timeout == service_module.IDLE_TIMEOUT_S > 0
    monkeypatch.setattr(service_module._Handler, "timeout", 0.2)
    with socket.create_connection(("127.0.0.1", port_of(client)), timeout=5) as conn:
        conn.sendall(
            b"GET /permissions/snapshot?user=user_1 HTTP/1.1\r\nX-Identity: admin\r\n\r\n"
        )
        replies = conn.makefile("rb")
        assert replies.readline().startswith(b"HTTP/1.1 200")
        # the reply leaves the connection open; after the idle timeout the
        # server closes it, which ends the stream well before the 5 s timeout
        assert b"Connection: close" not in replies.read()


GRANT = json.dumps({"edge": {"user": "user_1", "agent": "domain1_agent"}}).encode()
SMUGGLED = (
    b"POST /permissions/grant HTTP/1.1\r\nX-Identity: admin\r\n"
    b"Content-Length: " + str(len(GRANT)).encode() + b"\r\n\r\n" + GRANT
)
# a Content-Length that covers the smuggled grant, if the server reads it
COVERING = b"Content-Length: %d\r\n" % len(SMUGGLED)


@pytest.mark.parametrize(
    "framing",
    [
        b"Content-Length: -1\r\n",
        b"Content-Length: 2\r\nContent-Length: 0\r\n",
        b"Transfer-Encoding: chunked\r\n",
        b"Bogus\r\n" + COVERING,
        b"X-Trace : 1\r\n" + COVERING,
        b"X-Trace: 1\r\n folded\r\n" + COVERING,
        b"X-Identity: admin\r\n" + COVERING,
    ],
)
def test_unframeable_body_is_refused_and_closes(service, framing):
    client, runtime, _, _ = service
    audit_before, events_before = len(runtime.audit), runtime.timeline.events
    reply = exchange(
        port_of(client),
        b"POST /memory/read HTTP/1.1\r\nX-Identity: user_1\r\n" + framing + b"\r\n" + SMUGGLED,
    )
    assert reply.startswith(b"HTTP/1.1 400") and reply.count(b"HTTP/1.") == 1
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"] == "bad_request"
    assert len(runtime.audit) == audit_before
    assert runtime.timeline.events == events_before


def test_a_body_nested_too_deep_is_400(service):
    client, runtime, _, _ = service
    audit_before = len(runtime.audit)
    request = urllib.request.Request(
        client.base + "/memory/read",
        data=b"[" * 100_000 + b"]" * 100_000,
        headers={"X-Identity": "user_1"},
    )
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(request, timeout=5)
    with raised.value as error:
        reply = json.loads(error.read())
    assert (error.code, reply) == (400, {"error": "bad_request", "message": "malformed JSON body"})
    assert len(runtime.audit) == audit_before


def test_malformed_content_length_is_400(service):
    client, *_ = service
    port = int(client.base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(
            b"POST /memory/read HTTP/1.0\r\nX-Identity: user_1\r\n"
            b"Content-Length: abc\r\n\r\n{}"
        )
        reply = conn.makefile("rb").read()
    assert reply.startswith(b"HTTP/1.1 400")
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"] == "bad_request"


def read_reply(replies) -> tuple[bytes, dict[bytes, bytes], bytes]:
    """Status line, headers by lowercase name, and body of the next reply."""
    status = replies.readline()
    headers = {}
    while (line := replies.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        headers[name.lower()] = value.strip()
    return status, headers, replies.read(int(headers[b"content-length"]))


# a request line and a header line of 65,537 bytes, one over the limit
LONG_TARGET = b"/" + b"a" * (65537 - len(b"GET / HTTP/1.1\r\n"))
LONG_VALUE = b"a" * (65537 - len(b"X-Trace: \r\n"))


@pytest.mark.parametrize(
    "raw, status",
    [
        (b"GET " + LONG_TARGET + b" HTTP/1.1\r\n", 414),
        (b"GET /audit HTTP/1.1\r\n" + b"X-Trace: 1\r\n" * 101 + b"\r\n", 431),
        (b"GET /audit HTTP/1.1\r\nX-Trace: " + LONG_VALUE + b"\r\n\r\n", 431),
        (b"PUT /audit HTTP/1.1\r\nX-Identity: admin\r\n\r\n", 501),
        (b"HEAD /audit HTTP/1.1\r\nX-Identity: admin\r\n\r\n", 501),
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /audit HTTP/2.0\r\nX-Identity: admin\r\n\r\n", 400),
    ],
    ids=["long-request-line", "101-headers", "long-header-line", "put", "head", "garbage", "http-2"],
)
def test_protocol_errors_answer_json_and_close(service, raw, status):
    client, *_ = service
    reply = io.BytesIO(exchange(port_of(client), raw))
    status_line, headers, body = read_reply(reply)
    assert status_line.startswith(b"HTTP/1.1 %d " % status)
    assert headers[b"content-type"] == b"application/json"
    assert headers[b"connection"] == b"close"
    assert isinstance(json.loads(body)["error"], str)
    assert reply.read() == b""  # nothing after the one reply, then the close


def test_pipelined_requests_are_answered_in_order(service):
    client, *_ = service
    reply = io.BytesIO(
        exchange(
            port_of(client),
            b"GET /permissions/snapshot?user=user_1 HTTP/1.1\r\nX-Identity: admin\r\n\r\n"
            b"GET /permissions/snapshot?agent=domain1_agent HTTP/1.1\r\nX-Identity: admin\r\n"
            b"Connection: close\r\n\r\n",
        )
    )
    first, second = read_reply(reply), read_reply(reply)
    assert first[0].startswith(b"HTTP/1.1 200") and json.loads(first[2])["user"] == "user_1"
    assert second[0].startswith(b"HTTP/1.1 200") and json.loads(second[2])["agent"] == "domain1_agent"
    assert reply.read() == b""


@pytest.mark.parametrize(
    "head, interim",
    [
        (b"X-Identity: admin\r\nContent-Length: %d\r\n", b""),
        (b"x-identity: admin\r\ncontent-length: %d\r\n", b""),
        (
            b"X-Identity: admin\r\nExpect: 100-continue\r\nContent-Length: %d\r\n",
            b"HTTP/1.1 100 Continue\r\n\r\n",
        ),
    ],
    ids=["late-body", "lowercase-names", "expect-100-continue"],
)
def test_body_sent_after_the_headers_is_read_whole(service, head, interim):
    client, runtime, _, _ = service
    with socket.create_connection(("127.0.0.1", port_of(client)), timeout=5) as conn:
        conn.sendall(
            b"POST /permissions/grant HTTP/1.1\r\nConnection: close\r\n"
            + head % len(GRANT)
            + b"\r\n"
        )
        replies = conn.makefile("rb")
        if interim:
            assert replies.readline() + replies.readline() == interim
        time.sleep(0.05)
        conn.sendall(GRANT)
        status_line, _, body = read_reply(replies)
        assert replies.read() == b""
    assert status_line.startswith(b"HTTP/1.1 200")
    assert json.loads(body)["applied"] == "grant"
    assert runtime.timeline.events[-1].action.value == "grant"


class _NanEmbedder:
    dimension = 16

    def embed(self, text: str) -> np.ndarray:
        return np.full(self.dimension, np.nan)


def test_non_finite_embeddings_are_bad_requests():
    runtime, _ = make_runtime()
    runtime.embedder = _NanEmbedder()
    svc = MemoryService(runtime)
    status, body = svc.handle(
        "POST", "/memory/write", {}, "u1", {"agent": "a1", "subquery": "q", "response": "r"}
    )
    assert status == 400 and body["error"] == "NonFiniteVector"
    assert len(runtime.store) == 0
    status, body = svc.handle(
        "POST", "/memory/read", {}, "u1", {"user": "u1", "agent": "a1", "query": "q"}
    )
    assert status == 400 and body["error"] == "NonFiniteVector"


# --- one request at a time, ticks on commit ---


@pytest.fixture
def fine_switching():
    """Switch threads as often as the interpreter can, to expose races."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def test_reads_racing_a_writer_all_answer_200(fine_switching):
    # a read that sampled the clock before a write committed used to log
    # behind the write's record and answer 400 NonMonotonicTimestamp
    runtime, _ = make_runtime()
    svc = MemoryService(runtime)
    done = threading.Event()
    writes = Counter()

    def writer():
        while not done.is_set():
            n = sum(writes.values())
            body = {"agent": "a1", "subquery": f"d1 w{n}", "response": f"r{n}"}
            writes[svc.handle("POST", "/memory/write", {}, "u2", body)[0]] += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        read = {"user": "u1", "agent": "a1", "query": "d1 question"}
        reads = Counter(svc.handle("POST", "/memory/read", {}, "u1", read)[0] for _ in range(3000))
    finally:
        done.set()
        thread.join()
    assert reads == {200: 3000}
    assert set(writes) == {200}


def test_snapshots_racing_first_time_grants_never_raise(fine_switching):
    # a snapshot used to iterate the user's adjacency while a first-time
    # grant added to it: "dictionary changed size during iteration"
    errors: list[Exception] = []
    statuses = Counter()
    for _ in range(20):
        runtime, _ = make_runtime(n_users=1, n_agents=400, grant_all=False)
        svc = MemoryService(runtime)
        done = threading.Event()

        def poll():
            while not done.is_set():
                try:
                    statuses[svc.handle("GET", "/permissions/snapshot", {"user": ["u1"]}, "admin", {})[0]] += 1
                except Exception as exc:
                    errors.append(exc)

        thread = threading.Thread(target=poll)
        thread.start()
        try:
            grants = Counter(
                svc.handle(
                    "POST", "/permissions/grant", {}, "admin", {"edge": {"user": "u1", "agent": f"a{i}"}}
                )[0]
                for i in range(1, 401)
            )
        finally:
            done.set()
            thread.join()
        assert grants == {200: 400}
    assert errors == []
    assert set(statuses) == {200}


@pytest.mark.parametrize(
    "route, identity, body, status",
    [
        ("/memory/write", "user_1", {"agent": "domain1_agent", "subquery": "q", "response": ""}, 400),
        ("/permissions/grant", "admin", {"edge": {"user": "user_1", "agent": "domain1_agent"}}, 409),
    ],
    ids=["write-400", "grant-409"],
)
def test_a_rejected_request_takes_no_tick(tmp_path, route, identity, body, status):
    # a resumed runtime starts its clock at the last recorded tick, so a tick
    # that no record holds would make it answer one tick lower
    cfg = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
    write = {"agent": "domain1_agent", "subquery": "domain1: q", "response": "a"}
    ticks = {}
    for name in ("uninterrupted", "resumed"):
        audit_path = tmp_path / name / "audit.jsonl"
        svc = granted_service(cfg, audit_path)
        try:
            assert svc.handle("POST", "/memory/write", {}, "user_1", write)[0] == 200
            before = svc.rt.clock.now
            assert svc.handle("POST", route, {}, identity, body)[0] == status
            assert svc.rt.clock.now == before
            if name == "resumed":
                svc.rt.timeline.save(audit_path.parent / "timeline.jsonl")
                svc.rt.store.save(audit_path.parent / "store.jsonl")
                svc.rt.audit.close()
                svc = granted_service(cfg, audit_path, resume=True)
            reply = svc.handle("POST", "/memory/write", {}, "user_1", write)
        finally:
            svc.rt.audit.close()
        assert reply[0] == 200
        ticks[name] = reply[1]["tick"]
    assert ticks["resumed"] == ticks["uninterrupted"] == before + 1


def test_episode_for_an_unknown_user_takes_no_tick():
    runtime, _ = make_runtime()
    svc = MemoryService(runtime)
    before = (runtime.clock.now, len(runtime.audit))
    status, body = svc.handle("POST", "/episodes", {}, "admin", {"user": "nobody", "query": "d1 q"})
    assert (status, body["error"]) == (400, "unknown_principal")
    assert (runtime.clock.now, len(runtime.audit)) == before


@pytest.mark.parametrize(
    "method, route, params, body",
    [
        ("POST", "/permissions/grant", {}, {"edge": {"user": "", "agent": "a1"}}),
        ("POST", "/permissions/revoke", {}, {"edge": {"agent": "a1", "resource": ""}}),
        ("POST", "/permissions/grant", {}, {"edge": {"user": "u1"}}),
        ("POST", "/permissions/grant", {}, {"edge": {"user": "u1", "agent": "a1", "resource": "r1"}}),
        ("POST", "/permissions/grant", {}, {"edge": "u1->a1"}),
        ("POST", "/permissions/revoke", {}, {}),
        # a name that is not a string is refused, not read as its repr
        ("POST", "/permissions/grant", {}, {"edge": {"user": None, "agent": "a1"}}),
        ("POST", "/permissions/grant", {}, {"edge": {"user": ["u1"], "agent": "a1"}}),
        ("POST", "/permissions/revoke", {}, {"edge": {"agent": "a1", "resource": 1}}),
        ("GET", "/permissions/snapshot", {"user": [""]}, {}),
        ("GET", "/permissions/snapshot", {"agent": [""]}, {}),
        ("POST", "/memory/read", {}, {"user": "u1", "agent": "", "query": "q"}),
        ("POST", "/memory/write", {}, {"user": "", "agent": "a1", "subquery": "q", "response": "r"}),
        (
            "POST",
            "/memory/write",
            {},
            {"user": "u1", "agent": "a1", "subquery": "q", "response": "r", "resources": [""]},
        ),
        *(
            ("POST", "/memory/write", {},
             {"user": "u1", "agent": "a1", "subquery": "q", "response": "r", "resources": resources})
            for resources in (5, None, "r1", [["r1"]])
        ),
        ("POST", "/episodes", {}, {"user": "", "query": "q"}),
        # a field that is not a string is refused, not stored or searched as its repr
        ("POST", "/memory/read", {}, {"user": "u1", "agent": "a1", "query": None}),
        ("POST", "/memory/read", {}, {"user": 1, "agent": "a1", "query": "q"}),
        ("POST", "/memory/read", {}, {"user": "u1", "agent": "a1"}),
        ("POST", "/memory/write", {}, {"user": "u1", "agent": "a1", "subquery": {"q": 1}, "response": "r"}),
        ("POST", "/memory/write", {}, {"user": "u1", "agent": "a1", "subquery": "q", "response": None}),
        ("POST", "/memory/write", {}, {"user": "u1", "agent": ["a1"], "subquery": "q", "response": "r"}),
        ("POST", "/memory/write", {}, {"user": None, "agent": "a1", "subquery": "q", "response": "r"}),
        ("POST", "/episodes", {}, {"user": "u1", "query": None}),
        ("POST", "/episodes", {}, {"user": ["u1"], "query": "q"}),
        ("POST", "/episodes", {}, {"user": "u1", "query": "d1 q", "bin": 3}),
    ],
    ids=[
        "grant-empty-user",
        "revoke-empty-resource",
        "grant-half-edge",
        "grant-three-names",
        "grant-edge-not-object",
        "revoke-no-edge",
        "grant-user-null",
        "grant-user-list",
        "revoke-resource-number",
        "snapshot-empty-user",
        "snapshot-empty-agent",
        "read-empty-agent",
        "write-empty-user",
        "write-empty-resource",
        "write-resources-number",
        "write-resources-null",
        "write-resources-string",
        "write-resources-nested-list",
        "episode-empty-user",
        "read-query-null",
        "read-user-number",
        "read-query-missing",
        "write-subquery-object",
        "write-response-null",
        "write-agent-list",
        "write-user-null",
        "episode-query-null",
        "episode-user-list",
        "episode-bin-number",
    ],
)
def test_empty_names_and_malformed_edges_are_bad_requests(method, route, params, body):
    runtime, _ = make_runtime()
    svc = MemoryService(runtime)
    before = (runtime.clock.now, len(runtime.audit), len(runtime.store))
    status, reply = svc.handle(method, route, params, "admin", body)
    assert (status, reply["error"]) == (400, "bad_request")
    assert (runtime.clock.now, len(runtime.audit), len(runtime.store)) == before


def test_remote_agent_asking_for_an_ungranted_resource_is_403():
    invoke_r2 = {"output": json.dumps({"invoke": ["r2"], "answer": "x"})}
    with StubServer(lambda request: invoke_r2) as chat:
        runtime, _ = make_runtime()
        a1 = agent("a1")  # granted r1 only
        runtime.agents[a1] = AgentSpec(
            id=a1, specialization="remote d1", backend=RemoteAgentBackend(chat.url, "")
        )
        svc = MemoryService(runtime)
        status, body = svc.handle(
            "POST", "/episodes", {}, "u1", {"user": "u1", "query": "d1 question"}
        )
    assert (status, body["error"]) == (403, "forbidden")


def _json_output(doc: object) -> dict:
    return {"output": json.dumps(doc)}


# one remote role answers one malformed reply: the episode fails as the
# backend's fault, and no part of the reply is stored or read as a permission
@pytest.mark.parametrize(
    "role, reply, failure",
    [
        ("agent", {"output": None}, "remote_unavailable"),
        ("agent", {"output": 5}, "remote_unavailable"),
        ("agent", _json_output({"invoke": "domain1_kb"}), "remote_unavailable"),
        ("agent", _json_output({"invoke": [5]}), "remote_unavailable"),
        ("agent", _json_output({"invoke": [], "answer": None}), "remote_unavailable"),
        ("agent", {"output": "[" * 100_000 + "]" * 100_000}, "remote_unavailable"),
        ("coordinator", _json_output({"agent": "domain1_agent", "subquery": None}), "coordinator_protocol"),
        ("coordinator", _json_output({"agent": "domain1_agent", "subquery": 7}), "coordinator_protocol"),
        ("coordinator", _json_output({"agent": "domain1_agent", "subquery": ""}), "coordinator_protocol"),
        ("coordinator", {"output": "[" * 100_000 + "]" * 100_000}, "coordinator_protocol"),
        ("judge", {"output": "nan"}, "remote_unavailable"),
        ("judge", {"output": "inf"}, "remote_unavailable"),
    ],
    ids=[
        "agent-output-null",
        "agent-output-number",
        "agent-invoke-string",
        "agent-invoke-number",
        "agent-answer-null",
        "agent-output-too-deep",
        "coordinator-subquery-null",
        "coordinator-subquery-number",
        "coordinator-subquery-empty",
        "coordinator-output-too-deep",
        "judge-nan",
        "judge-inf",
    ],
)
def test_a_malformed_remote_reply_fails_the_episode(role, reply, failure):
    doc = overlap_config(count=6, n_users=3, n_agents=2)
    episode = {"user": "user_1", "query": "domain1: topic"}
    with StubServer(lambda request: reply) as stub:
        svc = granted_service(ScenarioConfig.from_dict(with_remote(doc, role, stub.url)))
        status, body = svc.handle("POST", "/episodes", {}, "user_1", episode)
    rounds = 1 if role == "judge" else 0  # the judge scores a scripted round
    assert (status, body["failure"], body["rounds"]) == (200, failure, rounds)
    end = [r for r in svc.rt.audit if r.action.value == "episode_end"]
    assert [r.detail for r in end] == [{"failure": failure, "rounds": rounds}]
    stored = {(f.key, f.value) for f in svc.rt.store.fragments()}
    assert stored == ({("domain1: topic", "According to domain1_kb: domain1_kb reference entry "
                        "for 'domain1: topic'")} if rounds else set())


def test_a_refused_episode_still_ends_in_the_log(tmp_path):
    # the service answers 403, and the log it leaves verifies clean
    doc = overlap_config(count=6, n_users=3, n_agents=2)
    ungranted = {"output": json.dumps({"invoke": ["domain1_kb", "domain2_kb"]})}
    audit = tmp_path / "audit.jsonl"
    with StubServer(lambda request: ungranted) as stub:
        cfg = ScenarioConfig.from_dict(with_remote(doc, "agent", stub.url))
        runtime = build_runtime(cfg, audit_path=audit)
        try:
            svc = MemoryService(runtime)
            for a, b in plan_scenario(cfg).setup_edges:
                edge = {a.kind.value: a.name, b.kind.value: b.name}
                assert svc.handle("POST", "/permissions/grant", {}, "admin", {"edge": edge})[0] == 200
            episode = {"user": "user_1", "query": "domain1: topic"}
            status, body = svc.handle("POST", "/episodes", {}, "user_1", episode)
            assert (status, body["error"]) == (403, "forbidden")
            write = {"agent": "domain1_agent", "subquery": "domain1: topic", "response": "details"}
            assert svc.handle("POST", "/memory/write", {}, "user_1", write)[0] == 200
        finally:
            runtime.audit.close()
    assert verify_files(audit) == []
    end = next(r for r in iter_audit_file(audit) if r.action.value == "episode_end")
    assert end.detail == {"failure": "resource_not_permitted", "rounds": 0}


def test_an_episode_failing_on_any_error_still_ends_in_the_log_and_resumes(tmp_path):
    # an empty agent answer makes the episode's write raise InvalidFragment
    doc = overlap_config(count=6, n_users=3, n_agents=2)
    audit = tmp_path / "audit.jsonl"
    episode = {"user": "user_1", "query": "domain1: topic"}
    with StubServer(lambda request: {"output": ""}) as stub:
        cfg = ScenarioConfig.from_dict(with_remote(doc, "agent", stub.url))
        svc = granted_service(cfg, audit)
        try:
            status, body = svc.handle("POST", "/episodes", {}, "user_1", episode)
        finally:
            svc.rt.audit.close()
    assert (status, body["error"]) == (400, "InvalidFragment")
    assert verify_files(audit) == []
    records = list(iter_audit_file(audit))
    assert [r.action.value for r in records[-4:]] == [
        "episode_start", "agent_invoke", "fragment_read", "episode_end"
    ]
    assert records[-1].detail == {"failure": "invalid_fragment", "rounds": 0}
    svc = granted_service(cfg, audit, resume=True)
    try:
        assert (len(svc.rt.audit), svc.rt.next_episode_id()) == (len(records), "ep-00001")
    finally:
        svc.rt.audit.close()
    assert audit.read_bytes().count(b"\n") == len(records)


# --- the serve command ---


def test_serve_command_answers_and_audits(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overlap_config(count=6, n_users=3, n_agents=2)))
    audit = tmp_path / "audit.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def serve(requests):
        """Start ``memfabric serve`` on the log, post ``requests``, stop it."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        command = [sys.executable, "-m", "memfabric.cli", "serve", "--config", str(config)]
        command += ["--port", str(port), "--audit", str(audit)]
        with subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL) as server:
            try:
                deadline = time.monotonic() + 60
                while True:
                    assert server.poll() is None, "serve exited"
                    try:
                        socket.create_connection(("127.0.0.1", port), timeout=1).close()
                        break
                    except OSError:
                        assert time.monotonic() < deadline, "serve never accepted a connection"
                        time.sleep(0.05)
                client = Client(f"http://127.0.0.1:{port}")
                return [client.post(path, body, identity) for path, body, identity in requests]
            finally:
                server.terminate()
                server.wait(timeout=30)

    edge = {"edge": {"user": "user_1", "agent": "domain1_agent"}}
    write = {"agent": "domain1_agent", "subquery": "domain1: topic", "response": "details"}
    read = {"user": "user_1", "agent": "domain1_agent", "query": "domain1: topic"}
    granted, written, view = serve([
        ("/permissions/grant", edge, "admin"),
        ("/memory/write", write, "user_1"),
        ("/memory/read", read, "user_1"),
    ])
    assert granted == (200, {"tick": 1, "applied": "grant"})
    status, body = written
    assert status == 200 and body["tick"] == 2 and len(body["fragment_ids"]) == 2
    ids = body["fragment_ids"]
    status, body = view
    assert status == 200 and body["t"] == 2
    assert sorted(hit["id"] for hit in body["view"]) == sorted(ids)
    records = list(iter_audit_file(audit))
    assert [(r.at, r.action.value) for r in records] == [
        (1, "grant"),
        (2, "fragment_write"),
        (2, "fragment_write"),
        (2, "fragment_read"),
    ]
    assert [r.subjects[0] for r in records[1:3]] == ids
    assert sorted(records[3].subjects) == sorted(ids)

    # a restarted server continues its log: its grant, its memory, its clock
    view, written = serve([("/memory/read", read, "user_1"), ("/memory/write", write, "user_1")])
    status, body = view
    assert status == 200 and body["t"] == 2
    assert sorted(hit["id"] for hit in body["view"]) == sorted(ids)
    status, body = written
    assert status == 200 and body["tick"] == 3 and not set(body["fragment_ids"]) & set(ids)
    records = list(iter_audit_file(audit))
    assert [(r.at, r.action.value) for r in records[4:]] == [
        (2, "fragment_read"),
        (3, "fragment_write"),
        (3, "fragment_write"),
    ]
    assert [r.seq for r in records] == list(range(len(records)))
    assert verify_files(audit) == []
