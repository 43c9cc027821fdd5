from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from memfabric import (
    MemoryService,
    ScenarioConfig,
    build_runtime,
    make_server,
    plan_scenario,
    resume_runtime,
    run_scenario,
)
from memfabric import service as service_module
from memfabric.service import ApiError
from rtutil import make_runtime
from scenarios import overlap_config, revocation_phase_config


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
    runtime = resume_runtime(cfg, artifacts.out_dir)
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
    connection left open fails the read by timeout."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(raw)
        return conn.makefile("rb").read()


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


@pytest.mark.parametrize(
    "framing",
    [
        b"Content-Length: -1\r\n",
        b"Content-Length: 2\r\nContent-Length: 0\r\n",
        b"Transfer-Encoding: chunked\r\n",
    ],
)
def test_unframeable_body_is_refused_and_closes(service, framing):
    client, runtime, _, _ = service
    grant = json.dumps({"edge": {"user": "user_1", "agent": "domain1_agent"}}).encode()
    smuggled = (
        b"POST /permissions/grant HTTP/1.1\r\nX-Identity: admin\r\n"
        b"Content-Length: " + str(len(grant)).encode() + b"\r\n\r\n" + grant
    )
    audit_before, events_before = len(runtime.audit), runtime.timeline.events
    reply = exchange(
        port_of(client),
        b"POST /memory/read HTTP/1.1\r\nX-Identity: user_1\r\n" + framing + b"\r\n" + smuggled,
    )
    assert reply.startswith(b"HTTP/1.1 400") and reply.count(b"HTTP/1.") == 1
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"] == "bad_request"
    assert len(runtime.audit) == audit_before
    assert runtime.timeline.events == events_before


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
