"""Shared scripted-runtime builder and stub remote backend for tests."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from memfabric import (
    AccessTimeline,
    AgentSpec,
    AuditAction,
    AuditLog,
    DeterministicEmbedder,
    Direction,
    EpisodeLimits,
    IdentityTransform,
    JoiningAggregator,
    KeywordCoordinator,
    LogicalClock,
    MemoryService,
    MemoryStore,
    PolicyBinding,
    PolicyTable,
    PrincipalDirectory,
    Redactor,
    Resource,
    RetrievalConfig,
    Runtime,
    Scope,
    ScriptedAgentBackend,
    build_runtime,
    plan_scenario,
    resource,
)


class CountingFlushes:
    """An audit file sink that counts its flushes: ``log._fp = CountingFlushes(log._fp)``."""

    def __init__(self, fp) -> None:
        self.fp, self.flushes = fp, 0

    def write(self, text: str) -> int:
        return self.fp.write(text)

    def flush(self) -> None:
        self.flushes += 1
        self.fp.flush()

    def close(self) -> None:
        self.fp.close()


def make_runtime(
    n_users=2,
    n_agents=2,
    coordinator=None,
    force_private=False,
    grant_all=True,
    seed=0,
    max_rounds=6,
):
    directory = PrincipalDirectory()
    users = [directory.add_user(f"u{i + 1}") for i in range(n_users)]
    agents = {}
    resources = {}
    for i in range(n_agents):
        aid = directory.add_agent(f"a{i + 1}")
        rid = directory.add_resource(f"r{i + 1}")
        agents[aid] = AgentSpec(
            id=aid,
            specialization=f"domain d{i + 1}",
            backend=ScriptedAgentBackend(resource=rid.name),
        )
        resources[rid] = Resource(id=rid)
    audit = AuditLog()
    timeline = AccessTimeline(directory, audit=audit)
    clock = LogicalClock()
    if grant_all:
        for u in users:
            for a in agents:
                timeline.grant((u, a), clock.tick())
        for i, a in enumerate(agents):
            timeline.grant((a, resource(f"r{i + 1}")), clock.tick())
    policies = PolicyTable(
        [
            PolicyBinding(Scope.everywhere(), Direction.READ, IdentityTransform()),
            PolicyBinding(Scope.everywhere(), Direction.WRITE_PRIVATE, IdentityTransform()),
            PolicyBinding(
                Scope.everywhere(), Direction.WRITE_SHARED, Redactor((("{user}", "[user]"),))
            ),
        ]
    )
    counter = [0]

    def ids() -> str:
        counter[0] += 1
        return f"fr-{counter[0]:04d}"

    runtime = Runtime(
        directory=directory,
        clock=clock,
        timeline=timeline,
        store=MemoryStore(16, directory=directory, audit=audit),
        policies=policies,
        audit=audit,
        embedder=DeterministicEmbedder(16),
        retrieval=RetrievalConfig(k_user=10, k_cross=10, threshold=0.1),
        agents=agents,
        resources=resources,
        coordinator=coordinator or KeywordCoordinator({f"d{i + 1}": f"a{i + 1}" for i in range(n_agents)}),
        aggregator=JoiningAggregator(),
        limits=EpisodeLimits(max_rounds=max_rounds),
        id_factory=ids,
        force_private=force_private,
    )
    return runtime, users


def granted_service(cfg, audit_path=None, resume=False) -> MemoryService:
    """A service on ``build_runtime(cfg)``, its set-up edges granted unless resumed."""
    svc = MemoryService(build_runtime(cfg, audit_path, resume=resume))
    if not resume:
        for edge in plan_scenario(cfg).setup_edges:
            svc.rt.timeline.grant(edge, svc.rt.clock.tick())
    return svc


def resource_calls(rt: Runtime, episode_id: str) -> int:
    return sum(
        1
        for r in rt.audit
        if r.action is AuditAction.RESOURCE_INVOKE and r.detail.get("episode") == episode_id
    )


class StubServer:
    """Loopback HTTP backend answering every POST with ``reply(request)``.

    ``reply`` receives the decoded JSON request body. A returned document is
    sent as a 200 JSON reply; returned ``bytes`` are written to the socket as
    they are, in place of a whole HTTP response. Use as a context manager.
    """

    def __init__(self, reply) -> None:
        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                answer = reply(json.loads(self.rfile.read(length)))
                if isinstance(answer, bytes):
                    self.wfile.write(answer)
                    return
                body = json.dumps(answer).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/"
        # a short poll, so that shutdown on exit does not wait out the default 0.5 s
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)


def refused_url() -> str:
    """URL of a loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/"
