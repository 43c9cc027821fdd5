"""HTTP+JSON facade over a runtime, for external agent programs.

Endpoints (all bodies and replies are ``application/json``; every success
reply carries the server's current logical tick):

- ``POST /permissions/grant``  body ``{"edge": {...}}``      admin only
- ``POST /permissions/revoke`` body ``{"edge": {...}}``      admin only
- ``GET  /permissions/snapshot?user=U&t=T`` or ``?agent=A&t=T``
- ``POST /memory/read``   body ``{"user", "agent", "query"}``
- ``POST /memory/write``  body ``{"agent", "subquery", "response", "resources"}``
- ``POST /episodes``      body ``{"user", "query", "bin"?}``
- ``GET  /audit?since_seq=N``  (line-delimited JSON stream) admin only

Callers authenticate with the ``X-Identity`` header; authorization is the
substrate's job. Provenance is always derived server-side - write bodies
name the agent and resources used, both validated against the timeline, and
the writing user is the authenticated caller. Ticks are assigned by the
server's clock, never accepted from clients, so backdated writes cannot
defeat retrospective checks. Requests run one at a time. A grant, revoke
or write takes its tick only once it is stored, so every tick is held by a
record, the rule a resumed runtime rebuilds its clock by; an episode takes
its tick first, as its ``episode_start`` record holds it. The runtime's
timeline and store live in memory only: a restarted ``memfabric serve``
builds a fresh runtime, and a runtime that continues a finished run's
artifacts comes from ``build_runtime(cfg, audit_path, resume=True)``.

The server speaks HTTP/1.1 with persistent connections: a client may send
its requests one after another on one connection, which the server closes
after :data:`IDLE_TIMEOUT_S` seconds without a request. HTTP/1.0 requests
and requests carrying ``Connection: close`` are closed after their reply.
A request body is framed by one decimal ``Content-Length`` header only; a
request whose body cannot be framed that way (a malformed, negative or
repeated ``Content-Length``, or any ``Transfer-Encoding``) is answered 400
and its connection closed, because the bytes after it cannot be told apart
from a next request.

Errors: 400 validation (``bad_request`` also for an empty principal name or
a malformed edge), 403 permission (``forbidden`` also for an agent asking
for a resource it is not granted), 404 unknown id, 409 conflicts, 503
remote backend unavailable - body ``{"error": code, "message": ...}``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import wire
from .access import PermissionAction, edge_from_doc
from .errors import (
    DuplicateEdge,
    EdgeNotPresent,
    MemFabricError,
    RemoteUnavailable,
    ResourceNotPermitted,
    UnknownFragment,
    UnknownPrincipal,
)
from .orchestration import Runtime, audited_retrieve, run_episode
from .policy import InteractionTrace, encode_and_write
from .principals import PrincipalKind, agent, resource, user


# seconds an idle persistent connection is kept open
IDLE_TIMEOUT_S = 30.0


class ApiError(Exception):
    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def _int_param(params: dict[str, list[str]], name: str, default: int) -> int:
    if name not in params:
        return default
    try:
        return int(params[name][0])
    except ValueError:
        raise ApiError(400, "bad_request", f"{name} must be an integer") from None


class MemoryService:
    """Request handlers bound to one runtime. :meth:`handle` runs one
    request at a time; each handler parses its body, authorizes the caller
    and leaves every other check to the library."""

    def __init__(self, runtime: Runtime, admin_identity: str = "admin") -> None:
        self.rt = runtime
        self.admin = admin_identity
        self._lock = threading.Lock()

    # -- dispatch

    def handle(
        self, method: str, path: str, params: dict[str, list[str]], identity: str | None, body: dict
    ) -> tuple[int, object]:
        """Status and reply of one request: a JSON-able object, or the text
        of the ``/audit`` stream."""
        try:
            if identity is None:
                raise ApiError(400, "bad_request", "missing X-Identity header")
            route = (method, path)
            with self._lock:
                if route == ("POST", "/permissions/grant"):
                    return 200, self._permission(identity, body, PermissionAction.GRANT)
                if route == ("POST", "/permissions/revoke"):
                    return 200, self._permission(identity, body, PermissionAction.REVOKE)
                if route == ("GET", "/permissions/snapshot"):
                    return 200, self._snapshot(params)
                if route == ("POST", "/memory/read"):
                    return 200, self._memory_read(identity, body)
                if route == ("POST", "/memory/write"):
                    return 200, self._memory_write(identity, body)
                if route == ("POST", "/episodes"):
                    return 200, self._episode(identity, body)
                if route == ("GET", "/audit"):
                    self._require_admin(identity)
                    return 200, self.handle_audit_stream(params)
            raise ApiError(404, "not_found", f"no route {method} {path}")
        except ApiError as exc:
            return exc.status, {"error": exc.code, "message": exc.message}
        except DuplicateEdge as exc:
            return 409, {"error": "duplicate_edge", "message": str(exc)}
        except EdgeNotPresent as exc:
            return 409, {"error": "edge_not_present", "message": str(exc)}
        except UnknownFragment as exc:
            return 404, {"error": "unknown_fragment", "message": str(exc)}
        except UnknownPrincipal as exc:
            return 400, {"error": "unknown_principal", "message": str(exc)}
        except ResourceNotPermitted as exc:
            return 403, {"error": "forbidden", "message": str(exc)}
        except RemoteUnavailable as exc:
            return 503, {"error": "remote_unavailable", "message": str(exc)}
        except MemFabricError as exc:
            return 400, {"error": type(exc).__name__, "message": str(exc)}
        except ValueError as exc:  # an empty principal name or a malformed edge
            return 400, {"error": "bad_request", "message": str(exc)}

    def handle_audit_stream(self, params: dict[str, list[str]]) -> str:
        """Audit records from ``since_seq`` on, one JSON object per line.
        Raises :class:`ApiError` (400) when ``since_seq`` is not an integer."""
        since = _int_param(params, "since_seq", 0)
        return "".join(
            wire.encode(rec.to_dict()) for rec in self.rt.audit.records if rec.seq >= since
        )

    # -- handlers; each runs under the service lock

    def _require_admin(self, identity: str) -> None:
        if identity != self.admin:
            raise ApiError(403, "forbidden", "admin identity required")

    def _require_user(self, identity: str, name: str) -> None:
        if identity != name and identity != self.admin:
            raise ApiError(403, "forbidden", f"caller {identity!r} cannot act as {name!r}")

    def _permission(self, identity: str, body: dict, action: PermissionAction) -> dict:
        self._require_admin(identity)
        t = self.rt.clock.now + 1
        self.rt.timeline.apply(action, edge_from_doc(body.get("edge")), t)
        self.rt.clock.tick()  # only once the event is stored
        return {"tick": t, "applied": action.value}

    def _snapshot(self, params: dict[str, list[str]]) -> dict:
        t = _int_param(params, "t", self.rt.clock.now)
        if "user" in params:
            u = user(params["user"][0])
            names = sorted(a.name for a in self.rt.timeline.agents_of(u, t))
            return {"tick": self.rt.clock.now, "t": t, "user": u.name, "agents": names}
        if "agent" in params:
            a = agent(params["agent"][0])
            names = sorted(r.name for r in self.rt.timeline.resources_of(a, t))
            return {"tick": self.rt.clock.now, "t": t, "agent": a.name, "resources": names}
        raise ApiError(400, "bad_request", "snapshot needs ?user= or ?agent=")

    def _memory_read(self, identity: str, body: dict) -> dict:
        try:
            u = user(str(body["user"]))
            a = agent(str(body["agent"]))
            query = str(body["query"])
        except KeyError as exc:
            raise ApiError(400, "bad_request", f"missing field {exc}") from exc
        self._require_user(identity, u.name)
        t = self.rt.clock.now
        if not self.rt.timeline.edge_present((u, a), t):
            raise ApiError(403, "forbidden", f"{u.name} cannot invoke {a.name} at t={t}")
        view = audited_retrieve(self.rt, u, a, t, query)
        return {
            "tick": t,
            "t": t,
            "view": [
                {
                    "id": h.fragment_id,
                    "key": h.key,
                    "value": h.value,
                    "similarity": h.similarity,
                    "tier": h.tier.value,
                }
                for h in view
            ],
        }

    def _memory_write(self, identity: str, body: dict) -> dict:
        try:
            a = agent(str(body["agent"]))
            subquery = str(body["subquery"])
            response = str(body["response"])
        except KeyError as exc:
            raise ApiError(400, "bad_request", f"missing field {exc}") from exc
        if "user" in body and str(body["user"]) != identity and identity != self.admin:
            raise ApiError(403, "forbidden", "trace user must be the caller")
        u = user(str(body.get("user", identity)))
        t = self.rt.clock.now + 1
        if not self.rt.timeline.edge_present((u, a), t):
            raise ApiError(403, "forbidden", f"{u.name} cannot invoke {a.name} at t={t}")
        trace = InteractionTrace(
            user=u,
            agent=a,
            timestamp=t,
            subquery=subquery,
            response=response,
            resources_invoked=tuple(resource(str(r)) for r in body.get("resources", ())),
        )
        ids = encode_and_write(
            trace,
            self.rt.policies,
            self.rt.store,
            self.rt.timeline,
            self.rt.embedder,
            id_factory=self.rt.id_factory,
            force_private=self.rt.force_private,
        )
        self.rt.clock.tick()  # only once the fragments are stored
        return {"tick": t, "fragment_ids": ids}

    def _episode(self, identity: str, body: dict) -> dict:
        try:
            u = user(str(body["user"]))
            query = str(body["query"])
        except KeyError as exc:
            raise ApiError(400, "bad_request", f"missing field {exc}") from exc
        self._require_user(identity, u.name)
        # an unknown user must not use up a tick: the episode_start record
        # that holds it is never written
        self.rt.directory.require(u, PrincipalKind.USER)
        t = self.rt.clock.tick()
        episode = run_episode(self.rt, u, query, t, bin_label=str(body.get("bin", "all")))
        return {
            "tick": t,
            "episode_id": episode.episode_id,
            "final_answer": episode.final_answer,
            "failure": episode.failure,
            "rounds": len(episode.steps),
        }


class _Handler(BaseHTTPRequestHandler):
    """Request handler of every server; the service is ``self.server.service``.

    One module-level class, so a stopped server holds no per-server class
    that keeps its runtime alive until a full garbage collection.
    """

    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # buffered, so handle_one_request's flush sends status line, headers
    # and body in one write
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # keep test output quiet
        pass

    def _reply(self, status: int, payload: object) -> None:
        if isinstance(payload, str):
            body, content_type = payload.encode("utf-8"), "application/x-ndjson"
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        """The request body, or None after a 400 for a body that cannot be
        framed by a single decimal Content-Length."""
        lengths = self.headers.get_all("Content-Length", ["0"])
        if (
            len(lengths) != 1
            or not (lengths[0].isascii() and lengths[0].isdigit())
            or "Transfer-Encoding" in self.headers
        ):
            # the rest of the stream cannot be split into requests
            self.close_connection = True
            self._reply(
                400, {"error": "bad_request", "message": "body needs one Content-Length"}
            )
            return None
        return self.rfile.read(int(lengths[0]))

    def _dispatch(self, method: str, body: dict) -> None:
        parsed = urlparse(self.path)
        status, payload = self.server.service.handle(
            method, parsed.path, parse_qs(parsed.query), self.headers.get("X-Identity"), body
        )
        self._reply(status, payload)

    def do_GET(self) -> None:
        # a GET body is read only to find where the next request starts
        if self._read_body() is not None:
            self._dispatch("GET", {})

    def do_POST(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        try:
            body = json.loads(raw.decode("utf-8")) if raw.strip() else {}
            if not isinstance(body, dict):
                raise ValueError("body must be an object")
        except ValueError:
            self._reply(400, {"error": "bad_request", "message": "malformed JSON body"})
            return
        self._dispatch("POST", body)


def make_server(service: MemoryService, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Build (but do not start) an HTTP server; ``port=0`` picks a free one."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service
    return server


def serve_forever(service: MemoryService, host: str = "127.0.0.1", port: int = 8080) -> None:
    server = make_server(service, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
