"""HTTP+JSON facade over a runtime, for external agent programs.

Endpoints (all bodies and replies are ``application/json``; every success
reply carries the server's current logical tick):

- ``POST /permissions/grant``  body ``{"edge": {...}}``      admin only
- ``POST /permissions/revoke`` body ``{"edge": {...}}``      admin only
- ``GET  /permissions/snapshot?user=U&t=T`` or ``?agent=A&t=T``
- ``POST /memory/read``   body ``{"user", "agent", "query"}``
- ``POST /memory/write``  body ``{"agent", "subquery", "response", "resources"}``
- ``POST /episodes``      body ``{"user", "query", "bin"?}``
- ``GET  /audit?since_seq=N``  (the audit file's own lines from seq N on,
  fragment content and read queries included) admin only

Callers authenticate with the ``X-Identity`` header; authorization is the
substrate's job. Provenance is always derived server-side - write bodies
name the agent and resources used, both validated against the timeline, and
the writing user is the authenticated caller. Ticks are assigned by the
server's clock, never accepted from clients, so backdated writes cannot
defeat retrospective checks. Requests run one at a time. A grant, revoke
or write takes its tick only once it is stored, so every tick is held by a
record, the rule a resumed runtime rebuilds its clock by; an episode takes
its tick first, as its ``episode_start`` record holds it. The runtime's
timeline and store live in memory and in its audit log, from which
``build_runtime(cfg, audit_path, resume=True)`` rebuilds them: a restarted
``memfabric serve --audit F`` continues where it stopped, and a runtime can
continue a finished run's log the same way.

The server speaks a subset of HTTP/1.1 with persistent connections: a
client may send its requests one after another on one connection, which
the server closes after :data:`IDLE_TIMEOUT_S` seconds without a request.
It takes GET and POST requests of HTTP/1.0 or 1.1, closes the connection
after replying to an HTTP/1.0 request or one carrying ``Connection:
close``, and answers ``Expect: 100-continue`` with an interim 100. A body
is framed by one decimal ``Content-Length`` only. A request that cannot be
parsed or framed is answered with a JSON error and its connection closed,
as the bytes after it cannot be told apart from a next request: 400 for a
malformed request line, a version other than 1.0 or 1.1, a header line with
no colon, whitespace before the colon or leading whitespace (a folded line),
a repeated ``Content-Length`` or ``X-Identity``, a ``Content-Length`` that
is not decimal, or any ``Transfer-Encoding``; 414 for a request line over
65,536 bytes; 431 for more than 100 header lines or one over 65,536 bytes;
501 for any other method.

Errors: 400 validation (``bad_request`` also for an empty principal name, a
body field that is missing or not a string, or a malformed edge), 403
permission (``forbidden`` also for an agent asking for a resource it is not
granted), 404 unknown id, 409 conflicts, 503 remote backend unavailable -
body ``{"error": code, "message": ...}``. An episode is the exception: a
backend failing ends it, not the request, so ``/episodes`` answers 200 with
``"failure": "remote_unavailable"``; any other error ends it in the log too.
"""

from __future__ import annotations

import itertools
import json
import re
import socketserver
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.server import ThreadingHTTPServer
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
# longest request or header line and most header lines: http.server's limits
_MAXLINE, _MAXHEADERS = 65536, 100
# a header line is a token, a colon and a value with no bare CR; no colon,
# whitespace before the colon or a folded line (leading whitespace) fails
_HEADER = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*([^\r]*?)[ \t]*\r?\n")


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


def _text(body: dict, name: str, default: str | None = None) -> str:
    """Field ``name`` of a request body, ``default`` if absent; 400 unless it is a string."""
    value = body.get(name, default)
    if not isinstance(value, str):
        reason = f"{name!r} must be a string" if name in body else f"missing field {name!r}"
        raise ApiError(400, "bad_request", reason)
    return value


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
            with self._lock, self.rt.audit.operation():  # one request at a time, one flush
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
        """The audit log's own lines from ``since_seq`` on, one JSON object per
        line; line i holds seq i, as seq has no gaps. Raises :class:`ApiError`
        (400) when ``since_seq`` is not an integer."""
        since = _int_param(params, "since_seq", 0)
        return "".join(itertools.islice(self.rt.audit.lines(), max(since, 0), None))

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
        u, a, query = user(_text(body, "user")), agent(_text(body, "agent")), _text(body, "query")
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
        a = agent(_text(body, "agent"))
        subquery, response = _text(body, "subquery"), _text(body, "response")
        names = body.get("resources", [])
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise ApiError(400, "bad_request", "resources must be a list of strings")
        name = _text(body, "user", identity)
        if name != identity and identity != self.admin:
            raise ApiError(403, "forbidden", "trace user must be the caller")
        u = user(name)
        t = self.rt.clock.now + 1
        if not self.rt.timeline.edge_present((u, a), t):
            raise ApiError(403, "forbidden", f"{u.name} cannot invoke {a.name} at t={t}")
        trace = InteractionTrace(
            user=u,
            agent=a,
            timestamp=t,
            subquery=subquery,
            response=response,
            resources_invoked=tuple(map(resource, names)),
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
        u, query, bin_label = user(_text(body, "user")), _text(body, "query"), _text(body, "bin", "all")
        self._require_user(identity, u.name)
        # an unknown user must not use up a tick: the episode_start record
        # that holds it is never written
        self.rt.directory.require(u, PrincipalKind.USER)
        t = self.rt.clock.tick()
        episode = run_episode(self.rt, u, query, t, bin_label=bin_label)
        return {
            "tick": t,
            "episode_id": episode.episode_id,
            "final_answer": episode.final_answer,
            "failure": episode.failure,
            "rounds": len(episode.steps),
        }


class _Handler(socketserver.StreamRequestHandler):
    """HTTP/1.1 front end of every server; the service is ``self.server.service``.

    It parses each request itself and sends each reply in one write. One
    module-level class, so a stopped server holds no per-server class that
    keeps its runtime alive until a full garbage collection.
    """

    timeout = IDLE_TIMEOUT_S
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._answer_one():
                pass
        except (TimeoutError, ConnectionError):
            pass  # idle past the timeout, or the client went away

    def _answer_one(self) -> bool:
        """Read and answer one request; False once the connection is to close."""
        line = self.rfile.readline(_MAXLINE + 1)
        if not line:
            return False
        try:
            method, target, headers, http11 = self._read_head(line.decode("latin-1"))
        except ApiError as exc:  # the rest of the stream cannot be split into requests
            return self._reply(exc.status, {"error": exc.code, "message": exc.message}, True)
        connection = headers.get("connection", "").lower().split(",")
        close = not http11 or "close" in map(str.strip, connection)
        if http11 and headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        # a GET body is read only to find where the next request starts
        raw = self.rfile.read(int(headers.get("content-length", 0)))
        try:
            body = json.loads(raw.decode("utf-8")) if method == "POST" and raw.strip() else {}
            if not isinstance(body, dict):
                raise ValueError("body must be an object")
        except ValueError:
            return self._reply(400, {"error": "bad_request", "message": "malformed JSON body"}, close)
        # as in http.server, a target starting "//" names a path, not a host
        parsed = urlparse("/" + target.lstrip("/") if target.startswith("//") else target)
        status, payload = self.server.service.handle(
            method, parsed.path, parse_qs(parsed.query), headers.get("x-identity"), body
        )
        return self._reply(status, payload, close)

    def _read_head(self, line: str) -> tuple[str, str, dict[str, str], bool]:
        """Method, target, headers by lowercase name, and whether the request
        is HTTP/1.1; raises :class:`ApiError` for one that cannot be parsed."""
        if len(line) > _MAXLINE:
            raise ApiError(414, "uri_too_long", "request line too long")
        words = line.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise ApiError(400, "bad_request", "malformed request line")
        headers: dict[str, str] = {}
        for _ in range(_MAXHEADERS + 1):
            field = self.rfile.readline(_MAXLINE + 1).decode("latin-1")
            if field in ("\r\n", "\n", ""):
                break
            if len(field) > _MAXLINE:
                raise ApiError(431, "header_too_large", "header line too long")
            if (match := _HEADER.fullmatch(field)) is None:
                raise ApiError(400, "bad_request", "malformed header line")
            name, value = match[1].lower(), match[2]
            if name in headers and name in ("content-length", "x-identity"):
                raise ApiError(400, "bad_request", f"repeated {name} header")
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        else:
            raise ApiError(431, "header_too_large", f"more than {_MAXHEADERS} header lines")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()) or "transfer-encoding" in headers:
            raise ApiError(400, "bad_request", "body needs one Content-Length")
        if words[0] not in ("GET", "POST"):
            raise ApiError(501, "not_implemented", f"method {words[0]} not supported")
        return words[0], words[1], headers, words[2] == "HTTP/1.1"

    def _reply(self, status: int, payload: object, close: bool) -> bool:
        """Send one reply in one write; returns whether the connection stays open."""
        if isinstance(payload, str):
            body, content_type = payload.encode("utf-8"), "application/x-ndjson"
        else:
            body, content_type = wire.dumps(payload).encode("utf-8"), "application/json"
        connection = "Connection: close\r\n" if close else ""
        self.wfile.write(
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nDate: {_http_date(int(time.time()))}"
            f"\r\nContent-Type: {content_type}\r\nContent-Length: {len(body)}\r\n{connection}\r\n"
            .encode("ascii") + body
        )
        return not close


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` of every reply sent within ``second``, formatted once."""
    return formatdate(second, usegmt=True)


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
