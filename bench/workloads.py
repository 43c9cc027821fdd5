"""The three workloads. Each runs whole rounds of fixed work, back to back,
closed loop with one operation outstanding, until the given number of
seconds has passed, then checks every output. A round starts from a fresh
set-up, so memory and per-round outputs do not depend on how fast the
program is, and rounds of one seed must repeat each other's outputs.

- ``episodes``: a round is one ``run_scenario``, the path of ``memfabric run``.
- ``recall-10k``: a round is 200 ``/memory/read`` and 20 ``/memory/write``
  requests against 10,000 preloaded fragments.
- ``ingest-churn``: a round is 1,500 ``/memory/write``,
  ``/permissions/snapshot`` and grant/revoke requests on an empty store.

Every operation is timed with ``perf_counter_ns`` around the public call,
including reading the whole response body. Module attributes are looked up
at call time (``harness.run_scenario``, ``verify.verify_files``), so the
traced run sees these calls too.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import shutil
import threading
import urllib.parse
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import memfabric.harness as harness
import memfabric.service as service
import memfabric.verify as verify
from memfabric import DeterministicEmbedder, PermissionAction, ScenarioConfig, agent, resource, user

import inputs
from oracle import oracle_read

# set-ups measured before the timed rounds, besides the one each round makes
EXTRA_SETUPS = {"episodes": 10, "recall-10k": 2, "ingest-churn": 6}
CHECK_EVERY = 10  # recall-10k: every tenth read is compared with the oracle
OP_CLASS = {
    "episode": "episode",
    "read": "read",
    "write": "write",
    "snapshot": "admin",
    "grant": "admin",
    "revoke": "admin",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    primary: str  # the operation class the gated latency metrics describe
    latencies_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    failed: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    setup_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    round_rates: list[float] = field(default_factory=list)  # operations per second, per round
    phases_s: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    counts: dict[str, tuple[float, str]] = field(default_factory=dict)  # name -> (value, unit)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    audit_bytes: int = 0

    def record(self, kind: str, ms: float, ok: bool, why: str = "") -> None:
        """A failed operation counts as missing every latency limit."""
        self.attempted[kind] += 1
        self.latencies_ms[OP_CLASS[kind]].append(ms if ok else math.inf)
        if not ok:
            self.failed[kind] += 1
            if self.failed[kind] <= 3:
                self.problems.append(f"{kind} failed: {why}")

    def add_round(self, ops: int, seconds: float) -> None:
        self.loop_s += seconds
        self.round_rates.append(ops / seconds)

    @property
    def rounds(self) -> int:
        return len(self.round_rates)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def ops(self) -> int:
        return sum(self.attempted.values())


class Digest:
    """SHA-256 digests of a run's outputs: replies, read ids, written ids."""

    def __init__(self) -> None:
        self.parts: dict = {}

    def add(self, part: str, data) -> None:
        if not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True).encode("utf-8")
        self.parts.setdefault(part, hashlib.sha256()).update(data)

    def hexdigests(self) -> dict[str, str]:
        return {name: h.hexdigest()[:16] for name, h in self.parts.items()}


def _elapsed_s(start_ns: int) -> float:
    return (perf_counter_ns() - start_ns) / 1e9


# --- episodes --------------------------------------------------------------------


def _episode_outputs(out_dir: Path) -> tuple[Digest, int, int]:
    """Digest a scenario's transcript, read ids and written ids; count its
    episodes and resource calls from the audit log."""
    digest = Digest()
    digest.add("transcript", (out_dir / "transcript.jsonl").read_bytes())
    episodes = resource_calls = 0
    with (out_dir / "audit.jsonl").open(encoding="utf-8") as fp:
        for line in fp:
            rec = json.loads(line)
            action = rec["action"]
            if action == "fragment_read":
                digest.add("reads", [rec["detail"]["user_tier"], rec["detail"]["cross_tier"]])
            elif action == "fragment_write":
                digest.add("writes", rec["subjects"])
            elif action == "episode_start":
                episodes += 1
            elif action == "resource_invoke":
                resource_calls += 1
    return digest, episodes, resource_calls


def run_episodes(seed: int, seconds: float, out: Path, tracer=None) -> Outcome:
    outcome = Outcome(primary="episode")
    cfg = ScenarioConfig.from_dict(inputs.episodes_config(seed))
    for _ in range(0 if tracer else EXTRA_SETUPS["episodes"]):
        start = perf_counter_ns()
        plan = harness.plan_scenario(cfg)
        rt = harness.build_runtime(cfg, audit_path=out / "setup" / "audit.jsonl")
        for edge in plan.setup_edges:
            rt.timeline.grant(edge, rt.clock.tick())
        outcome.setup_s.append(_elapsed_s(start))
        rt.audit.close()
    distinct_queries = len({item.query for item in harness.build_workload(cfg).items})

    # Scenarios run back to back until `seconds` have passed; each is whole,
    # with no warm-up discarded: store growth is the workload.
    artifacts = []
    loop_start = perf_counter_ns()
    while not artifacts or _elapsed_s(loop_start) < seconds:
        marks: list[tuple[int, int, str | None]] = []
        original = harness.run_episode

        def timed(*args, **kwargs):
            start = perf_counter_ns()
            episode = original(*args, **kwargs)
            marks.append((start, perf_counter_ns(), episode.failure))
            return episode

        harness.run_episode = timed
        enter = perf_counter_ns()
        try:
            artifacts.append(harness.run_scenario(cfg, out / f"scenario-{len(artifacts)}"))
        except Exception as exc:  # the scenario is lost; count it and stop
            outcome.record("episode", (perf_counter_ns() - enter) / 1e6, False, repr(exc))
            break
        finally:
            harness.run_episode = original
        leave = perf_counter_ns()
        outcome.add_round(len(marks), (leave - enter) / 1e9)
        outcome.setup_s.append((marks[0][0] - enter) / 1e9)
        outcome.phases_s["export_s"].append((leave - marks[-1][1]) / 1e9)
        for start, end, failure in marks:
            outcome.record("episode", (end - start) / 1e6, failure is None, str(failure))

    if not artifacts:
        return outcome
    first = artifacts[0]
    start = perf_counter_ns()
    violations = verify.verify_files(first.audit_path, first.timeline_path, first.store_path)
    outcome.phases_s["verify_s"].append(_elapsed_s(start))
    outcome.check(
        not violations,
        f"{len(violations)} verifier violations, first: {violations[0] if violations else ''}",
    )
    digest, episodes, resource_calls = _episode_outputs(first.out_dir)
    outcome.digests = digest.hexdigests()
    outcome.counts["resource_calls_per_query"] = (resource_calls / episodes, "ratio")
    # Exact-repeat sharing: each distinct query reaches its resource once.
    outcome.check(
        resource_calls == distinct_queries,
        f"{resource_calls} resource calls for {distinct_queries} distinct queries",
    )
    # Reruns of one seed are byte-identical, so the first scenario's
    # verification covers the others.
    expected = _file_digests(first)
    for art in artifacts:
        outcome.audit_bytes += art.audit_path.stat().st_size
        if art is not first:
            outcome.check(
                _file_digests(art) == expected,
                f"{art.out_dir.name}: artifacts differ from the first scenario of the same seed",
            )
            shutil.rmtree(art.out_dir)
    return outcome


def _file_digests(art) -> list[str]:
    paths = (art.audit_path, art.timeline_path, art.store_path, art.transcript_path)
    return [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]


# --- the HTTP service --------------------------------------------------------------


class Client:
    """One client, one request in flight. The server answers in HTTP/1.0 and
    closes after each reply, so every request opens a fresh connection."""

    def __init__(self, port: int, tracer=None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.tracer = tracer

    def _exchange(self, method: str, path: str, payload: bytes | None, identity: str):
        headers = {"X-Identity": identity}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def send(self, kind: str, method: str, path: str, body, identity: str):
        """Return ``(status, raw body, ms, error)``; never retries."""
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        start = perf_counter_ns()
        try:
            if self.tracer is None:
                status, raw = self._exchange(method, path, payload, identity)
            else:
                status, raw = self.tracer.op(
                    f"http.{OP_CLASS[kind]}", self._exchange, method, path, payload, identity
                )
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return None, b"", (perf_counter_ns() - start) / 1e6, repr(exc)
        return status, raw, (perf_counter_ns() - start) / 1e6, ""

    def close(self) -> None:
        self.conn.close()


class Server:
    """``make_server`` on 127.0.0.1, port 0, served from a thread of this process."""

    def __init__(self, runtime) -> None:
        self.httpd = service.make_server(service.MemoryService(runtime))
        self.port = self.httpd.server_port
        # shutdown() waits up to one poll interval; the default half second
        # would dominate the set-ups a run repeats
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=30)


def _edge(doc: dict):
    if "user" in doc:
        return (user(doc["user"]), agent(doc["agent"]))
    return (agent(doc["agent"]), resource(doc["resource"]))


def _open(config: dict, grants: inputs.Grants, audit_path: Path, preload=()):
    """Set up one service: build the runtime, grant every mirrored edge,
    insert the preload and start the server. Returns the runtime, the
    server, the grant events and the set-up time in seconds."""
    start = perf_counter_ns()
    rt = harness.build_runtime(ScenarioConfig.from_dict(config), audit_path=audit_path)
    events = []
    for doc in grants.edges():
        tick = rt.clock.tick()
        rt.timeline.apply(PermissionAction.GRANT, _edge(doc), tick)
        events.append((tick, "grant", _edge(doc)))
    for fragment in preload:
        rt.clock.tick()
        rt.store.insert(fragment)
    server = Server(rt)
    return rt, server, events, _elapsed_s(start)


def _close(rt, server: Server) -> None:
    server.close()
    rt.audit.close()


def _send(outcome: Outcome, client: Client, kind: str, method: str, path: str, body, identity: str):
    """One timed request; returns ``(raw reply, parsed reply or None on failure)``."""
    status, raw, ms, error = client.send(kind, method, path, body, identity)
    outcome.record(kind, ms, status == 200, error or f"HTTP {status} {raw[:200]!r}")
    return raw, json.loads(raw) if status == 200 else None


def _tiers(doc: dict) -> tuple[list[str], list[str]]:
    view = doc["view"]
    return (
        [h["id"] for h in view if h["tier"] == "private"],
        [h["id"] for h in view if h["tier"] == "shared"],
    )


def _check_reads(outcome: Outcome, fragments, events, retrieval, checks) -> None:
    """Compare sampled reads with the brute-force oracle."""
    embedder = DeterministicEmbedder(inputs.DIMENSION)
    start = perf_counter_ns()
    for body, t, tiers in checks:
        expected = oracle_read(
            fragments,
            events,
            user(body["user"]),
            agent(body["agent"]),
            t,
            embedder.embed(body["query"]),
            retrieval.k_user,
            retrieval.k_cross,
            retrieval.threshold,
        )
        outcome.check(tiers == expected, f"read {body} at t={t}: got {tiers}, oracle {expected}")
    outcome.phases_s["oracle_s"].append(_elapsed_s(start))
    outcome.counts["oracle_checks"] = (len(checks), "count")
    outcome.check(bool(checks), "no read reached the oracle check")


def _same_rounds(outcome: Outcome, digests: list[dict]) -> None:
    outcome.digests = digests[0]
    outcome.check(
        all(d == digests[0] for d in digests),
        f"{len(digests)} rounds of the same seed gave different outputs",
    )


def run_recall(seed: int, seconds: float, out: Path, tracer=None) -> Outcome:
    """Rounds of 200 reads and 20 writes, each on a freshly set-up 10k store,
    until ``seconds`` have passed. The first round's sampled reads are
    checked against the oracle; every later round must repeat its outputs."""
    outcome = Outcome(primary="read")
    inp = inputs.recall_inputs(seed)
    audit_path = out / "audit.jsonl"
    for _ in range(0 if tracer else EXTRA_SETUPS["recall-10k"]):
        rt, server, _, setup_s = _open(inp.config, inp.grants, audit_path, inp.preload)
        outcome.setup_s.append(setup_s)
        _close(rt, server)
    digests: list[dict] = []
    loop_start = perf_counter_ns()
    while not digests or _elapsed_s(loop_start) < seconds:
        rt, server, events, setup_s = _open(inp.config, inp.grants, audit_path, inp.preload)
        outcome.setup_s.append(setup_s)
        client = Client(server.port, tracer)
        digest, checks, written, reads = Digest(), [], [], 0
        audit_start = audit_path.stat().st_size
        ops_before, start = outcome.ops, perf_counter_ns()
        try:
            for req in inp.requests():
                kind = req["kind"]
                path = "/memory/read" if kind == "read" else "/memory/write"
                raw, doc = _send(outcome, client, kind, "POST", path, req["body"], req["identity"])
                if doc is None:
                    continue
                digest.add("transcript", raw)
                if kind == "read":
                    reads += 1
                    tiers = _tiers(doc)
                    digest.add("reads", tiers)
                    if reads % CHECK_EVERY == 0:
                        checks.append((req["body"], doc["t"], tiers))
                else:
                    ids = doc["fragment_ids"]
                    digest.add("writes", ids)
                    written.extend(ids)
                    outcome.check(len(ids) == 2, f"write stored {len(ids)} fragments, not 2")
        finally:
            outcome.add_round(outcome.ops - ops_before, _elapsed_s(start))
            client.close()
            _close(rt, server)
        outcome.audit_bytes += audit_path.stat().st_size - audit_start
        if not digests:
            fragments = list(inp.preload) + [rt.store.get(fid) for fid in written]
            _check_reads(outcome, fragments, events, rt.retrieval, checks)
        digests.append(digest.hexdigests())
    _same_rounds(outcome, digests)
    return outcome


def run_churn(seed: int, seconds: float, out: Path, tracer=None) -> Outcome:
    """Rounds of 1,500 requests, each on a freshly set-up empty store, until
    ``seconds`` have passed. The first round is verified offline; every
    later round must repeat its replies."""
    outcome = Outcome(primary="write")
    audit_path = out / "audit.jsonl"
    for _ in range(0 if tracer else EXTRA_SETUPS["ingest-churn"]):
        inp = inputs.churn_inputs(seed)
        rt, server, _, setup_s = _open(inp.config, inp.grants, audit_path)
        outcome.setup_s.append(setup_s)
        _close(rt, server)
    digests: list[dict] = []
    loop_start = perf_counter_ns()
    while not digests or _elapsed_s(loop_start) < seconds:
        inp = inputs.churn_inputs(seed)
        rt, server, _, setup_s = _open(inp.config, inp.grants, audit_path)
        outcome.setup_s.append(setup_s)
        client = Client(server.port, tracer)
        digest, tick, writes = Digest(), rt.clock.now, 0
        audit_start = audit_path.stat().st_size
        ops_before, start = outcome.ops, perf_counter_ns()
        try:
            for req in inp.requests:
                kind = req["kind"]
                if kind == "snapshot":
                    method, path, body = "GET", f"/permissions/snapshot?{req['query']}", None
                elif kind == "write":
                    method, path, body = "POST", "/memory/write", req["body"]
                else:
                    method, path, body = "POST", f"/permissions/{kind}", req["body"]
                raw, doc = _send(outcome, client, kind, method, path, body, req["identity"])
                if doc is None:
                    continue
                digest.add("transcript", raw)
                if kind == "snapshot":
                    ((field_name, name),) = urllib.parse.parse_qsl(req["query"])
                    if field_name == "user":
                        held, got = inp.grants.user_agents[name], doc["agents"]
                    else:
                        held, got = inp.grants.agent_resources[name], doc["resources"]
                    outcome.check(got == sorted(held), f"snapshot {req['query']}: {got}")
                    continue
                tick += 1
                outcome.check(doc["tick"] == tick, f"{kind} at tick {doc['tick']}, expected {tick}")
                tick = doc["tick"]
                if kind == "write":
                    writes += 1
                    digest.add("writes", doc["fragment_ids"])
                    outcome.check(len(doc["fragment_ids"]) == 2, "write did not store 2 fragments")
        finally:
            outcome.add_round(outcome.ops - ops_before, _elapsed_s(start))
            client.close()
            _close(rt, server)
        outcome.audit_bytes += audit_path.stat().st_size - audit_start
        outcome.check(len(rt.store) == 2 * writes, f"{len(rt.store)} fragments for {writes} writes")

        if not digests:
            # The service keeps its timeline and store in memory only; save
            # them through the public API so the round verifies offline like
            # a run. Later rounds must repeat this round's replies exactly.
            rt.timeline.save(out / "timeline.jsonl")
            rt.store.save(out / "store.jsonl")
            start = perf_counter_ns()
            violations = verify.verify_files(
                audit_path, out / "timeline.jsonl", out / "store.jsonl"
            )
            outcome.phases_s["verify_s"].append(_elapsed_s(start))
            outcome.check(
                not violations,
                f"{len(violations)} verifier violations, first: "
                f"{violations[0] if violations else ''}",
            )
        digests.append(digest.hexdigests())
    _same_rounds(outcome, digests)
    return outcome


WORKLOADS = {"episodes": run_episodes, "recall-10k": run_recall, "ingest-churn": run_churn}
