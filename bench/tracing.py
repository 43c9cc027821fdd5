"""Span recording around memfabric's public functions, from outside the package.

The traced run wraps each public function at every name it is looked up by:
class methods on their class, module functions in the defining module and
in every module that imported them by name. Nothing under ``src/`` changes.

A span is ``(id, name, start_ns, end_ns, parent_id, op_id)``. Operations
(an episode, an HTTP round trip, a verify pass, a whole scenario) are spans
too; every span records the operation it ran under. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import memfabric.access
import memfabric.audit
import memfabric.harness
import memfabric.orchestration
import memfabric.policy
import memfabric.retrieval
import memfabric.service
import memfabric.store
import memfabric.verify
from memfabric.orchestration import EXACT_MATCH_SIMILARITY

SERVICE_ROUTES = {
    "/memory/read": "service.read",
    "/memory/write": "service.write",
    "/permissions/grant": "service.admin",
    "/permissions/revoke": "service.admin",
    "/permissions/snapshot": "service.admin",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        self.notes: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None  # set by the client thread, read by server threads
        self._patched: list[tuple[object, str, object]] = []

    # -- recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, fn, args, kwargs, is_op: bool):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._op
        outer_op = self._op
        op = sid if is_op else outer_op
        if is_op:
            self._op = sid
        stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            if is_op:
                self._op = outer_op
            self.spans.append((sid, name, start, end, parent, op))

    def op(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a new operation span (the client side of one request)."""
        return self._run(name, fn, args, kwargs, is_op=True)

    def wrap(self, name, fn, note=None, is_op: bool = False):
        """Return ``fn`` recording a span per call. ``name`` may be a function
        of the call's arguments; ``note(args, result)`` adds a per-call
        measurement under the span's name."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            result = tracer._run(label, fn, args, kwargs, is_op)
            if note is not None:
                tracer.notes[label].append(note(args, result))
            return result

        return traced

    # -- installation

    def patch(self, owner, attr: str, name, note=None, is_op: bool = False) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note, is_op))

    def install(self) -> None:
        """Wrap every public layer function the workloads reach."""
        access, store, retrieval = memfabric.access, memfabric.store, memfabric.retrieval
        policy, orch, service = memfabric.policy, memfabric.orchestration, memfabric.service
        harness, audit, verify = memfabric.harness, memfabric.audit, memfabric.verify

        for attr in ("agents_of", "resources_of", "edge_present", "apply", "save"):
            layer = "harness.export.timeline" if attr == "save" else f"access.{attr}"
            self.patch(access.AccessTimeline, attr, layer)

        self.patch(
            store.MemoryStore,
            "admissible",
            "store.admissible",
            note=lambda args, result: (len(args[0]), len(result)),
        )
        self.patch(store.MemoryStore, "insert", "store.insert")
        self.patch(store.MemoryStore, "fragments", "store.fragments")
        self.patch(store.MemoryStore, "save", "harness.export.store")

        self.patch(
            retrieval.DeterministicEmbedder,
            "embed",
            "retrieval.embed",
            note=lambda args, result: len(args[1]),
        )

        def hits(args, result):
            user_tier, cross_tier = result
            exact = any(h.similarity >= EXACT_MATCH_SIMILARITY for h in user_tier + cross_tier)
            return len(user_tier) + len(cross_tier), exact

        for module in (retrieval, orch):
            self.patch(module, "retrieve", "retrieval.retrieve", note=hits)

        self.patch(policy.PolicyTable, "resolve", "policy.resolve")
        for cls in (policy.IdentityTransform, policy.Redactor):
            self.patch(cls, "apply", "policy.transform")
        for module in (policy, orch):
            self.patch(module, "apply_read", "policy.apply_read")
        for module in (policy, orch, service):
            self.patch(module, "encode_and_write", "policy.encode_and_write")

        def episode_note(args, result):
            invoked = [bool(trace.resources_invoked) for _, trace in result.steps]
            return len(result.steps), invoked.count(False), len(invoked)

        for module in (orch, service):
            self.patch(module, "run_episode", "orchestration.run_episode", note=episode_note)
        # an episode of a scenario run is an operation of its own
        self.patch(
            harness, "run_episode", "orchestration.run_episode", note=episode_note, is_op=True
        )
        for module in (orch, service):
            self.patch(module, "audited_retrieve", "orchestration.audited_retrieve")
        self.patch(orch.Resource, "call", "orchestration.resource_call")

        self.patch(audit.AuditLog, "append", "audit.append")

        self.patch(verify, "verify_run", "verify.verify_run")
        self.patch(verify, "verify_files", "verify.verify_files", is_op=True)

        self.patch(harness, "build_runtime", "harness.build_runtime")
        self.patch(harness, "plan_scenario", "harness.plan_scenario")
        self.patch(harness, "run_scenario", "harness.run_scenario", is_op=True)

        self.patch(
            service.MemoryService,
            "handle",
            lambda args: SERVICE_ROUTES.get(args[2], "service.other"),
            note=lambda args, result: result[0],
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        with path.open("w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


# --- per-layer metrics ----------------------------------------------------------


def _p50(values) -> float:
    """Lower median; NaN when the span never fired."""
    ordered = sorted(values)
    return float(ordered[(len(ordered) - 1) // 2]) if ordered else math.nan


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanIndex:
    """Durations and self times of a finished run's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.by_id = {s[0]: s for s in tracer.spans}
        covered: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent, _ in tracer.spans:
            if parent is not None:
                covered[parent] += end - start
        self.self_ns = {
            sid: (end - start) - covered.get(sid, 0)
            for sid, _, start, end, _, _ in tracer.spans
        }
        self.named: dict[str, list[tuple]] = defaultdict(list)
        for span in tracer.spans:
            self.named[span[1]].append(span)

    def calls(self, name: str) -> int:
        return len(self.named.get(name, ()))

    def us(self, name: str) -> list[float]:
        return [(end - start) / 1e3 for _, _, start, end, _, _ in self.named.get(name, ())]

    def self_us(self, name: str) -> list[float]:
        return [self.self_ns[s[0]] / 1e3 for s in self.named.get(name, ())]

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_ns[s[0]] for s in self.tracer.spans if s[1].startswith(prefix)) / 1e6

    def parent_name(self, span) -> str | None:
        parent = self.by_id.get(span[4])
        return parent[1] if parent else None

    def shares(self, op_name: str) -> tuple[int, float, dict[str, float]]:
        """Self time per layer as a share of the total time of ``op_name`` ops."""
        op_spans = [s for s in self.named.get(op_name, ()) if s[5] == s[0]]
        ops = {s[0] for s in op_spans}
        total_ns = sum(s[3] - s[2] for s in op_spans)
        per_layer: dict[str, int] = defaultdict(int)
        for s in self.tracer.spans:
            if s[5] in ops:
                per_layer[s[1].split(".", 1)[0]] += self.self_ns[s[0]]
        return len(ops), total_ns / 1e6, {
            layer: _ratio(ns, total_ns) for layer, ns in sorted(per_layer.items())
        }


def layer_metrics(
    index: SpanIndex, rounds: int, loop_ops: int, audit_bytes: int
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced run as ``name -> (value, unit)``.

    ``rounds`` is the number of whole rounds the traced run made,
    ``loop_ops`` the number of timed operations in them and ``audit_bytes``
    the audit log bytes those operations appended. A layer's ``self_ms`` is
    its self time per round.
    """
    notes = index.tracer.notes
    m: dict[str, tuple[float, str]] = {}
    loop_op_ids = {
        s[0]
        for name in ("orchestration.run_episode", "http.read", "http.write", "http.admin")
        for s in index.named.get(name, ())
        if s[5] == s[0]
    }

    def per_op(metric: str, span_name: str) -> None:
        """Calls made on behalf of the timed operations, per operation."""
        calls = sum(1 for s in index.named.get(span_name, ()) if s[5] in loop_op_ids)
        m[metric] = (_ratio(calls, loop_ops), "1/op")

    for fn in ("agents_of", "resources_of"):
        per_op(f"access.{fn}.calls", f"access.{fn}")
        m[f"access.{fn}.us_p50"] = (_p50(index.us(f"access.{fn}")), "us")
    for fn in ("edge_present", "apply"):
        m[f"access.{fn}.us_p50"] = (_p50(index.us(f"access.{fn}")), "us")

    examined = [e for e, _ in notes.get("store.admissible", ())]
    admitted = [a for _, a in notes.get("store.admissible", ())]
    reads = index.calls("retrieval.retrieve")
    per_op("store.admissible.calls", "store.admissible")
    m["store.admissible.us_p50"] = (_p50(index.us("store.admissible")), "us")
    m["store.admissible.examined_per_call"] = (_mean(examined), "count")
    m["store.admissible.admit_ratio"] = (_ratio(sum(admitted), sum(examined)), "ratio")
    per_op("store.insert.calls", "store.insert")
    m["store.insert.us_p50"] = (_p50(index.us("store.insert")), "us")
    read_walks = sum(
        1
        for s in index.named.get("store.fragments", ())
        if index.parent_name(s) in ("retrieval.retrieve", "store.admissible")
    )
    m["store.fragments.walks_per_read"] = (_ratio(read_walks, reads), "ratio")

    per_op("retrieval.embed.calls", "retrieval.embed")
    m["retrieval.embed.us_p50"] = (_p50(index.us("retrieval.embed")), "us")
    m["retrieval.embed.chars_per_call"] = (_mean(notes.get("retrieval.embed", ())), "count")
    per_op("retrieval.retrieve.calls", "retrieval.retrieve")
    m["retrieval.retrieve.us_p50"] = (_p50(index.us("retrieval.retrieve")), "us")
    m["retrieval.retrieve.self_us_p50"] = (_p50(index.self_us("retrieval.retrieve")), "us")
    hits = notes.get("retrieval.retrieve", ())
    m["retrieval.hits_per_read"] = (_mean(h for h, _ in hits), "count")
    m["retrieval.exact_hit_ratio"] = (_ratio(sum(1 for _, e in hits if e), len(hits)), "ratio")

    per_op("policy.resolve.calls", "policy.resolve")
    m["policy.resolve.us_p50"] = (_p50(index.us("policy.resolve")), "us")
    m["policy.apply_read.us_p50"] = (_p50(index.us("policy.apply_read")), "us")
    m["policy.encode_and_write.self_us_p50"] = (
        _p50(index.self_us("policy.encode_and_write")),
        "us",
    )
    per_op("policy.transform.calls", "policy.transform")

    episodes = notes.get("orchestration.run_episode", ())
    m["orchestration.run_episode.self_us_p50"] = (
        _p50(index.self_us("orchestration.run_episode")),
        "us",
    )
    m["orchestration.rounds_per_episode"] = (_mean(r for r, _, _ in episodes), "count")
    m["orchestration.memory_answer_ratio"] = (
        _ratio(sum(mem for _, mem, _ in episodes), sum(n for _, _, n in episodes)),
        "ratio",
    )
    per_op("orchestration.resource_calls", "orchestration.resource_call")

    per_op("audit.records_per_op", "audit.append")
    m["audit.append.us_p50"] = (_p50(index.us("audit.append")), "us")
    m["audit.bytes_per_op"] = (_ratio(audit_bytes, loop_ops), "B")

    verify_ms = [v / 1e3 for v in index.us("verify.verify_files")]
    run_ms = [v / 1e3 for v in index.us("verify.verify_run")]
    m["verify.load_ms"] = (_p50(a - b for a, b in zip(verify_ms, run_ms)), "ms")
    m["verify.run_ms"] = (_p50(run_ms), "ms")

    m["harness.build_runtime_ms"] = (_p50(index.us("harness.build_runtime")) / 1e3, "ms")
    m["harness.plan_ms"] = (_p50(index.us("harness.plan_scenario")) / 1e3, "ms")
    store_ms, timeline_ms, reports_ms = [], [], []
    for scenario in index.named.get("harness.run_scenario", ()):
        sid = scenario[0]
        last_episode = max(
            (s[3] for s in index.named.get("orchestration.run_episode", ()) if s[4] == sid),
            default=scenario[2],
        )
        saves = {
            name: sum(s[3] - s[2] for s in index.named.get(name, ()) if s[4] == sid) / 1e6
            for name in ("harness.export.store", "harness.export.timeline")
        }
        store_ms.append(saves["harness.export.store"])
        timeline_ms.append(saves["harness.export.timeline"])
        reports_ms.append((scenario[3] - last_episode) / 1e6 - sum(saves.values()))
    m["harness.export.store_ms"] = (_p50(store_ms), "ms")
    m["harness.export.timeline_ms"] = (_p50(timeline_ms), "ms")
    m["harness.export.reports_ms"] = (_p50(reports_ms), "ms")

    for route in ("read", "write", "admin"):
        m[f"service.{route}.handle_us_p50"] = (_p50(index.us(f"service.{route}")), "us")
    m["service.http_overhead_us_p50"] = (
        _p50(
            index.self_ns[s[0]] / 1e3
            for name in ("http.read", "http.write", "http.admin")
            for s in index.named.get(name, ())
        ),
        "us",
    )
    m["service.non2xx"] = (
        sum(
            1
            for name in ("service.read", "service.write", "service.admin", "service.other")
            for status in notes.get(name, ())
            if not 200 <= status < 300
        ),
        "count",
    )

    for layer in ("access", "store", "retrieval", "policy", "audit"):
        m[f"{layer}.self_ms"] = (index.layer_self_ms(layer) / rounds, "ms")
    return m
