"""memfabric benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload episodes --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs each workload in a fresh process, one after another.
``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` measures the workload untraced for half the time and traced
for the other half, and reports per-layer metrics and the tracing overhead;
the spans are written to ``.bench_out/<workload>/spans.jsonl``.

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every correctness check passed and no operation failed.

The JSON result carries the metrics ``BENCHMARK.json`` lists. Those are
measured on every workload: the end-to-end ones are never zero, and the
per-layer times are of spans all three workloads reach. The report prints
the rest, each with its unit and sample count: metrics of one workload only
(``episode_ms_p99``, ``verify_s``, ``store.admissible.us_p50``, ...) and
``ops_per_s``, which with one operation in flight is the reciprocal of the
mean latency, so it carries every stall of a shared machine.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("episodes", "recall-10k", "ingest-churn")

# Spans each workload's traced run must fire (and, for ingest-churn, must not).
MUST_FIRE = {
    "episodes": (
        "access.agents_of", "access.resources_of", "access.edge_present", "access.apply",
        "store.admissible", "store.insert", "store.fragments", "retrieval.embed",
        "retrieval.retrieve", "policy.resolve", "policy.apply_read", "policy.encode_and_write",
        "policy.transform", "orchestration.run_episode", "orchestration.resource_call",
        "audit.append", "verify.verify_files", "verify.verify_run", "harness.build_runtime",
        "harness.plan_scenario", "harness.export.store", "harness.export.timeline",
    ),
    "recall-10k": (
        "access.agents_of", "access.resources_of", "access.edge_present", "access.apply",
        "store.admissible", "store.insert", "store.fragments", "retrieval.embed",
        "retrieval.retrieve", "policy.resolve", "policy.apply_read", "policy.encode_and_write",
        "policy.transform", "audit.append", "harness.build_runtime", "service.read",
        "service.write",
    ),
    "ingest-churn": (
        "access.agents_of", "access.resources_of", "access.edge_present", "access.apply",
        "store.insert", "retrieval.embed", "policy.resolve", "policy.encode_and_write",
        "policy.transform", "audit.append", "verify.verify_files", "verify.verify_run",
        "harness.build_runtime", "harness.export.store", "harness.export.timeline",
        "service.write", "service.admin",
    ),
}
MUST_NOT_FIRE = {"ingest-churn": ("retrieval.retrieve", "store.admissible", "service.read")}

# The operation whose time each layer share is taken of, per workload.
SHARE_OF = {
    "episodes": ("orchestration.run_episode", "verify.verify_files"),
    "recall-10k": ("http.read", "http.write"),
    "ingest-churn": ("http.write", "http.admin", "verify.verify_files"),
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; NaN without samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)] if ordered else math.nan


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fmt(value: float) -> str:
    if math.isnan(value):
        return "n/a"
    return f"{value:.6g}" if math.isfinite(value) else "inf"


def row(name: str, value: float, unit: str = "", note: str = "") -> None:
    print(f"  {name:<38} {fmt(value):>12} {unit:<5} {note}".rstrip())


def end_to_end(outcome) -> dict[str, float]:
    primary = outcome.latencies_ms[outcome.primary]
    return {
        "setup_s": median(outcome.setup_s),
        "ops_per_s": median(outcome.round_rates),
        "op_ms_p50": percentile(primary, 50),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_end_to_end(outcome, metrics: dict[str, float]) -> None:
    """Print every end-to-end metric with its unit and sample count."""
    row("setup_s", metrics["setup_s"], "s", f"median of n={len(outcome.setup_s)}")
    for kind, values in sorted(outcome.latencies_ms.items()):
        n = len(values)
        row(f"{kind}_ms_p50", percentile(values, 50), "ms", f"n={n}")
        if n >= 1000:
            row(f"{kind}_ms_p99", percentile(values, 99), "ms", f"n={n}")
        else:
            row(f"{kind}_ms_p99", math.nan, "ms", f"not reported: n={n} < 1000")
    row(
        "ops_per_s",
        metrics["ops_per_s"],
        "1/s",
        f"median of n={outcome.rounds} rounds; {outcome.ops} ops in {fmt(outcome.loop_s)} s",
    )
    for phase, values in sorted(outcome.phases_s.items()):
        row(phase, median(values), "s", f"median of n={len(values)}")
    for key, (value, unit) in sorted(outcome.counts.items()):
        row(key, value, unit)
    row("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    failed = sum(outcome.failed.values())
    row("failed_ratio", failed / max(outcome.ops, 1), "ratio", f"{failed} of {outcome.ops}")
    row("op_ms_p50", metrics["op_ms_p50"], "ms", f"= {outcome.primary}_ms_p50")
    kinds = ", ".join(
        f"{k} {outcome.attempted[k]}/{outcome.failed[k]}" for k in sorted(outcome.attempted)
    )
    print(f"  attempted/failed: {kinds}")
    print("  digest: " + " ".join(f"{k}={v}" for k, v in outcome.digests.items()))


def run_one(args) -> int:
    if not (SRC / "memfabric" / "__init__.py").is_file():
        print(f"error: no memfabric sources under {SRC}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics of the JSON result: with --trace 0 the
    # gated end-to-end ones, with --trace 1 the per-layer ones. The report
    # prints every metric either way.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    run = workloads.WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")

    if not args.trace:
        outcome = run(args.seed, args.seconds, out)
        values = end_to_end(outcome)
        report_end_to_end(outcome, values)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
        runs = [outcome]
    else:
        base = run(args.seed, args.seconds / 2, out / "untraced")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcome = run(args.seed, args.seconds / 2, out / "traced", tracer)
        finally:
            tracer.uninstall()
        index = tracing.SpanIndex(tracer)
        layer = tracing.layer_metrics(index, outcome.rounds, outcome.ops, outcome.audit_bytes)
        overhead = median(outcome.round_rates) / median(base.round_rates)
        layer["trace.overhead_ratio"] = (overhead, "ratio")
        runs = [base, outcome]
        for name in MUST_FIRE[args.workload]:
            if not index.calls(name):
                outcome.problems.append(f"traced run: span {name} never fired")
        for name in MUST_NOT_FIRE.get(args.workload, ()):
            if index.calls(name):
                outcome.problems.append(f"traced run: span {name} fired {index.calls(name)} times")
        print(f"  traced {outcome.ops} ops, untraced {base.ops} ops; {len(tracer.spans)} spans")
        for name, (value, unit) in layer.items():
            row(name, value, unit)
        for op_name in SHARE_OF[args.workload]:
            n, total_ms, shares = index.shares(op_name)
            ranked = sorted(shares.items(), key=lambda kv: -kv[1])
            parts = ", ".join(f"{k} {v:.1%}" for k, v in ranked)
            print(f"  self-time share of {op_name} (n={n}, {fmt(total_ms)} ms): {parts}")
        tracer.dump(out / "spans.jsonl")
        metrics = {
            m["name"]: {"value": layer[m["name"]][0], "unit": layer[m["name"]][1]}
            for m in spec["per_layer"]
        }

    problems = [problem for run_outcome in runs for problem in run_outcome.problems]
    problems += [
        f"{name} was not measured"
        for name, m in metrics.items()
        if math.isnan(m["value"])
    ]
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more failed checks")
    failed = sum(sum(o.failed.values()) for o in runs)
    correct = not problems and failed == 0
    attempted = sum(o.ops for o in runs)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory and GC state are its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = status or 1
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()
                },
            }
        )
    )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
