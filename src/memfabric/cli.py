"""Command-line entry points.

- ``memfabric run --config FILE [--mode shared|isolated] [--seed N] --out DIR``
- ``memfabric compare --config FILE --out DIR``
- ``memfabric gen-schedule --users N --agents N [--p P] --seed N --phases 5,10,...``
- ``memfabric verify --audit LOG [--timeline EVENTS] [--store SNAPSHOT]``
- ``memfabric serve --config FILE [--host H] [--port P] [--audit LOG]``

``verify`` exits nonzero when the audit log contains any decision that its
own permission history and fragment writes cannot justify. Given
``--timeline`` or ``--store``, the exported event log or store snapshot must
also equal what the log records. ``serve --audit`` continues the log it
names, so a restarted server keeps its permissions, memory and sequence.
"""

from __future__ import annotations

import argparse
import sys

from .harness import build_runtime, compare_modes, load_config, run_scenario
from .schedule import DEFAULT_ACCEPT_PROBABILITY, generate_schedule, schedule_from_targets
from .service import MemoryService, serve_forever
from .verify import verify_files


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    artifacts = run_scenario(cfg, args.out, mode=args.mode, seed=args.seed)
    for b in artifacts.metrics.bins:
        print(
            f"{b.label}: queries={b.queries} agents/query={b.agent_utilization:.3f} "
            f"resources/query={b.resource_utilization:.3f}"
        )
    print(f"artifacts written to {artifacts.out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    report = compare_modes(cfg, args.out)
    for row in report.per_bin:
        print(
            f"{row['bin']}: shared={row['shared_calls']} isolated={row['isolated_calls']} "
            f"reduction={row['reduction']:.1%}"
        )
    print(
        f"total: shared={report.total_shared_calls} isolated={report.total_isolated_calls} "
        f"reduction={report.total_reduction:.1%}"
    )
    return 0


def _names(spec: str, prefix: str) -> list[str]:
    if spec.isdigit():
        return [f"{prefix}_{i + 1}" for i in range(int(spec))]
    return [name.strip() for name in spec.split(",") if name.strip()]


def _cmd_gen_schedule(args: argparse.Namespace) -> int:
    from .principals import agent, user

    users = [user(n) for n in _names(args.users, "user")]
    agents = [agent(n) for n in _names(args.agents, "agent")]
    targets = [int(x) for x in args.phases.split(",")]
    schedule = schedule_from_targets(targets, seed=args.seed, p=args.p)
    timeline, boundaries = generate_schedule(schedule, users, agents)
    if args.out:
        timeline.save(args.out)
    else:
        sys.stdout.write(timeline.to_jsonl())
    for b in boundaries:
        print(f"{b.label}: tick={b.tick} edges={b.edge_count}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    violations = verify_files(args.audit, args.timeline, args.store)
    for v in violations:
        print(str(v))
    if violations:
        print(f"FAIL: {len(violations)} violation(s)")
        return 1
    print("OK: no violations")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    runtime = build_runtime(cfg, audit_path=args.audit, resume=True)
    print(f"serving {cfg.name} on {args.host}:{args.port}")
    serve_forever(MemoryService(runtime, admin_identity=args.admin), args.host, args.port)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memfabric")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", choices=["shared", "isolated"], default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run shared vs isolated and compare")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("gen-schedule", help="generate a grant/revoke event log")
    p_gen.add_argument("--users", required=True, help="count or comma-separated names")
    p_gen.add_argument("--agents", required=True, help="count or comma-separated names")
    p_gen.add_argument("--p", type=float, default=DEFAULT_ACCEPT_PROBABILITY)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--phases", required=True, help="comma-separated edge targets")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen_schedule)

    p_ver = sub.add_parser("verify", help="re-verify a run offline")
    p_ver.add_argument("--audit", required=True)
    p_ver.add_argument("--timeline", default=None, help="exported event log to check too")
    p_ver.add_argument("--store", default=None, help="exported store snapshot to check too")
    p_ver.set_defaults(func=_cmd_verify)

    p_srv = sub.add_parser("serve", help="expose a runtime over HTTP")
    p_srv.add_argument("--config", required=True)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8080)
    p_srv.add_argument("--admin", default="admin")
    p_srv.add_argument("--audit", default=None, help="audit log to continue, or start")
    p_srv.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
