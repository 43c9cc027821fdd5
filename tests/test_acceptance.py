"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite is also part of the default ``pytest`` run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from memfabric import (
    AccessTimeline,
    AuditAction,
    MemoryService,
    MemoryStore,
    RetrievalConfig,
    ScenarioConfig,
    Tier,
    agent,
    audited_retrieve,
    build_runtime,
    compare_modes,
    generate_schedule,
    iter_audit_file,
    make_server,
    plan_scenario,
    resource,
    retrieve,
    run_episode,
    run_scenario,
    schedule_from_targets,
    user,
)
from genutil import make_universe, random_store, random_timeline, random_unit_vector
from oracles import oracle_admissible, oracle_retrieve
from rtutil import make_runtime
from scenarios import DYNAMIC_LADDER, dynamic_config, overlap_config


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS - {text}", flush=True)


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def dynamic_run(out_root):
    """Criterion 2's scenario: 5 users x 5 agents, 5->25->5 ladder, p=0.2,
    fixed seed, the same 100 queries replayed in each of the nine phases."""
    cfg = ScenarioConfig.from_dict(dynamic_config(per_user_per_category=4, seed=7))
    artifacts = run_scenario(cfg, out_root / "dynamic")
    return cfg, artifacts


def test_criterion_1_admissibility_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(10_001)
    universes = 0
    checks = 0
    while universes < 1000:
        directory, users, agents, resources = make_universe(
            rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        )
        timeline, shadow = random_timeline(
            rng, directory, users, agents, resources, rng.randint(0, 300)
        )
        store = random_store(
            rng, directory, users, agents, resources, 8, rng.randint(0, 200)
        )
        fragments = list(store.fragments())
        horizon = max(timeline.latest_tick, 1)
        for _ in range(3):
            u = rng.choice(users)
            a = rng.choice(agents)
            t = rng.randint(0, horizon)
            assert store.admissible(timeline, u, a, t) == oracle_admissible(
                fragments, shadow, u, a, t
            )
            checks += 1
        universes += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        1,
        f"admissible() == clause-by-clause oracle on {universes} universes "
        f"({checks} checks, {elapsed:.1f}s)",
    )


def test_criterion_2_access_matrix_safety_and_verify_cli(dynamic_run, out_root):
    cfg, artifacts = dynamic_run
    matrices = json.loads(artifacts.matrices_path.read_text())
    assert len(matrices) == 9
    for phase in matrices:
        granted_ua = {tuple(cell) for cell in phase["granted_user_agent"]}
        granted_ar = {tuple(cell) for cell in phase["granted_agent_resource"]}
        for u, row in phase["usage"]["user_agent"].items():
            for a, count in row.items():
                if count > 0:
                    assert (u, a) in granted_ua, (phase["phase"], u, a)
        for u, row in phase["usage"]["user_resource"].items():
            for r, count in row.items():
                if count > 0:
                    reachable = any(
                        x == u and (a, r) in granted_ar for (x, a) in granted_ua
                    )
                    assert reachable, (phase["phase"], u, r)

    verify_cmd = [
        sys.executable,
        "-m",
        "memfabric.cli",
        "verify",
        "--audit",
        str(artifacts.audit_path),
        "--timeline",
        str(artifacts.timeline_path),
        "--store",
        str(artifacts.store_path),
    ]
    honest = subprocess.run(verify_cmd, capture_output=True, text=True)
    assert honest.returncode == 0, honest.stdout + honest.stderr

    # inject exactly one illegal read at the end of a copied log
    records = list(iter_audit_file(artifacts.audit_path))
    store = MemoryStore.load(artifacts.store_path)
    timeline = AccessTimeline.load(artifacts.timeline_path)
    final_tick = records[-1].at
    injected = None
    for fragment in store.fragments():
        for u in cfg.users:
            held = timeline.agents_of(user(u), final_tick)
            if not fragment.provenance.agents <= held:
                contributing = sorted(a.name for a in fragment.provenance.agents)[0]
                injected = {
                    "seq": records[-1].seq + 1,
                    "at": final_tick,
                    "actor": u,
                    "action": "fragment_read",
                    "subjects": [fragment.id],
                    "detail": {
                        "user": u,
                        "agent": contributing,
                        "user_tier": [],
                        "cross_tier": [fragment.id],
                    },
                }
                break
        if injected:
            break
    assert injected is not None
    corrupt_path = out_root / "corrupt_audit.jsonl"
    corrupt_path.write_text(
        artifacts.audit_path.read_text() + json.dumps(injected, sort_keys=True) + "\n"
    )
    corrupted = subprocess.run(
        [
            sys.executable,
            "-m",
            "memfabric.cli",
            "verify",
            "--audit",
            str(corrupt_path),
            "--timeline",
            str(artifacts.timeline_path),
            "--store",
            str(artifacts.store_path),
        ],
        capture_output=True,
        text=True,
    )
    assert corrupted.returncode != 0
    assert "fragment_not_admissible" in corrupted.stdout
    report(
        2,
        "usage stayed inside granted cells across all nine phases; verify CLI "
        "exit 0 honest / nonzero with one injected illegal read",
    )


def test_criterion_3_schedule_fidelity_20_seeds():
    users = [user(f"user_{i}") for i in range(1, 6)]
    agents = [agent(f"agent_{i}") for i in range(1, 6)]
    for seed in range(20):
        schedule = schedule_from_targets(DYNAMIC_LADDER, seed=seed, p=0.2)
        _, boundaries = generate_schedule(schedule, users, agents)
        assert [b.edge_count for b in boundaries] == DYNAMIC_LADDER, seed
    report(3, f"edge counts {DYNAMIC_LADDER} exact at all boundaries for 20 seeds")


def test_criterion_4_sharing_efficiency_analogue(out_root):
    started = time.monotonic()
    cfg = ScenarioConfig.from_dict(
        overlap_config(n_users=5, n_agents=5, count=100, overlap=0.5, seed=11)
    )
    comparison = compare_modes(cfg, out_root / "cmp")
    assert len(comparison.global_queries) == 50
    for q in comparison.global_queries:
        calls = comparison.per_query[q]
        assert calls["shared_calls"] == 1, q
        assert calls["isolated_calls"] == 5, q
    assert comparison.total_reduction >= 0.40
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(
        4,
        f"duplicated queries cost shared=1 vs isolated=5 resource calls; total "
        f"reduction {comparison.total_reduction:.1%} (>=40%), {elapsed:.1f}s",
    )


def test_criterion_5_revocation_effect():
    rt, users = make_runtime(n_users=2, n_agents=1, grant_all=False)
    u1, u2 = users
    a1, r1 = agent("a1"), resource("r1")
    rt.timeline.grant((u1, a1), rt.clock.tick())
    rt.timeline.grant((u2, a1), rt.clock.tick())
    rt.timeline.grant((a1, r1), rt.clock.tick())
    episode = run_episode(rt, u1, "d1 lab protocol", rt.clock.tick())
    assert episode.failure is None
    shared_ids = {
        f.id for f in rt.store.fragments() if f.tier is Tier.SHARED
    }
    assert shared_ids

    view_before = audited_retrieve(rt, u2, a1, rt.clock.tick(), "d1 lab protocol")
    assert shared_ids <= {h.fragment_id for h in view_before}

    rt.timeline.revoke((u2, a1), rt.clock.tick())
    view_after = audited_retrieve(rt, u2, a1, rt.clock.tick(), "d1 lab protocol")
    assert view_after == []

    u2_reads = [
        r
        for r in rt.audit
        if r.action is AuditAction.FRAGMENT_READ and r.detail.get("user") == "u2"
    ]
    assert len(u2_reads) == 2
    assert set(u2_reads[0].subjects) >= shared_ids  # present, on the record
    assert u2_reads[1].subjects == ()  # absent, on the record
    report(5, "shared fragment visible before revoke, hidden after; both reads audited")


def test_criterion_6_retrieval_oracle_500_stores():
    rng = random.Random(60_606)
    cfg = RetrievalConfig(k_user=10, k_cross=10, threshold=0.1)
    for _ in range(500):
        directory, users, agents, resources = make_universe(
            rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        )
        timeline, shadow = random_timeline(
            rng, directory, users, agents, resources, rng.randint(0, 60)
        )
        store = random_store(
            rng, directory, users, agents, resources, 8, rng.randint(0, 60)
        )
        u, a = rng.choice(users), rng.choice(agents)
        t = rng.randint(0, max(timeline.latest_tick, 1))
        query = random_unit_vector(rng, 8)
        user_tier, cross_tier = retrieve(store, timeline, u, a, t, query, cfg)
        oracle_user, oracle_cross = oracle_retrieve(
            list(store.fragments()), shadow, u, a, t, query, 10, 10, 0.1
        )
        assert [h.fragment_id for h in user_tier] == oracle_user
        assert [h.fragment_id for h in cross_tier] == oracle_cross
        assert len(user_tier) <= 10 and len(cross_tier) <= 10
        assert all(h.similarity >= 0.1 for h in user_tier + cross_tier)
    report(6, "tiered top-k equals sort/filter oracle on 500 stores (k=10/10, threshold 0.1)")


def test_criterion_7_isolation_no_cross_creator_reads(out_root):
    rng = random.Random(70_707)
    for i in range(100):
        cfg = ScenarioConfig.from_dict(
            overlap_config(
                n_users=rng.randint(2, 4),
                n_agents=rng.randint(2, 3),
                count=rng.randint(6, 12),
                overlap=rng.random(),
                seed=rng.randint(0, 10_000),
                mode="isolated",
            )
        )
        artifacts = run_scenario(cfg, out_root / f"iso{i}")
        store = MemoryStore.load(artifacts.store_path)
        for rec in iter_audit_file(artifacts.audit_path):
            if rec.action is AuditAction.FRAGMENT_READ:
                for fid in rec.subjects:
                    creator = store.get(fid).provenance.creator.name
                    assert creator == rec.detail["user"], (i, fid)
    report(7, "zero cross-creator fragment reads across 100 random isolated workloads")


def test_criterion_8_cli_determinism(out_root):
    cfg_path = out_root / "det.json"
    cfg_path.write_text(json.dumps(dynamic_config(per_user_per_category=1, seed=13)))
    outs = []
    for run in ("det1", "det2"):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "memfabric.cli",
                "run",
                "--config",
                str(cfg_path),
                "--out",
                str(out_root / run),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        outs.append(out_root / run)
    audit_a = (outs[0] / "audit.jsonl").read_bytes()
    audit_b = (outs[1] / "audit.jsonl").read_bytes()
    metrics_a = (outs[0] / "metrics.csv").read_bytes()
    metrics_b = (outs[1] / "metrics.csv").read_bytes()
    assert audit_a == audit_b
    assert metrics_a == metrics_b
    report(
        8,
        f"two CLI runs, same seed: audit ({len(audit_a)} bytes) and metrics CSV "
        f"byte-identical across processes",
    )


def test_criterion_9_library_service_differential(dynamic_run):
    cfg, artifacts = dynamic_run
    plan = plan_scenario(cfg)
    runtime = build_runtime(cfg)  # bare: driver issues every permission change
    server = make_server(MemoryService(runtime))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"

    def post(path: str, body: dict, identity: str) -> dict:
        request = urllib.request.Request(
            base + path,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json", "X-Identity": identity},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def edge_doc(edge):
        a, b = edge
        if a.kind.value == "user":
            return {"user": a.name, "agent": b.name}
        return {"agent": a.name, "resource": b.name}

    try:
        for edge in plan.setup_edges:
            post("/permissions/grant", {"edge": edge_doc(edge)}, "admin")
        for phase in plan.phases:
            for action, edge in phase.permission_edits:
                post(f"/permissions/{action.value}", {"edge": edge_doc(edge)}, "admin")
            for item in phase.episodes:
                post(
                    "/episodes",
                    {"user": item.user, "query": item.query, "bin": phase.label},
                    item.user,
                )
    finally:
        server.shutdown()
        server.server_close()

    library_log = artifacts.audit_path.read_text(encoding="utf-8")
    service_log = runtime.audit.to_jsonl()
    assert service_log == library_log
    report(
        9,
        f"HTTP-driven replay of the nine-phase scenario produced an audit log "
        f"identical to the library run ({len(service_log.splitlines())} records)",
    )
