from __future__ import annotations

import gc
import json
import tracemalloc
import warnings
from pathlib import Path

import pytest
import yaml

from memfabric import (
    AccessTimeline,
    AuditAction,
    AuditLog,
    ConfigError,
    DuplicateId,
    InsufficientQueries,
    MemFabricError,
    NonMonotonicTimestamp,
    OutdatedAuditLog,
    PrincipalDirectory,
    RemoteUnavailable,
    ResourceNotPermitted,
    ScenarioConfig,
    Tier,
    agent,
    build_runtime,
    compare_modes,
    generate_workload,
    iter_audit_file,
    load_config,
    plan_scenario,
    run_episode,
    run_scenario,
    user,
    verify_files,
)
from memfabric.harness import build_policies, build_workload
from memfabric.policy import Direction, IdentityTransform
from memfabric.store import LogState, MemoryStore
from rtutil import StubServer, refused_url
from scenarios import asymmetric_config, dynamic_config, overlap_config, revocation_phase_config

USERS5 = [f"user_{i}" for i in range(1, 6)]


# --- workload generation ---


def test_zero_overlap_assigns_each_query_once():
    wl = generate_workload([f"q{i}" for i in range(20)], USERS5, 0.0, seed=1)
    owners: dict[str, set[str]] = {}
    for item in wl.items:
        owners.setdefault(item.query, set()).add(item.user)
    assert all(len(us) == 1 for us in owners.values())
    assert wl.global_queries == ()


def test_full_overlap_assigns_every_query_to_every_user():
    wl = generate_workload([f"q{i}" for i in range(8)], USERS5, 1.0, seed=1)
    owners: dict[str, set[str]] = {}
    for item in wl.items:
        owners.setdefault(item.query, set()).add(item.user)
    assert all(us == set(USERS5) for us in owners.values())
    assert len(wl.items) == 8 * 5


def test_half_overlap_of_100_yields_300_episodes():
    wl = generate_workload([f"q{i}" for i in range(100)], USERS5, 0.5, seed=9)
    assert len(wl.global_queries) == 50
    assert len(wl.items) == 50 * 5 + 50
    global_counts = sum(1 for item in wl.items if item.kind == "global")
    assert global_counts == 250


def test_workload_deterministic_under_seed():
    a = generate_workload([f"q{i}" for i in range(30)], USERS5, 0.25, seed=4)
    b = generate_workload([f"q{i}" for i in range(30)], USERS5, 0.25, seed=4)
    assert a == b
    c = generate_workload([f"q{i}" for i in range(30)], USERS5, 0.25, seed=5)
    assert a != c


def test_empty_pool_rejected():
    with pytest.raises(InsufficientQueries):
        generate_workload([], USERS5, 0.5, seed=0)


def test_per_user_per_category_counts():
    cfg = ScenarioConfig.from_dict(dynamic_config(per_user_per_category=4))
    wl = build_workload(cfg)
    assert len(wl.items) == 5 * 5 * 4
    per_user = {u: [i for i in wl.items if i.user == u] for u in cfg.users}
    assert all(len(items) == 20 for items in per_user.values())
    # disjoint across users
    assert len({i.query for i in wl.items}) == 100


def test_decompose_director_covers_every_role_last():
    cfg = ScenarioConfig.from_dict(asymmetric_config())
    wl = build_workload(cfg)
    per_query_users = []
    block: list[str] = []
    for item in wl.items:
        block.append(item.user)
        if len(block) == 6:  # 3 low-level + 3 director subtasks per project
            per_query_users.append(block)
            block = []
    for block in per_query_users:
        assert block[:3] == ["market_researcher", "financial_analyst", "logistics_lead"]
        assert set(block[3:]) == {"strategy_director"}


# --- config plumbing ---


def test_config_json_and_yaml_load(tmp_path):
    doc = overlap_config(count=10)
    json_path = tmp_path / "cfg.json"
    json_path.write_text(json.dumps(doc))
    yaml_path = tmp_path / "cfg.yaml"
    yaml_path.write_text(yaml.safe_dump(doc))
    assert load_config(json_path) == load_config(yaml_path)


def test_config_validation_errors():
    bad = overlap_config()
    bad["memory_mode"] = "sideways"
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(bad)
    dup = overlap_config()
    dup["agents"][1]["category"] = dup["agents"][0]["category"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(dup)
    orphan = overlap_config()
    orphan["agents"][0]["resource"] = "nowhere_kb"
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(orphan)
    # a misspelt key would otherwise fall back to its default silently
    typo = overlap_config()
    typo["memory_mod"] = typo.pop("memory_mode")
    with pytest.raises(ConfigError, match="memory_mod"):
        ScenarioConfig.from_dict(typo)
    # so would a misspelt key inside a section
    for section, key in (
        ("retrieval", "k_usr"),
        ("retrieval", "treshold"),
        ("timeline", "user_agent"),
    ):
        nested = overlap_config()
        nested.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError, match=f"{section}.*{key}"):
            ScenarioConfig.from_dict(nested)
    for event in (
        {"action": "grant", "edge": {"user": "user_1"}},
        {"action": "grnt", "edge": {"user": "user_1", "agent": "lab_agent"}},
    ):
        phased = revocation_phase_config()
        phased["timeline"]["phases"][0]["events"][0] = event
        with pytest.raises(ConfigError):
            plan_scenario(ScenarioConfig.from_dict(phased))


# --- static run ---


def test_static_run_artifacts_and_offline_verification(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(count=20, n_users=3))
    artifacts = run_scenario(cfg, tmp_path / "run")
    for path in (
        artifacts.audit_path,
        artifacts.timeline_path,
        artifacts.store_path,
        artifacts.metrics_csv_path,
        artifacts.metrics_json_path,
        artifacts.matrices_path,
        artifacts.transcript_path,
        artifacts.config_echo_path,
    ):
        assert path.exists(), path
    plan = plan_scenario(cfg)
    transcript = artifacts.transcript_path.read_text().strip().splitlines()
    assert len(transcript) == len(plan.workload.items)
    assert [b.label for b in artifacts.metrics.bins] == ["all"]
    assert verify_files(artifacts.audit_path, artifacts.timeline_path, artifacts.store_path) == []


def test_library_runs_byte_identical_under_same_seed(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(count=16, n_users=3, seed=21))
    a = run_scenario(cfg, tmp_path / "a")
    b = run_scenario(cfg, tmp_path / "b")
    assert a.audit_path.read_bytes() == b.audit_path.read_bytes()
    assert a.metrics_csv_path.read_bytes() == b.metrics_csv_path.read_bytes()
    assert a.store_path.read_bytes() == b.store_path.read_bytes()


def resource_warnings(action) -> list[warnings.WarningMessage]:
    """ResourceWarnings (unclosed files) raised by ``action`` or by collecting
    what it left behind."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        action()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_failed_run_closes_its_audit_log(tmp_path):
    # an agent asking for a resource it is not granted aborts the run
    doc = overlap_config(count=4, n_users=2, n_agents=2)
    ungranted = {"output": json.dumps({"invoke": ["domain1_kb", "domain2_kb"]})}
    with StubServer(lambda request: ungranted) as stub:
        for spec in doc["agents"]:
            spec["endpoint"] = stub.url

        def run():
            with pytest.raises(ResourceNotPermitted):
                run_scenario(ScenarioConfig.from_dict(doc), tmp_path / "run")

        assert resource_warnings(run) == []


def test_a_remote_agent_that_is_down_fails_its_episodes_not_the_run(tmp_path):
    doc = overlap_config()
    doc["agents"][0]["endpoint"] = refused_url()
    artifacts = run_scenario(ScenarioConfig.from_dict(doc), tmp_path)
    records = list(iter_audit_file(artifacts.audit_path))
    starts = [r.subjects for r in records if r.action is AuditAction.EPISODE_START]
    ends = {r.subjects: r.detail["failure"] for r in records if r.action is AuditAction.EPISODE_END}
    assert len(starts) == len(ends) and set(starts) == set(ends)
    assert set(ends.values()) == {None, "remote_unavailable"}
    transcript = [json.loads(line) for line in artifacts.transcript_path.read_text().splitlines()]
    assert [doc["failure"] for doc in transcript] == [ends[s] for s in starts]  # one per episode
    assert artifacts.metrics_json_path.exists() and artifacts.matrices_path.exists()
    assert verify_files(artifacts.audit_path, artifacts.timeline_path, artifacts.store_path) == []


# --- runtime construction ---


def test_fresh_runtime_ignores_and_truncates_a_previous_run(tmp_path):
    # a benchmark round rebuilds its runtime where the last round left
    # audit.jsonl, timeline.jsonl and store.jsonl
    cfg = ScenarioConfig.from_dict(revocation_phase_config())
    artifacts = run_scenario(cfg, tmp_path)
    rt = build_runtime(cfg, audit_path=artifacts.audit_path)
    try:
        assert (len(rt.store), rt.timeline.events, len(rt.audit), rt.clock.now) == (0, (), 0, 0)
        assert rt.next_episode_id() == "ep-00000"
        assert artifacts.audit_path.read_bytes() == b""
    finally:
        rt.audit.close()


def test_failed_build_leaves_no_file_open_and_the_log_intact(tmp_path):
    cfg = ScenarioConfig.from_dict(revocation_phase_config())
    artifacts = run_scenario(cfg, tmp_path)
    # resume reads only the log, so it fails on a write record that does not replay
    lines = artifacts.audit_path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if json.loads(line)["action"] == "fragment_write")
    lines[i] = lines[i].replace('"tier": "', '"tier": "no-')
    artifacts.audit_path.write_text("".join(lines))
    log = artifacts.audit_path.read_bytes()
    doc = revocation_phase_config()
    doc["policies"] = {"read": {"kind": "unknown"}}

    def resume():
        with pytest.raises(ValueError):
            build_runtime(cfg, artifacts.audit_path, resume=True)

    def misconfigured():
        with pytest.raises(ConfigError):
            build_runtime(ScenarioConfig.from_dict(doc), artifacts.audit_path)

    assert resource_warnings(resume) == []
    assert resource_warnings(misconfigured) == []
    assert artifacts.audit_path.read_bytes() == log


@pytest.mark.parametrize(
    "edit, error",
    [
        ("duplicate", NonMonotonicTimestamp),
        ("malformed", ValueError),
        ("duplicate write", DuplicateId),
        ("pre-format write", OutdatedAuditLog),
        # the torn tail is cut only once the log has replayed
        ("duplicate write, torn tail", DuplicateId),
        # the first record in log order that does not replay raises: the write at seq 8
        ("duplicate write, malformed revoke", DuplicateId),
    ],
)
def test_resume_from_a_log_that_does_not_replay_raises_and_leaves_no_file_open(
    tmp_path, edit, error
):
    cfg = ScenarioConfig.from_dict(revocation_phase_config())
    artifacts = run_scenario(cfg, tmp_path)
    lines = artifacts.audit_path.read_text().splitlines(keepends=True)

    def first(action):
        return next(i for i, line in enumerate(lines) if json.loads(line)["action"] == action)

    def malform(i):
        doc = json.loads(lines[i])
        doc["detail"]["edge"] = {"user": "user_1"}
        lines[i] = json.dumps(doc, sort_keys=True) + "\n"

    i = first("fragment_write" if "write" in edit else "grant")
    if edit.startswith("duplicate"):
        lines.insert(i, lines[i])
    elif edit == "malformed":
        malform(i)
    else:  # written before fragment_write records carried key and value
        doc = json.loads(lines[i])
        del doc["detail"]["key"], doc["detail"]["value"]
        lines[i] = json.dumps(doc, sort_keys=True) + "\n"
    if edit.endswith("malformed revoke"):
        malform(first("revoke"))
    tail = b'{"seq": 25, "a' if edit.endswith("torn tail") else b""
    artifacts.audit_path.write_bytes("".join(lines).encode() + tail)
    log = artifacts.audit_path.read_bytes()
    reason = rf"seq={i} .* predates the format" if edit == "pre-format write" else None

    def resume():
        with pytest.raises(error, match=reason):
            build_runtime(cfg, artifacts.audit_path, resume=True)

    assert resource_warnings(resume) == []
    assert artifacts.audit_path.read_bytes() == log


@pytest.mark.parametrize("edit", ["dropped line", "tick behind"])
def test_resume_refuses_a_log_append_would_not_write_and_leaves_it_intact(tmp_path, edit):
    # with its first agent_invoke line dropped, every later seq is one past its
    # position, and a resumed log used to append the last seq again
    cfg = ScenarioConfig.from_dict(overlap_config(count=4, n_users=2, n_agents=2))
    artifacts = run_scenario(cfg, tmp_path)
    lines = artifacts.audit_path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if json.loads(line)["action"] == "agent_invoke")
    doc = json.loads(lines[i])
    if edit == "dropped line":
        del lines[i]
        expected = [(i + 1, "seq_gap")]
        reason = rf"log record {i}: seq={i + 1} at={doc['at']}, head {doc['at']}$"
    else:  # its episode_start, one line up, holds the same tick
        doc["at"] -= 1
        lines[i] = json.dumps(doc, sort_keys=True) + "\n"
        expected = [(i, "time_regression")]
        reason = rf"log record {i}: seq={i} at={doc['at']}, head {doc['at'] + 1}$"
    artifacts.audit_path.write_text("".join(lines))
    log = artifacts.audit_path.read_bytes()

    def resume():
        with pytest.raises(MemFabricError, match=reason):
            build_runtime(cfg, artifacts.audit_path, resume=True)
        with pytest.raises(MemFabricError, match=reason):
            LogState().fold(artifacts.audit_path)

    assert resource_warnings(resume) == []
    assert artifacts.audit_path.read_bytes() == log
    # the verifier still reports the edit rather than raising
    assert [(v.seq, v.code) for v in verify_files(artifacts.audit_path)] == expected


def test_resume_with_its_remote_embedder_down_raises_and_leaves_no_file_open(tmp_path):
    # resume embeds every logged key again, so it needs the embedder
    artifacts = run_scenario(ScenarioConfig.from_dict(revocation_phase_config()), tmp_path)
    doc = revocation_phase_config()
    doc["embedder"] = {"kind": "remote", "dimension": 32, "endpoint": "http://127.0.0.1:1/embed"}
    log = artifacts.audit_path.read_bytes()

    def resume():
        with pytest.raises(RemoteUnavailable):
            build_runtime(ScenarioConfig.from_dict(doc), artifacts.audit_path, resume=True)

    assert resource_warnings(resume) == []
    assert artifacts.audit_path.read_bytes() == log


def test_resume_cuts_a_torn_last_line_and_the_log_goes_on_clean(tmp_path):
    # a process killed mid-append leaves the last line of its log cut short
    cfg = ScenarioConfig.from_dict(overlap_config())
    artifacts = run_scenario(cfg, tmp_path)
    torn = artifacts.audit_path.read_bytes()[:-40]
    kept = torn[: torn.rindex(b"\n") + 1]
    artifacts.audit_path.write_bytes(torn)
    dropped = f"{artifacts.audit_path}: dropped a torn last line of {len(torn) - len(kept)} bytes"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rt = build_runtime(cfg, artifacts.audit_path, resume=True)
    try:  # the log is closed even when an assertion fails, so no later test sees it leak
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [dropped]
        # the torn line was the last episode's end: the reopened log ends it as interrupted
        resumed = artifacts.audit_path.read_bytes()
        assert resumed.startswith(kept) and resumed.count(b"\n") == kept.count(b"\n") + 1
        assert json.loads(resumed[len(kept):])["detail"]["failure"] == "interrupted"
        run_episode(rt, user("user_1"), "one more query", rt.clock.tick())
    finally:
        rt.audit.close()
    assert verify_files(artifacts.audit_path) == []
    seqs = [r.seq for r in iter_audit_file(artifacts.audit_path)]
    assert seqs == list(range(len(seqs))) and len(seqs) > kept.count(b"\n")


@pytest.mark.parametrize("config", [overlap_config, dynamic_config, revocation_phase_config])
def test_the_log_alone_rebuilds_the_store_and_verifies(tmp_path, config):
    cfg = ScenarioConfig.from_dict(config())
    artifacts = run_scenario(cfg, tmp_path)
    exported = artifacts.store_path.read_text(), artifacts.timeline_path.read_text()
    artifacts.store_path.unlink()
    artifacts.timeline_path.unlink()
    rt = build_runtime(cfg, artifacts.audit_path, resume=True)
    try:
        assert (rt.store.to_jsonl(), rt.timeline.to_jsonl()) == exported
    finally:
        rt.audit.close()
    assert verify_files(artifacts.audit_path) == []


def test_resume_keeps_no_record_of_the_log_in_memory(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(n_users=1, n_agents=1))
    directory = PrincipalDirectory()
    directory.add_user("user_1")
    directory.add_agent("domain1_agent")
    audit = AuditLog(tmp_path / "audit.jsonl")
    AccessTimeline(directory, audit=audit).grant((user("user_1"), agent("domain1_agent")), 1)
    detail = {"subquery": "x" * 2000}
    for t in range(2, 5002):
        audit.append(t, "user_1", AuditAction.AGENT_INVOKE, ("domain1_agent",), detail)
    audit.close()
    # decoded, the log is 5,000 records of 2 KB each
    tracemalloc.start()
    try:
        rt = build_runtime(cfg, audit.path, resume=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rt.audit.close()
    assert (len(rt.audit), rt.clock.now, len(rt.timeline.events)) == (5001, 5001, 1)
    assert peak < 1_000_000


# --- schedule run ---


def test_schedule_run_bins_per_phase(tmp_path):
    cfg = ScenarioConfig.from_dict(dynamic_config(per_user_per_category=1, seed=13))
    artifacts = run_scenario(cfg, tmp_path / "dyn")
    labels = [b.label for b in artifacts.metrics.bins]
    assert labels == [f"t{i}" for i in range(9)]
    assert all(b.queries == 25 for b in artifacts.metrics.bins)
    assert verify_files(artifacts.audit_path, artifacts.timeline_path, artifacts.store_path) == []


def test_asymmetric_usage_stays_in_role_lanes(tmp_path):
    cfg = ScenarioConfig.from_dict(asymmetric_config())
    artifacts = run_scenario(cfg, tmp_path / "asym")
    matrices = json.loads(artifacts.matrices_path.read_text())[0]
    usage = matrices["usage"]["user_agent"]
    assert set(usage.get("market_researcher", {})) <= {"market_agent"}
    assert set(usage.get("financial_analyst", {})) <= {"finance_agent", "decision_agent"}
    assert set(usage.get("logistics_lead", {})) <= {"logistics_agent", "finance_agent"}
    # the director actually used every lane it was granted
    assert set(usage.get("strategy_director", {})) == {
        "market_agent",
        "finance_agent",
        "logistics_agent",
    }
    assert verify_files(artifacts.audit_path, artifacts.timeline_path, artifacts.store_path) == []


def test_director_reuses_subtask_answers_cross_user(tmp_path):
    cfg = ScenarioConfig.from_dict(asymmetric_config())
    artifacts = run_scenario(cfg, tmp_path / "asym2")
    records = list(iter_audit_file(artifacts.audit_path))
    # director episodes repeat the exact role subtasks, so they hit shared
    # memory and trigger zero resource calls
    director_episodes = {
        r.subjects[0]
        for r in records
        if r.action is AuditAction.EPISODE_START and r.actor == "strategy_director"
    }
    director_calls = sum(
        1
        for r in records
        if r.action is AuditAction.RESOURCE_INVOKE
        and r.detail.get("episode") in director_episodes
    )
    assert director_calls == 0


# --- comparison ---


def test_zero_overlap_zero_reduction(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(count=15, n_users=3, overlap=0.0))
    report = compare_modes(cfg, tmp_path / "cmp0")
    assert report.total_reduction == 0.0
    assert report.total_shared_calls == report.total_isolated_calls


def test_sharing_never_hurts_per_bin(tmp_path):
    for seed in (1, 2, 3):
        cfg = ScenarioConfig.from_dict(
            overlap_config(count=12, n_users=3, overlap=0.5, seed=seed)
        )
        report = compare_modes(cfg, tmp_path / f"cmp{seed}")
        for row in report.per_bin:
            assert row["reduction"] >= 0.0


def test_isolated_mode_all_fragments_private(tmp_path):
    cfg = ScenarioConfig.from_dict(overlap_config(count=10, n_users=2, mode="isolated"))
    artifacts = run_scenario(cfg, tmp_path / "iso")
    store = MemoryStore.load(artifacts.store_path)
    assert all(f.tier is Tier.PRIVATE for f in store.fragments())


# --- explicit-phase revocation ---


def test_phase_boundary_revocation_hides_fragment(tmp_path):
    cfg = ScenarioConfig.from_dict(revocation_phase_config())
    artifacts = run_scenario(cfg, tmp_path / "rev")
    records = list(iter_audit_file(artifacts.audit_path))
    reads_by_phase: dict[str, list] = {"p0": [], "p1": []}
    episode_bin: dict[str, str] = {}
    episode_user: dict[str, str] = {}
    for r in records:
        if r.action is AuditAction.EPISODE_START:
            episode_bin[r.subjects[0]] = str(r.detail["bin"])
            episode_user[r.subjects[0]] = r.actor
        elif r.action is AuditAction.FRAGMENT_READ:
            eid = r.detail.get("episode")
            if eid and episode_user[eid] == "user_2":
                reads_by_phase[episode_bin[eid]].append(r)
    # phase p0: user_2's read surfaced user_1's shared fragment
    assert any(r.subjects for r in reads_by_phase["p0"])
    # phase p1: the edge is gone, the episode fails before any read
    assert reads_by_phase["p1"] == []
    p1_user2 = [
        r
        for r in records
        if r.action is AuditAction.EPISODE_END
        and episode_bin[r.subjects[0]] == "p1"
        and episode_user[r.subjects[0]] == "user_2"
    ]
    assert p1_user2[0].detail["failure"] == "no_accessible_agents"
    assert verify_files(artifacts.audit_path, artifacts.timeline_path, artifacts.store_path) == []


# --- qualitative efficiency direction under growing access ---


def test_resource_utilization_drops_in_later_grant_phases(tmp_path):
    cfg_doc = dynamic_config(per_user_per_category=1, targets=[15, 21, 25], seed=2)
    cfg_doc["workload"] = {"synthetic": {"count": 30}, "overlap": 0.5}
    cfg = ScenarioConfig.from_dict(cfg_doc)
    artifacts = run_scenario(cfg, tmp_path / "dir")
    utils = [b.resource_utilization for b in artifacts.metrics.bins]
    assert utils[0] > utils[1] > utils[2]


# --- corpus-backed resources ---


def test_resources_answer_from_documents_file(tmp_path):
    docs_path = tmp_path / "docs.jsonl"
    docs_path.write_text(
        "\n".join(
            json.dumps(d)
            for d in [
                {"id": "d1", "category": "domain1", "text": "Glass anneals near 550C."},
                {"id": "d2", "category": "domain2", "text": "Bonds mature at par value."},
            ]
        )
        + "\n"
    )
    doc = overlap_config(count=4, n_users=2, n_agents=2, overlap=0.0)
    doc["documents"] = str(docs_path)
    doc["workload"] = {"per_user": {"user_1": ["domain1: glass anneals"], "user_2": []}}
    cfg = ScenarioConfig.from_dict(doc)
    artifacts = run_scenario(cfg, tmp_path / "corpus")
    transcript = json.loads(artifacts.transcript_path.read_text().strip().splitlines()[0])
    assert "Glass anneals near 550C." in transcript["final_answer"]


def test_remote_write_policies_get_stock_prompts_by_default():
    from memfabric.harness import build_policies
    from memfabric.policy import (
        DEFAULT_PRIVATE_WRITE_PROMPT,
        DEFAULT_SHARED_WRITE_PROMPT,
        Direction,
    )
    from memfabric import user, agent

    doc = overlap_config(count=4, n_users=2)
    doc["policies"] = {
        "write_private": {"kind": "prompted_remote", "endpoint": "http://x/chat"},
        "write_shared": {"kind": "prompted_remote", "endpoint": "http://x/chat"},
    }
    table = build_policies(ScenarioConfig.from_dict(doc))
    private = table.resolve(user("user_1"), agent("domain1_agent"), 0, Direction.WRITE_PRIVATE)
    shared = table.resolve(user("user_1"), agent("domain1_agent"), 0, Direction.WRITE_SHARED)
    assert private.system_prompt == DEFAULT_PRIVATE_WRITE_PROMPT
    assert shared.system_prompt == DEFAULT_SHARED_WRITE_PROMPT


# --- one typed config: every section checked at load, every value echoed ---

SHARED_REDACTOR = {"kind": "redactor", "rules": [["{user}", "[user]"]]}

# each case was accepted, or failed only when the runtime was built
LOAD_ERRORS = {
    "workload-overlp": ("workload", {"synthetic": {"count": 5}, "overlp": 0.9}, "workload.*overlp"),
    "coordinator-endpont": ("coordinator", {"endpont": "http://127.0.0.1:1/c"}, "coordinator.*endpont"),
    "aggregator-endpont": ("aggregator", {"endpont": "http://127.0.0.1:1/a"}, "aggregator.*endpont"),
    "judge-kidn": ("judge", {"kidn": "redactor"}, "judge.*kidn"),
    "limits-zero-rounds": ("limits", {"max_rounds": 0}, "limits.*max_rounds"),
    "limits-not-a-number": ("limits", {"max_rounds": "x"}, "limits"),
    "retrieval-threshold": ("retrieval", {"threshold": 2}, "retrieval.*threshold"),
    "embedder-remot": ("embedder", {"kind": "remot"}, "embedder.*remot"),
    "embedder-no-endpoint": ("embedder", {"kind": "remote"}, "embedder.*endpoint"),
    "policies-write_shard": ("policies", {"write_shard": SHARED_REDACTOR}, "policies.*write_shard"),
    "policies-rulez": (
        "policies",
        {"write_shared": {"kind": "redactor", "rulez": SHARED_REDACTOR["rules"]}},
        "write_shared.*rulez",
    ),
    "policies-scop": (
        "policies",
        {"scoped": [{"direction": "read", "scop": {"level": "user", "user": "user_1"}}]},
        r"scoped\[0\].*scop",
    ),
    "workload-two-shapes": (
        "workload",
        {"synthetic": {"count": 5}, "per_user": {"user_1": ["q"]}},
        "workload.*per_user.*synthetic",
    ),
    "timeline-phases-and-schedule": (
        "timeline",
        {"schedule": {"targets": [1]}, "phases": [{"label": "p0", "events": []}]},
        "timeline.*schedule takes no phases",
    ),
    "timeline-schedule-and-user_agents": (
        "timeline",
        {"schedule": {"targets": [1]}, "user_agents": "all"},
        "timeline.*schedule takes no phases or user_agents",
    ),
    "schedule-q": ("timeline", {"schedule": {"targets": [3], "q": 0.3}}, r"timeline\.schedule.*q"),
    "schedule-phases-q": (
        "timeline",
        {"schedule": {"phases": [{"label": "g", "action": "grant", "target": 3}], "q": 0.3}},
        r"timeline\.schedule.*q",
    ),
    "schedule-labels": (
        "timeline",
        {"schedule": {"targets": [3], "labels": ["g"]}},
        r"timeline\.schedule.*labels",
    ),
    "schedule-empty": ("timeline", {"schedule": {}}, "schedule takes one of targets or phases"),
    "phase-evnts": ("timeline", {"phases": [{"label": "p0", "evnts": []}]}, r"phases\[0\].*evnts"),
    "phase-labl": ("timeline", {"phases": [{"labl": "p0", "events": []}]}, r"phases\[0\].*labl"),
    "scope-levl": (
        "policies",
        {"scoped": [{"direction": "read", "scope": {"levl": "user", "user": "user_1"}}]},
        r"scoped\[0\]\.scope.*levl",
    ),
    "scope-usr": (
        "policies",
        {"scoped": [{"direction": "read", "scope": {"level": "user", "usr": "user_1"}}]},
        r"scoped\[0\]\.scope.*usr",
    ),
    "scope-unknown-level": (
        "policies",
        {"scoped": [{"direction": "read", "scope": {"level": "usr", "user": "user_1"}}]},
        r"scoped\[0\]\.scope.*usr",
    ),
    "scope-without-its-user": (
        "policies",
        {"scoped": [{"direction": "read", "scope": {"level": "user"}}]},
        r"scoped\[0\]\.scope",
    ),
    "embedder-dimension-1": ("embedder", {"dimension": 1}, "embedder.*dimension"),
    # text where a list belongs was split into its characters
    "users-text": ("users", "abc", "users must be a list"),
    "policies-rules-text": (
        "policies",
        {"write_shared": {"kind": "redactor", "rules": ["ab"]}},
        "write_shared.*rules",
    ),
}


@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_a_misspelt_or_invalid_section_fails_at_load(case):
    section, value, match = LOAD_ERRORS[case]
    doc = overlap_config()
    doc[section] = value
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize(
    "section, value, match",
    [
        ("workload", {"synthetic": {"cont": 5}}, "count"),
        (
            "timeline",
            {"schedule": {"phases": [{"label": "g", "action": "grnt", "target": 3}]}},
            "grnt",
        ),
        # text where a list belongs was split into its characters
        ("workload", {"queries": "what is x"}, r"workload\.queries"),
        ("workload", {"per_user": {"user_1": "what is x"}}, r"workload\.per_user\.user_1"),
        (
            "workload",
            {"decompose": {"queries": "plan", "roles": {"user_1": "r"}}},
            r"workload\.decompose\.queries",
        ),
        ("timeline", {"schedule": {"targets": "510"}}, r"timeline\.schedule\.targets"),
        ("timeline", {"user_agents": ["ab"]}, r"timeline\.user_agents"),
        # a keyword other than the field's own is not a list of pairs
        ("timeline", {"agent_resources": "bogus"}, r"timeline\.agent_resources"),
        ("timeline", {"user_agents": "everyone"}, r"timeline\.user_agents"),
        ("timeline", {"agent_resources": None}, r"timeline\.agent_resources"),
        # the synthetic workload's queries are drawn from the agents' categories
        ("agents", [], r"workload\.synthetic.*agent"),
    ],
    ids=[
        "synthetic-cont",
        "schedule-phase-action",
        "queries-text",
        "per_user-text",
        "decompose-queries-text",
        "schedule-targets-text",
        "user_agents-pair-text",
        "agent_resources-unknown-keyword",
        "user_agents-unknown-keyword",
        "agent_resources-null",
        "synthetic-count-no-agents",
    ],
)
def test_a_malformed_workload_or_schedule_fails_at_plan(section, value, match):
    doc = overlap_config()
    doc[section] = value
    with pytest.raises(ConfigError, match=match):
        plan_scenario(ScenarioConfig.from_dict(doc))


def test_a_per_user_per_category_workload_with_no_agents_fails_at_plan():
    doc = overlap_config()
    doc["agents"] = []
    doc["workload"] = {"synthetic": {"per_user_per_category": 2}}
    with pytest.raises(ConfigError, match=r"workload\.synthetic.*agent"):
        plan_scenario(ScenarioConfig.from_dict(doc))


@pytest.mark.parametrize("source", ["phases", "schedule"])
def test_two_phases_of_one_label_fail_at_plan(source):
    # a phase's label names its metrics bin and its access matrices
    if source == "phases":
        doc = revocation_phase_config()
        for phase in doc["timeline"]["phases"]:
            phase["label"] = "same"
    else:
        doc = dynamic_config()
        phases = [{"label": "same", "action": "grant", "target": n} for n in (2, 4)]
        doc["timeline"]["schedule"] = {"phases": phases}
    with pytest.raises(ConfigError, match="duplicate phase labels.*same"):
        plan_scenario(ScenarioConfig.from_dict(doc))


def test_schedule_numbers_given_as_strings_still_load():
    as_numbers = ScenarioConfig.from_dict(dynamic_config(targets=[2, 4, 2], p=0.3))
    doc = dynamic_config()
    doc["timeline"]["schedule"] = {"targets": ["2", "4", "2"], "p": "0.3", "seed": str(doc["seed"])}
    assert plan_scenario(ScenarioConfig.from_dict(doc)) == plan_scenario(as_numbers)


USER_1_SCOPE = {"level": "user", "user": "user_1"}


@pytest.mark.parametrize(
    "policies, direction",
    [
        ({"read": None}, Direction.READ),
        ({"write_private": None}, Direction.WRITE_PRIVATE),
        ({"write_shared": None}, Direction.WRITE_SHARED),
        (
            {"scoped": [{"direction": "write_shared", "scope": USER_1_SCOPE, "transformer": None}]},
            Direction.WRITE_SHARED,
        ),
    ],
    ids=["read", "write_private", "write_shared", "scoped"],
)
def test_a_null_transformer_is_the_identity(policies, direction):
    doc = overlap_config()
    doc["policies"] = policies
    doc["judge"] = None
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.judge is None
    transformer = build_policies(cfg).resolve(user("user_1"), agent("domain1_agent"), 0, direction)
    assert isinstance(transformer, IdentityTransform)


def test_empty_workload_and_timeline_still_load():
    doc = overlap_config()
    doc["workload"] = doc["timeline"] = {}
    ScenarioConfig.from_dict(doc)


def test_echo_records_every_effective_value(tmp_path):
    artifacts = run_scenario(ScenarioConfig.from_dict(revocation_phase_config()), tmp_path)
    echo = json.loads(artifacts.config_echo_path.read_text())
    assert echo["retrieval"] == {"k_user": 10, "k_cross": 10, "threshold": 0.1}
    assert echo["limits"] == {"max_rounds": 6, "coordinator_retries": 2}
    assert echo["coordinator"] == echo["aggregator"] == {"endpoint": None, "system_prompt": ""}
    assert echo["policies"]["write_shared"]["rules"] == SHARED_REDACTOR["rules"]
    dynamic = run_scenario(ScenarioConfig.from_dict(dynamic_config()), tmp_path / "dynamic")
    assert json.loads(dynamic.config_echo_path.read_text())["timeline"]["schedule"]["p"] == 0.2


@pytest.mark.parametrize(
    "config", [overlap_config, dynamic_config, asymmetric_config, revocation_phase_config]
)
def test_rerun_from_the_echoed_config_is_byte_identical(tmp_path, config):
    first = run_scenario(ScenarioConfig.from_dict(config()), tmp_path / "first")
    run_scenario(load_config(first.config_echo_path), tmp_path / "again")
    for name in (
        "audit.jsonl",
        "store.jsonl",
        "timeline.jsonl",
        "transcript.jsonl",
        "metrics.csv",
        "config.echo.json",
    ):
        first_bytes = (tmp_path / "first" / name).read_bytes()
        assert first_bytes == (tmp_path / "again" / name).read_bytes(), name


def test_a_seed_override_writes_what_a_config_of_that_seed_writes(tmp_path):
    doc = dynamic_config(per_user_per_category=1)
    run_scenario(ScenarioConfig.from_dict(doc), tmp_path / "default")
    run_scenario(ScenarioConfig.from_dict(doc), tmp_path / "override", seed=8)
    doc["seed"] = 8
    run_scenario(ScenarioConfig.from_dict(doc), tmp_path / "config")
    names = sorted(path.name for path in (tmp_path / "config").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "override").iterdir())
    for name in names:
        override = (tmp_path / "override" / name).read_bytes()
        assert override == (tmp_path / "config" / name).read_bytes(), name
    default = (tmp_path / "default" / "timeline.jsonl").read_bytes()
    assert default != (tmp_path / "config" / "timeline.jsonl").read_bytes()


def test_readme_config_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Scenario configs", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    assert ScenarioConfig.from_dict(yaml.safe_load(example)).name == "dynamic"
