from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from memfabric import (
    AccessTimeline,
    AuditAction,
    AuditLog,
    AuditRecord,
    MemoryFragment,
    MemoryStore,
    PrincipalDirectory,
    Provenance,
    ScenarioConfig,
    Tier,
    Violation,
    agent,
    iter_audit_file,
    resource,
    run_scenario,
    torn_tail,
    user,
    verify_files,
    verify_run,
)
from memfabric.store import LogState
from scenarios import overlap_config


def honest_run():
    """A tiny hand-built run whose every record is justified."""
    directory = PrincipalDirectory()
    for n in ("u1", "u2"):
        directory.add_user(n)
    directory.add_agent("a1")
    directory.add_resource("r1")
    audit = AuditLog()
    timeline = AccessTimeline(directory, audit=audit)
    store = MemoryStore(4, directory=directory, audit=audit)
    timeline.grant((user("u1"), agent("a1")), 1)
    timeline.grant((user("u2"), agent("a1")), 2)
    timeline.grant((agent("a1"), resource("r1")), 3)

    audit.append(4, "u1", AuditAction.EPISODE_START, ("ep-0",), {"bin": "all", "query": "q"})
    audit.append(4, "u1", AuditAction.AGENT_INVOKE, ("a1",), {"episode": "ep-0", "subquery": "q"})
    audit.append(
        4, "u1", AuditAction.FRAGMENT_READ, (),
        {"episode": "ep-0", "user": "u1", "agent": "a1", "user_tier": [], "cross_tier": []},
    )
    audit.append(
        4, "a1", AuditAction.RESOURCE_INVOKE, ("r1",), {"episode": "ep-0", "user": "u1", "query": "q"}
    )
    emb = np.zeros(4)
    emb[0] = 1.0
    store.insert(
        MemoryFragment(
            id="frag-1",
            tier=Tier.SHARED,
            key="q",
            value="answer",
            embedding=emb,
            provenance=Provenance(4, user("u1"), frozenset({agent("a1")}), frozenset({resource("r1")})),
        )
    )
    audit.append(4, "u1", AuditAction.EPISODE_END, ("ep-0",), {"failure": None, "rounds": 1})

    audit.append(5, "u2", AuditAction.EPISODE_START, ("ep-1",), {"bin": "all", "query": "q"})
    audit.append(5, "u2", AuditAction.AGENT_INVOKE, ("a1",), {"episode": "ep-1", "subquery": "q"})
    audit.append(
        5, "u2", AuditAction.FRAGMENT_READ, ("frag-1",),
        {"episode": "ep-1", "user": "u2", "agent": "a1", "user_tier": [], "cross_tier": ["frag-1"]},
    )
    audit.append(5, "u2", AuditAction.EPISODE_END, ("ep-1",), {"failure": None, "rounds": 1})
    return directory, timeline, store, audit


def test_honest_run_verifies_clean():
    _, timeline, store, audit = honest_run()
    assert verify_run(audit.records, timeline, store) == []


def _with_record(records, **kwargs):
    last = records[-1]
    defaults = dict(
        seq=last.seq + 1, at=last.at, actor="u1", action=AuditAction.FRAGMENT_READ,
        subjects=(), detail={},
    )
    defaults.update(kwargs)
    return list(records) + [AuditRecord(**defaults)]


def test_illegal_read_detected_after_revoke():
    _, timeline, store, audit = honest_run()
    timeline.attach_audit(None)
    timeline.revoke((user("u2"), agent("a1")), 6)
    tampered = _with_record(
        audit.records,
        at=7,
        actor="u2",
        subjects=("frag-1",),
        detail={"user": "u2", "agent": "a1", "user_tier": [], "cross_tier": ["frag-1"]},
    )
    violations = verify_run(tampered, timeline, store)
    assert any(v.code == "fragment_not_admissible" for v in violations)


def test_sequence_gap_detected():
    _, timeline, store, audit = honest_run()
    records = [r for r in audit.records if r.seq != 3]
    violations = verify_run(records, timeline, store)
    assert any(v.code == "seq_gap" for v in violations)


def test_time_regression_detected():
    _, timeline, store, audit = honest_run()
    tampered = _with_record(audit.records, at=1, action=AuditAction.EPISODE_START,
                            subjects=("ep-9",), detail={"bin": "all", "query": "q"})
    violations = verify_run(tampered, timeline, store)
    assert any(v.code == "time_regression" for v in violations)


def test_agent_invoke_outside_grant_detected():
    directory, timeline, store, audit = honest_run()
    directory.add_agent("a9")
    tampered = _with_record(
        audit.records, actor="u1", action=AuditAction.AGENT_INVOKE,
        subjects=("a9",), detail={"episode": "ep-1", "subquery": "s"},
    )
    violations = verify_run(tampered, timeline, store)
    assert any(v.code == "agent_not_granted" for v in violations)


def test_resource_invoke_outside_grant_detected():
    _, timeline, store, audit = honest_run()
    tampered = _with_record(
        audit.records, actor="a1", action=AuditAction.RESOURCE_INVOKE,
        subjects=("r9",), detail={"episode": "ep-1", "user": "u1", "query": "s"},
    )
    violations = verify_run(tampered, timeline, store)
    assert any(v.code == "resource_not_granted" for v in violations)


def test_unknown_fragment_read_detected():
    _, timeline, store, audit = honest_run()
    tampered = _with_record(
        audit.records, subjects=("ghost",),
        detail={"user": "u1", "agent": "a1", "user_tier": [], "cross_tier": ["ghost"]},
    )
    violations = verify_run(tampered, timeline, store)
    assert any(v.code == "fragment_unknown" for v in violations)


def test_future_read_detected():
    _, timeline, store, audit = honest_run()
    records = list(audit.records)
    # rewrite the u2 read to happen before the fragment existed
    doctored = []
    for r in records:
        if r.action is AuditAction.FRAGMENT_READ and r.subjects:
            doctored.append(AuditRecord(r.seq, 3, r.actor, r.action, r.subjects, dict(r.detail)))
        else:
            doctored.append(AuditRecord(r.seq, min(r.at, 3), r.actor, r.action, r.subjects, dict(r.detail)))
    violations = verify_run(doctored, timeline, store)
    assert any(v.code == "fragment_future_read" for v in violations)


def test_permission_record_without_event_detected():
    _, timeline, store, audit = honest_run()
    tampered = _with_record(
        audit.records, actor="admin", action=AuditAction.GRANT,
        subjects=("user:u1", "agent:a9"),
        detail={"edge": {"user": "u1", "agent": "a9"}},
    )
    violations = verify_run(tampered, timeline, store)
    assert any(v.code == "permission_event_mismatch" for v in violations)


def test_write_with_ungranted_provenance_detected():
    directory, timeline, store, audit = honest_run()
    emb = np.zeros(4)
    emb[1] = 1.0
    directory.add_agent("a9")
    rogue = MemoryFragment(
        id="frag-rogue",
        tier=Tier.SHARED,
        key="k",
        value="v",
        embedding=emb,
        provenance=Provenance(5, user("u1"), frozenset({agent("a9")})),
    )
    store.attach_audit(None)
    store.insert(rogue)
    tampered = _with_record(
        audit.records, at=5, actor="u1", action=AuditAction.FRAGMENT_WRITE,
        subjects=("frag-rogue",), detail={"tier": "shared", "agents": ["a9"], "resources": []},
    )
    violations = verify_run(tampered, timeline, store)
    assert any(v.code == "write_agents_not_granted" for v in violations)


def test_verify_files_round_trip(tmp_path):
    _, timeline, store, audit = honest_run()
    audit_path = tmp_path / "audit.jsonl"
    audit_path.write_text(audit.to_jsonl())
    timeline_path = tmp_path / "timeline.jsonl"
    timeline.save(timeline_path)
    store_path = tmp_path / "store.jsonl"
    store.save(store_path)
    assert verify_files(audit_path, timeline_path, store_path) == []

    # inject a read by a user that neither the timeline nor the store knows
    lines = audit_path.read_text().splitlines()
    last = json.loads(lines[-1])
    lines.append(
        json.dumps(
            {
                "seq": last["seq"] + 1,
                "at": last["at"],
                "actor": "u9",
                "action": "fragment_read",
                "subjects": ["frag-1"],
                "detail": {"user": "u9", "agent": "a1", "user_tier": [], "cross_tier": ["frag-1"]},
            },
            sort_keys=True,
        )
    )
    audit_path.write_text("\n".join(lines) + "\n")
    violations = verify_files(audit_path, timeline_path, store_path)
    assert [v.code for v in violations] == ["unknown_principal"]


# --- the audit log is the one source of truth ---


@pytest.fixture(scope="module")
def overlap_run(tmp_path_factory):
    cfg = ScenarioConfig.from_dict(overlap_config(count=12, n_users=3, n_agents=2))
    return run_scenario(cfg, tmp_path_factory.mktemp("overlap"))


def tampered_copy(artifacts, tmp_path, name, edit):
    """Copy the run's three files into ``tmp_path``, then rewrite the lines of
    file ``name`` with ``edit``; return the three paths, once the streamed
    verifier agrees with the listed one on them."""
    paths = []
    for src in (artifacts.audit_path, artifacts.timeline_path, artifacts.store_path):
        lines = src.read_text().splitlines()
        if src.name == name:
            lines = edit(lines)
        paths.append(tmp_path / src.name)
        paths[-1].write_text("".join(line + "\n" for line in lines))
    assert_streamed_as_listed(*paths)
    return paths


def verify_listed(audit, timeline=None, store=None):
    """What ``verify_files`` reports, computed by ``verify_run`` over the whole
    log decoded into a list, and the timeline and store each replayed from it
    in a pass of its own."""
    directory = PrincipalDirectory()
    records, tail = list(iter_audit_file(audit)), torn_tail(audit)

    def replay(timeline=None, store=None):
        state = LogState(timeline, store, lambda key: [1.0], strict=False)
        for rec in records:
            state.feed(rec)

    if timeline is None:
        timeline = AccessTimeline(directory)
        replay(timeline=timeline)
    else:
        timeline = AccessTimeline.load(timeline, directory=directory)
    if store is None:
        store = MemoryStore(1, directory)
        replay(store=store)
    else:
        store = MemoryStore.load(store, directory=directory)
    violations = verify_run(records, timeline, store)
    if tail:
        message = f"{len(tail)} bytes after the last newline: a torn last record"
        violations.append(Violation(None, "log_torn_tail", message))
    return violations


def assert_streamed_as_listed(audit, timeline, store):
    """Streamed and listed, with the exports and from the log alone, the same
    violations: codes, seqs and messages."""
    for given_timeline in (timeline, None):
        for given_store in (store, None):
            streamed = verify_files(audit, given_timeline, given_store)
            assert streamed == verify_listed(audit, given_timeline, given_store)


def codes_with_and_without_store(audit, timeline, store) -> tuple[list[str], list[str]]:
    """The violation codes of the log verified with its store export, then with
    the store replayed from the log."""
    return tuple([v.code for v in verify_files(audit, timeline, given)] for given in (store, None))


def test_the_honest_run_verifies_clean_with_and_without_its_timeline(overlap_run):
    a = overlap_run
    assert verify_files(a.audit_path, a.timeline_path, a.store_path) == []
    assert verify_files(a.audit_path, None, a.store_path) == []
    assert verify_files(a.audit_path) == []


def test_an_unaudited_revoke_in_the_timeline_is_a_violation(overlap_run, tmp_path):
    last_at = list(iter_audit_file(overlap_run.audit_path))[-1].at
    revoke = {"action": "revoke", "edge": {"user": "user_1", "agent": "domain1_agent"}}
    audit, timeline, store = tampered_copy(
        overlap_run, tmp_path, "timeline.jsonl",
        lambda lines: lines + [json.dumps({**revoke, "tick": last_at + 1}, sort_keys=True)],
    )
    codes = [v.code for v in verify_files(audit, timeline, store)]
    assert codes == ["permission_event_unaudited"]


def test_a_stored_fragment_without_a_write_record_is_a_violation(overlap_run, tmp_path):
    def copy_first(lines):
        doc = json.loads(lines[0])
        return lines + [json.dumps({**doc, "id": "copied-fragment"}, sort_keys=True)]

    audit, timeline, store = tampered_copy(overlap_run, tmp_path, "store.jsonl", copy_first)
    for given in (timeline, None):
        assert [v.code for v in verify_files(audit, given, store)] == ["fragment_unaudited"]


def test_rewritten_provenance_is_a_violation(overlap_run, tmp_path):
    def strip_resources(lines):
        docs = [json.loads(line) for line in lines]
        shared = next(d for d in docs if d["tier"] == "shared" and d["provenance"]["resources"])
        shared["provenance"]["resources"] = []
        return [json.dumps(d, sort_keys=True) for d in docs]

    audit, timeline, store = tampered_copy(overlap_run, tmp_path, "store.jsonl", strip_resources)
    for given in (timeline, None):
        codes = [v.code for v in verify_files(audit, given, store)]
        assert codes == ["write_provenance_mismatch"]


@pytest.mark.parametrize("edit", ["duplicate", "malformed"])
def test_an_unreplayable_grant_record_is_a_violation_not_an_exception(
    overlap_run, tmp_path, edit
):
    def tamper(lines):
        i = next(i for i, line in enumerate(lines) if json.loads(line)["action"] == "grant")
        if edit == "duplicate":
            return lines[: i + 1] + lines[i:]
        doc = json.loads(lines[i])
        doc["detail"]["edge"] = {"user": "user_1"}
        return lines[:i] + [json.dumps(doc, sort_keys=True)] + lines[i + 1 :]

    audit, timeline, store = tampered_copy(overlap_run, tmp_path, "audit.jsonl", tamper)
    expected = {"duplicate": "permission_event_mismatch", "malformed": "permission_event_malformed"}
    for given in (timeline, None):
        with_store, from_log = codes_with_and_without_store(audit, given, store)
        assert expected[edit] in with_store and with_store == from_log


@pytest.mark.parametrize("edit", ["duplicate", "malformed"])
def test_an_unreplayable_write_record_is_a_violation_not_an_exception(
    overlap_run, tmp_path, edit
):
    def tamper(lines):
        i = next(i for i, line in enumerate(lines) if json.loads(line)["action"] == "fragment_write")
        if edit == "duplicate":
            return lines[: i + 1] + lines[i:]
        doc = json.loads(lines[i])
        doc["detail"]["tier"] = "public"
        return lines[:i] + [json.dumps(doc, sort_keys=True)] + lines[i + 1 :]

    audit, timeline, store = tampered_copy(overlap_run, tmp_path, "audit.jsonl", tamper)
    for given in (timeline, None):
        with_store, from_log = codes_with_and_without_store(audit, given, store)
        if edit == "duplicate":
            assert "fragment_rewritten" in with_store and with_store == from_log
        else:
            # the export holds the fragment the record no longer describes; a
            # replay leaves the record out, so its write and reads name no fragment
            assert with_store == ["write_provenance_mismatch"]
            assert set(from_log) == {"fragment_unknown"}


def test_an_edited_value_in_the_store_export_is_a_violation(overlap_run, tmp_path):
    def edit_value(lines):
        doc = json.loads(lines[0])
        return [json.dumps({**doc, "value": doc["value"] + " (edited)"}, sort_keys=True)] + lines[1:]

    audit, timeline, store = tampered_copy(overlap_run, tmp_path, "store.jsonl", edit_value)
    for given in (timeline, None):
        assert [v.code for v in verify_files(audit, given, store)] == ["write_provenance_mismatch"]


def test_verify_cli_needs_no_timeline(overlap_run, tmp_path):
    def verify(audit, store=None):
        command = [sys.executable, "-m", "memfabric.cli", "verify", "--audit", str(audit)]
        command += [] if store is None else ["--store", str(store)]
        return subprocess.run(command, capture_output=True, text=True)

    for store in (overlap_run.store_path, None):
        honest = verify(overlap_run.audit_path, store)
        assert (honest.returncode, honest.stdout) == (0, "OK: no violations\n"), honest.stderr
    copied = lambda lines: lines + [lines[0].replace('"id": "', '"id": "copy-')]  # noqa: E731
    audit, _, store = tampered_copy(overlap_run, tmp_path, "store.jsonl", copied)
    tampered = verify(audit, store)
    assert tampered.returncode == 1 and "fragment_unaudited" in tampered.stdout

    # the log alone: a second write record of one fragment
    rewritten = lambda lines: lines + [next(line for line in lines if "fragment_write" in line)]  # noqa: E731
    audit, _, _ = tampered_copy(overlap_run, tmp_path, "audit.jsonl", rewritten)
    tampered = verify(audit)
    assert tampered.returncode == 1 and "fragment_rewritten" in tampered.stdout


def test_a_torn_last_line_is_one_violation_not_an_exception(overlap_run, tmp_path):
    # a process killed mid-append leaves the last line of its log cut short
    audit = tmp_path / "audit.jsonl"
    audit.write_bytes(overlap_run.audit_path.read_bytes()[:-40])
    assert [v.code for v in verify_files(audit)] == ["log_torn_tail"]
    command = [sys.executable, "-m", "memfabric.cli", "verify", "--audit", str(audit)]
    result = subprocess.run(command, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (1, "") and "log_torn_tail" in result.stdout


def test_an_episode_the_log_goes_on_past_without_its_end_is_unterminated(overlap_run, tmp_path):
    # an episode that raised and left the process running; only one still
    # open at the end of the log is the operation a killed process loses
    def drop_a_mid_log_episode_end(lines):
        docs = [json.loads(line) for line in lines]
        ends = [i for i, doc in enumerate(docs) if doc["action"] == "episode_end"]
        del docs[ends[len(ends) // 2]]
        for seq, doc in enumerate(docs):
            doc["seq"] = seq
        return [json.dumps(doc, sort_keys=True) for doc in docs]

    paths = tampered_copy(overlap_run, tmp_path, "audit.jsonl", drop_a_mid_log_episode_end)
    assert codes_with_and_without_store(*paths) == (["episode_unterminated"],) * 2


# --- verify streams the log ---


def test_the_honest_and_the_torn_log_verify_streamed_as_listed(overlap_run, tmp_path):
    a = overlap_run
    assert_streamed_as_listed(a.audit_path, a.timeline_path, a.store_path)
    torn = tmp_path / "audit.jsonl"
    torn.write_bytes(a.audit_path.read_bytes()[:-40])
    assert_streamed_as_listed(torn, a.timeline_path, a.store_path)


def test_a_read_by_an_unknown_agent_is_one_violation_per_stored_id(overlap_run, tmp_path):
    # the reader's grants are taken once per record; each id still reports
    def read_by_a_ghost(lines):
        last = json.loads(lines[-1])
        ids = [json.loads(line)["subjects"][0] for line in lines if "fragment_write" in line][:3]
        detail = {"user": "user_1", "agent": "ghost_agent", "user_tier": ids, "cross_tier": []}
        read = {"seq": last["seq"] + 1, "at": last["at"], "actor": "user_1",
                "action": "fragment_read", "subjects": ids, "detail": detail}
        return lines + [json.dumps(read, sort_keys=True)]

    audit, timeline, store = tampered_copy(overlap_run, tmp_path, "audit.jsonl", read_by_a_ghost)
    for given in (timeline, None):
        with_store, from_log = codes_with_and_without_store(audit, given, store)
        assert with_store == from_log == ["unknown_principal"] * 3


def test_verify_keeps_no_record_of_the_log_in_memory(tmp_path):
    directory = PrincipalDirectory()
    directory.add_user("u1")
    directory.add_agent("a1")
    audit = AuditLog(tmp_path / "audit.jsonl")
    timeline = AccessTimeline(directory, audit=audit)
    timeline.grant((user("u1"), agent("a1")), 1)
    detail = {"subquery": "x" * 2000}
    for t in range(2, 5002):
        audit.append(t, "u1", AuditAction.AGENT_INVOKE, ("a1",), detail)
    audit.close()
    timeline_path = tmp_path / "timeline.jsonl"
    timeline.save(timeline_path)
    # decoded, the log is 5,000 records of 2 KB each
    for given in (timeline_path, None):
        tracemalloc.start()
        try:
            assert verify_files(audit.path, given) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
