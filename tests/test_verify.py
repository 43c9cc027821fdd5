from __future__ import annotations

import json

import numpy as np

from memfabric import (
    AccessTimeline,
    AuditAction,
    AuditLog,
    AuditRecord,
    MemoryFragment,
    MemoryStore,
    PrincipalDirectory,
    Provenance,
    Tier,
    agent,
    resource,
    user,
    verify_files,
    verify_run,
)


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
