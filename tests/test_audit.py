from __future__ import annotations

import contextlib
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from memfabric import (
    AuditAction,
    AuditLog,
    AuditRecord,
    EmptyWindow,
    NonMonotonicTimestamp,
    access_matrix,
    compute_metrics,
    iter_audit_file,
    torn_tail,
)
from memfabric.store import LogState
from rtutil import CountingFlushes


def test_append_assigns_gap_free_sequence():
    log = AuditLog()
    assert log.append(1, "admin", AuditAction.GRANT) == 0
    assert log.append(1, "admin", AuditAction.GRANT) == 1
    assert [r.seq for r in log] == [0, 1]


def test_append_rejects_regressing_tick():
    log = AuditLog()
    log.append(5, "admin", AuditAction.GRANT)
    with pytest.raises(NonMonotonicTimestamp):
        log.append(4, "admin", AuditAction.GRANT)


def test_the_reader_leaves_a_torn_tail_to_torn_tail_and_raises_on_a_bad_line(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    log.append(1, "u1", AuditAction.EPISODE_START, ("ep-0",), {"bin": "all", "query": "q"})
    log.append(1, "u1", AuditAction.EPISODE_END, ("ep-0",), {"failure": None, "rounds": 0})
    log.close()
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"action": "ep')
    assert (list(iter_audit_file(path)), torn_tail(path)) == (list(log.records), b'{"action": "ep')
    path.write_bytes(whole + b"  ")  # blank: nothing torn
    assert (list(iter_audit_file(path)), torn_tail(path)) == (list(log.records), b"")
    path.write_bytes(whole.replace(b'"ep-0"', b'"ep-0', 1))
    with pytest.raises(ValueError):
        list(iter_audit_file(path))


def test_a_file_backed_log_keeps_no_record_in_memory(tmp_path):
    log = AuditLog(tmp_path / "audit.jsonl")
    detail = {"user": "u1", "agent": "a1", "user_tier": ["f1", "f2"], "cross_tier": ["f3"]}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(5000):
            log.append(t, "u1", AuditAction.FRAGMENT_READ, ("f1", "f2", "f3"), detail)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        log.close()
    assert len(log) == 5000 and grown < 100_000


def test_a_reader_racing_an_appender_never_sees_a_torn_line(tmp_path):
    # each record outgrows the write buffer, so the file often ends mid-line
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    written = threading.Event()

    def append_all() -> None:
        for block in range(200):
            with log.operation() if block % 2 else contextlib.nullcontext():
                for i in range(block * 10, block * 10 + 10):
                    log.append(i, "u1", AuditAction.AGENT_INVOKE, ("a1",), {"pad": "x" * 10_000})
        written.set()

    def read_until_written() -> list[AuditRecord]:
        while True:
            last = written.is_set()
            records = list(log)
            assert [r.seq for r in records] == list(range(len(records)))
            if last:
                return records

    with ThreadPoolExecutor(2) as pool:
        reader = pool.submit(read_until_written)
        pool.submit(append_all).result()
        records = reader.result()
    log.close()
    assert len(records) == 2000 and records == list(iter_audit_file(path))


def test_jsonl_round_trip_and_resume(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    log.append(1, "u1", AuditAction.EPISODE_START, ("ep-0",), {"bin": "all", "query": "q"})
    log.append(1, "u1", AuditAction.EPISODE_END, ("ep-0",), {"failure": None, "rounds": 0})
    log.close()
    with contextlib.closing(AuditLog.continuing(path, LogState().fold(path))) as resumed:
        assert len(resumed) == 2
        assert resumed.append(2, "u1", AuditAction.EPISODE_START, ("ep-1",)) == 2
    assert [r.seq for r in iter_audit_file(path)] == [0, 1, 2]


def test_resume_ends_an_episode_left_open_as_it_reopens_the_log(tmp_path):
    # a killed process can leave an episode's first records without its end
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    log.append(1, "u1", AuditAction.EPISODE_START, ("ep-0",), {"bin": "all", "query": "q"})
    log.append(1, "u1", AuditAction.AGENT_INVOKE, ("a1",), {"episode": "ep-0", "subquery": "q"})
    log.close()
    kept = path.read_bytes()
    with contextlib.closing(AuditLog.continuing(path, LogState().fold(path))) as resumed:
        assert len(resumed) == 3 and path.read_bytes().startswith(kept)
        assert resumed.append(2, "admin", AuditAction.GRANT, ("user:u1", "agent:a1")) == 3
    end = list(iter_audit_file(path))[2]
    assert (end.seq, end.at, end.actor, end.action, end.subjects) == (
        2, 1, "u1", AuditAction.EPISODE_END, ("ep-0",)
    )
    assert end.detail == {"failure": "interrupted", "rounds": 1}


def test_a_strict_fold_accepts_an_episode_left_open_in_mid_log(tmp_path):
    # logs written before every failing episode logged its end hold such episodes
    path = tmp_path / "audit.jsonl"
    with contextlib.closing(AuditLog(path)) as log:
        log.append(1, "u1", AuditAction.EPISODE_START, ("ep-0",), {"bin": "all", "query": "q"})
        log.append(1, "u1", AuditAction.AGENT_INVOKE, ("a1",), {"episode": "ep-0", "subquery": "q"})
        log.append(2, "u1", AuditAction.EPISODE_START, ("ep-1",), {"bin": "all", "query": "q"})
        log.append(2, "u1", AuditAction.EPISODE_END, ("ep-1",), {"failure": None, "rounds": 0})
    state = LogState().fold(path)
    assert (state.count, state.head, state.episodes, state.started) == (4, 2, 2, None)
    with contextlib.closing(AuditLog.continuing(path, state)) as resumed:
        assert len(resumed) == 4


def test_an_operation_flushes_its_records_once_at_the_outermost_exit(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    log._fp = sink = CountingFlushes(log._fp)
    with log.operation():
        log.append(1, "u1", AuditAction.EPISODE_START, ("ep-0",))
        with log.operation():
            log.append(1, "u1", AuditAction.AGENT_INVOKE, ("a1",))
        log.append(1, "u1", AuditAction.EPISODE_END, ("ep-0",))
        assert path.read_text() == "" and sink.flushes == 0
    assert path.read_text() == log.to_jsonl() and sink.flushes == 1
    log.close()


def test_a_record_appended_outside_an_operation_reaches_the_file_at_once(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    with log.operation():
        log.append(1, "u1", AuditAction.EPISODE_START, ("ep-0",))
    log.append(2, "admin", AuditAction.GRANT, ("user:u1", "agent:a1"))
    assert path.read_text() == log.to_jsonl()
    log.close()


def test_an_operation_that_raises_still_flushes(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path)
    with pytest.raises(RuntimeError), log.operation():
        log.append(1, "u1", AuditAction.EPISODE_START, ("ep-0",))
        raise RuntimeError("episode failed")
    assert path.read_text() == log.to_jsonl() != ""
    log.close()


def episode(log: AuditLog, eid: str, t: int, user: str, invocations, bin_label="all", score=None):
    log.append(t, user, AuditAction.EPISODE_START, (eid,), {"bin": bin_label, "query": eid})
    for agent_name, resource_calls, reads in invocations:
        log.append(
            t, user, AuditAction.AGENT_INVOKE, (agent_name,), {"episode": eid, "subquery": "s"}
        )
        log.append(
            t,
            user,
            AuditAction.FRAGMENT_READ,
            tuple(reads),
            {
                "episode": eid,
                "user": user,
                "agent": agent_name,
                "user_tier": list(reads[:1]),
                "cross_tier": list(reads[1:]),
            },
        )
        for _ in range(resource_calls):
            log.append(
                t,
                agent_name,
                AuditAction.RESOURCE_INVOKE,
                ("r1",),
                {"episode": eid, "user": user, "query": "s"},
            )
    detail = {"failure": None, "rounds": len(invocations)}
    if score is not None:
        detail["score"] = score
    log.append(t, user, AuditAction.EPISODE_END, (eid,), detail)


def test_distinct_agent_counting():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 0, []), ("a1", 0, []), ("a2", 0, [])])
    report = compute_metrics(log.records)
    assert report.bins[0].agent_utilization == 2.0


def test_resource_call_counting():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 3, [])])
    report = compute_metrics(log.records)
    assert report.bins[0].resource_utilization == 3.0


def test_memory_hit_means_split_by_tier():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 0, ["f1", "f2", "f3"])])
    episode(log, "ep-1", 2, "u1", [("a1", 0, [])])
    report = compute_metrics(log.records)
    b = report.bins[0]
    assert b.queries == 2
    assert b.memory_hits_user == 0.5
    assert b.memory_hits_cross == 1.0


def test_phase_binning_and_fixed_size_binning():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 1, [])], bin_label="t0")
    episode(log, "ep-1", 2, "u1", [("a1", 1, [])], bin_label="t1")
    episode(log, "ep-2", 3, "u1", [], bin_label="t1")
    by_phase = compute_metrics(log.records, "bin")
    assert [b.label for b in by_phase.bins] == ["t0", "t1"]
    assert by_phase.bin("t1").queries == 2
    by_size = compute_metrics(log.records, 2)
    assert [b.label for b in by_size.bins] == ["bin0", "bin1"]
    assert by_size.bin("bin0").queries == 2


def test_accuracy_absent_without_judge_present_with_scores():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [], score=0.5)
    episode(log, "ep-1", 2, "u1", [], score=1.0)
    report = compute_metrics(log.records)
    assert report.bins[0].accuracy == pytest.approx(0.75)
    bare = AuditLog()
    episode(bare, "ep-0", 1, "u1", [])
    assert compute_metrics(bare.records).bins[0].accuracy is None


def test_empty_window_raises():
    with pytest.raises(EmptyWindow):
        compute_metrics(AuditLog().records)


def test_metrics_stable_under_log_round_trip(tmp_path):
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 2, ["f1"])])
    episode(log, "ep-1", 2, "u2", [("a2", 1, [])])
    direct = compute_metrics(log.records)
    (tmp_path / "audit.jsonl").write_text(log.to_jsonl(), encoding="utf-8")
    reloaded = compute_metrics(iter_audit_file(tmp_path / "audit.jsonl"))
    assert direct.to_csv() == reloaded.to_csv()
    assert direct.to_summary() == reloaded.to_summary()


def test_access_matrix_empty_log():
    matrices = access_matrix(())
    assert matrices.user_agent == {} and matrices.user_resource == {}


def test_access_matrix_single_episode_single_cells():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 1, [])])
    matrices = access_matrix(log.records)
    assert matrices.user_agent == {"u1": {"a1": 1}}
    assert matrices.user_resource == {"u1": {"r1": 1}}


def test_access_matrix_window_filtering():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 1, [])])
    episode(log, "ep-1", 5, "u2", [("a2", 1, [])])
    early = access_matrix(log.records, (0, 2))
    assert "u2" not in early.user_agent
    assert early.user_agent["u1"]["a1"] == 1


def test_csv_shape_one_row_per_bin_metric():
    log = AuditLog()
    episode(log, "ep-0", 1, "u1", [("a1", 1, [])], bin_label="t0")
    csv = compute_metrics(log.records).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "bin,metric,value"
    metrics = [line.split(",")[1] for line in lines[1:]]
    assert metrics == [
        "queries",
        "agent_utilization",
        "resource_utilization",
        "memory_hits_user",
        "memory_hits_cross",
    ]
