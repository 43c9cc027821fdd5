from __future__ import annotations

import pytest

from memfabric import (
    EdgeKind,
    GraphSchedule,
    PermissionAction,
    SchedulePhase,
    UnreachableTarget,
    agent,
    generate_schedule,
    plan_schedule,
    schedule_from_targets,
    user,
)

USERS = [user(f"user_{i}") for i in range(1, 6)]
AGENTS = [agent(f"agent_{i}") for i in range(1, 6)]
LADDER = [5, 10, 15, 20, 25, 20, 15, 10, 5]


def test_targets_hit_exactly_at_phase_boundaries():
    schedule = schedule_from_targets(LADDER, seed=42, p=0.2)
    timeline, boundaries = generate_schedule(schedule, USERS, AGENTS)
    assert [b.edge_count for b in boundaries] == LADDER
    for b in boundaries:
        assert timeline.edge_count(b.tick, EdgeKind.USER_AGENT) == b.edge_count


def test_action_inference_from_targets():
    schedule = schedule_from_targets(LADDER, seed=0)
    actions = [ph.action for ph in schedule.phases]
    assert actions == [PermissionAction.GRANT] * 5 + [PermissionAction.REVOKE] * 4
    assert [ph.label for ph in schedule.phases] == [f"t{i}" for i in range(9)]


def test_p_one_single_phase_fills_the_graph():
    schedule = schedule_from_targets([25], seed=3, p=1.0)
    timeline, boundaries = generate_schedule(schedule, USERS, AGENTS)
    assert boundaries[0].edge_count == 25
    assert len(timeline.events) == 25


def test_deterministic_under_seed():
    schedule = schedule_from_targets(LADDER, seed=42, p=0.2)
    first, _ = generate_schedule(schedule, USERS, AGENTS)
    second, _ = generate_schedule(schedule, USERS, AGENTS)
    assert first.events == second.events
    assert first.to_jsonl() == second.to_jsonl()


def test_different_seeds_differ():
    a, _ = generate_schedule(schedule_from_targets(LADDER, seed=1), USERS, AGENTS)
    b, _ = generate_schedule(schedule_from_targets(LADDER, seed=2), USERS, AGENTS)
    assert a.events != b.events


def test_grants_only_add_absent_revokes_only_remove_present():
    # AccessTimeline enforces this; surviving a full plan replay proves the
    # plan respects it for every seed tried.
    for seed in range(10):
        schedule = schedule_from_targets(LADDER, seed=seed, p=0.35)
        generate_schedule(schedule, USERS, AGENTS)


def test_target_above_capacity_rejected():
    schedule = schedule_from_targets([26], seed=0)
    with pytest.raises(UnreachableTarget):
        plan_schedule(schedule, USERS, AGENTS)


def test_non_increasing_grant_rejected():
    schedule = GraphSchedule(
        phases=(
            SchedulePhase("t0", PermissionAction.GRANT, 10),
            SchedulePhase("t1", PermissionAction.GRANT, 10),
        ),
        seed=0,
    )
    with pytest.raises(UnreachableTarget):
        plan_schedule(schedule, USERS, AGENTS)


def test_revoke_below_zero_rejected():
    schedule = GraphSchedule(
        phases=(
            SchedulePhase("t0", PermissionAction.GRANT, 5),
            SchedulePhase("t1", PermissionAction.REVOKE, -1),
        ),
        seed=0,
    )
    with pytest.raises(UnreachableTarget):
        plan_schedule(schedule, USERS, AGENTS)


def test_initial_revoke_rejected():
    schedule = GraphSchedule(
        phases=(SchedulePhase("t0", PermissionAction.REVOKE, 0),), seed=0
    )
    with pytest.raises(UnreachableTarget):
        plan_schedule(schedule, USERS, AGENTS)


def test_probability_out_of_range_rejected():
    with pytest.raises(ValueError):
        GraphSchedule(phases=(SchedulePhase("t0", PermissionAction.GRANT, 1),), seed=0, p=0.0)
    with pytest.raises(ValueError):
        GraphSchedule(phases=(SchedulePhase("t0", PermissionAction.GRANT, 1),), seed=0, p=1.1)


def test_gen_schedule_p_defaults_to_the_schedule_default():
    from memfabric.cli import build_parser
    from memfabric.schedule import DEFAULT_ACCEPT_PROBABILITY

    argv = ["gen-schedule", "--users", "3", "--agents", "2", "--seed", "1", "--phases", "2,4"]
    assert build_parser().parse_args(argv).p == DEFAULT_ACCEPT_PROBABILITY
