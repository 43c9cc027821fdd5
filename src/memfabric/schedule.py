"""Stochastic grant/revoke schedules over the user->agent graph.

A schedule is a sequence of phases, each driving the user->agent edge count
to an exact target by adding absent edges (grant phases) or removing present
ones (revoke phases). Edge selection walks a seeded shuffle of the candidate
list, accepting each candidate as a Bernoulli trial with probability ``p``,
and re-walks (reshuffled) until the phase quota is met. The procedure is
deterministic given the seed, and the edge count at every phase boundary
equals the configured target exactly.

A planned phase is a :class:`ScenarioPhase`, the one phase type of the
package: a label and its ordered ``(action, edge)`` permission edits. A
scenario's explicit phases are the same type (:mod:`memfabric.harness`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .access import AccessTimeline, Edge, EdgeKind, PermissionAction
from .errors import UnreachableTarget
from .principals import PrincipalDirectory, PrincipalId, PrincipalKind

DEFAULT_ACCEPT_PROBABILITY = 0.2


@dataclass(frozen=True)
class SchedulePhase:
    label: str
    action: PermissionAction
    target: int


@dataclass(frozen=True)
class GraphSchedule:
    phases: tuple[SchedulePhase, ...]
    seed: int
    p: float = DEFAULT_ACCEPT_PROBABILITY

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"acceptance probability must be in (0, 1], got {self.p}")
        if not self.phases:
            raise ValueError("schedule needs at least one phase")


def schedule_from_targets(
    targets: Sequence[int], seed: int, p: float = DEFAULT_ACCEPT_PROBABILITY
) -> GraphSchedule:
    """Build a schedule from bare edge-count targets, phase ``i`` labelled ``t<i>``.

    The action of each phase is inferred from the direction of change
    relative to the previous target (starting from an empty graph), so
    ``5,10,15,20,25,20,15,10,5`` yields five grant phases then four revokes.
    """
    phases = []
    count = 0
    for i, target in enumerate(targets):
        action = PermissionAction.GRANT if target > count else PermissionAction.REVOKE
        phases.append(SchedulePhase(label=f"t{i}", action=action, target=target))
        count = target
    return GraphSchedule(phases=tuple(phases), seed=seed, p=p)


@dataclass(frozen=True)
class ScenarioPhase:
    """A labelled phase's ordered permission edits, each an action and an edge."""

    label: str
    permission_edits: tuple[tuple[PermissionAction, Edge], ...]


@dataclass(frozen=True)
class PhaseBoundary:
    label: str
    tick: int
    edge_count: int


def _bernoulli_draw(
    rng: random.Random, pool: list[Edge], quota: int, p: float
) -> list[Edge]:
    remaining = list(pool)
    rng.shuffle(remaining)
    picked: list[Edge] = []
    while len(picked) < quota:
        kept: list[Edge] = []
        for edge in remaining:
            if len(picked) < quota and rng.random() < p:
                picked.append(edge)
            else:
                kept.append(edge)
        remaining = kept
        rng.shuffle(remaining)
    return picked


def plan_schedule(
    schedule: GraphSchedule,
    users: Sequence[PrincipalId],
    agents: Sequence[PrincipalId],
) -> list[ScenarioPhase]:
    """Resolve a schedule into one :class:`ScenarioPhase` per phase, holding
    the phase's action on each edge it draws.

    Validates reachability up front: a grant phase must raise the count, a
    revoke phase must lower it, and targets must stay within [0, |U|x|A|].
    """
    for u in users:
        if u.kind is not PrincipalKind.USER:
            raise ValueError(f"{u} is not a user")
    for a in agents:
        if a.kind is not PrincipalKind.AGENT:
            raise ValueError(f"{a} is not an agent")
    universe: list[Edge] = [(u, a) for u in sorted(users) for a in sorted(agents)]
    capacity = len(universe)

    rng = random.Random(schedule.seed)
    present: set[Edge] = set()
    count = 0
    phases: list[ScenarioPhase] = []
    for phase in schedule.phases:
        if phase.action is PermissionAction.GRANT:
            if phase.target <= count or phase.target > capacity:
                raise UnreachableTarget(
                    f"grant phase {phase.label!r}: target {phase.target} unreachable "
                    f"from {count} (capacity {capacity})"
                )
            pool = [e for e in universe if e not in present]
            picked = _bernoulli_draw(rng, pool, phase.target - count, schedule.p)
            present.update(picked)
        else:
            if phase.target >= count or phase.target < 0:
                raise UnreachableTarget(
                    f"revoke phase {phase.label!r}: target {phase.target} unreachable "
                    f"from {count}"
                )
            pool = [e for e in universe if e in present]
            picked = _bernoulli_draw(rng, pool, count - phase.target, schedule.p)
            present.difference_update(picked)
        count = phase.target
        phases.append(ScenarioPhase(phase.label, tuple((phase.action, e) for e in picked)))
    return phases


def generate_schedule(
    schedule: GraphSchedule,
    users: Sequence[PrincipalId],
    agents: Sequence[PrincipalId],
) -> tuple[AccessTimeline, list[PhaseBoundary]]:
    """Materialize a schedule into a standalone timeline.

    Events receive consecutive ticks starting at 1; each returned boundary
    carries the tick of its phase's last event and the (exact) edge count
    there.
    """
    directory = PrincipalDirectory()
    for pid in list(users) + list(agents):
        directory.register(pid)
    timeline = AccessTimeline(directory)
    boundaries: list[PhaseBoundary] = []
    t = 0
    for phase in plan_schedule(schedule, users, agents):
        for action, edge in phase.permission_edits:
            t += 1
            timeline.apply(action, edge, t)
        boundaries.append(
            PhaseBoundary(
                label=phase.label,
                tick=t,
                edge_count=timeline.edge_count(t, EdgeKind.USER_AGENT),
            )
        )
    return timeline, boundaries
