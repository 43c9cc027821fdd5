from __future__ import annotations

import io
import json
import random

import pytest

from memfabric import (
    NO_AGENTS_ANSWER,
    AgentSpec,
    AuditAction,
    CoordinationMessage,
    PromptedRemote,
    RemoteAgentBackend,
    RemoteUnavailable,
    SequenceCoordinator,
    agent,
    compute_metrics,
    resource,
    run_episode,
    user,
)
from rtutil import CountingFlushes, StubServer, make_runtime, resource_calls


def test_message_shapes_validated():
    with pytest.raises(ValueError):
        CoordinationMessage()
    with pytest.raises(ValueError):
        CoordinationMessage(agent=agent("a1"), subquery="s", stop=True)
    assert CoordinationMessage.halt().stop
    assert CoordinationMessage.from_wire('{"stop": true}').stop
    msg = CoordinationMessage.from_wire('{"agent": "a1", "subquery": "s"}')
    assert msg.agent == agent("a1") and msg.subquery == "s"


class DownCoordinator:
    def decide(self, query, briefs, history):
        raise RemoteUnavailable("coordinator down")


def test_an_episode_flushes_its_audit_records_once_even_when_it_raises():
    rt, users = make_runtime()
    granted = len(rt.audit)
    rt.audit._fp = sink = CountingFlushes(io.StringIO())
    run_episode(rt, users[0], "d1 question", rt.clock.tick())
    assert sink.fp.getvalue().count("\n") == len(rt.audit) - granted > 2 and sink.flushes == 1
    rt.coordinator = DownCoordinator()  # the backend raises; the episode ends, failed
    episode = run_episode(rt, users[0], "d1 question", rt.clock.tick())
    assert (episode.failure, episode.final_answer) == ("remote_unavailable", NO_AGENTS_ANSWER)
    last = json.loads(sink.fp.getvalue().splitlines()[-1])
    assert (last["action"], last["detail"]["failure"]) == ("episode_end", "remote_unavailable")
    assert sink.flushes == 2


def test_no_accessible_agents_yields_failure_sentinel():
    rt, users = make_runtime(grant_all=False)
    episode = run_episode(rt, users[0], "d1 question", rt.clock.tick())
    assert episode.failure == "no_accessible_agents"
    assert episode.final_answer == NO_AGENTS_ANSWER
    assert episode.steps == []
    report = compute_metrics(rt.audit.records)
    assert report.bins[0].queries == 1
    assert report.bins[0].agent_utilization == 0.0
    assert report.bins[0].resource_utilization == 0.0


def test_immediate_stop_yields_empty_history():
    rt, users = make_runtime(coordinator=SequenceCoordinator([CoordinationMessage.halt()]))
    episode = run_episode(rt, users[0], "whatever", rt.clock.tick())
    assert episode.failure is None
    assert episode.steps == []
    assert episode.final_answer == NO_AGENTS_ANSWER  # aggregator saw nothing


def test_two_routed_agents_then_stop():
    script = SequenceCoordinator(
        [
            CoordinationMessage.route(agent("a1"), "d1 part"),
            CoordinationMessage.route(agent("a2"), "d2 part"),
            CoordinationMessage.halt(),
        ]
    )
    rt, users = make_runtime(coordinator=script)
    episode = run_episode(rt, users[0], "both parts", rt.clock.tick())
    assert len(episode.steps) == 2
    report = compute_metrics(rt.audit.records)
    assert report.bins[0].agent_utilization == 2.0
    assert "[d1 part]" in episode.final_answer and "[d2 part]" in episode.final_answer


def test_memory_first_contract_first_query_costs_one_call():
    rt, users = make_runtime()
    episode = run_episode(rt, users[0], "d1 fresh question", rt.clock.tick())
    assert resource_calls(rt, episode.episode_id) == 1


def test_same_user_repeat_costs_zero():
    rt, users = make_runtime()
    first = run_episode(rt, users[0], "d1 fact lookup", rt.clock.tick())
    second = run_episode(rt, users[0], "d1 fact lookup", rt.clock.tick())
    assert resource_calls(rt, first.episode_id) == 1
    assert resource_calls(rt, second.episode_id) == 0
    assert second.final_answer == first.final_answer


def test_cross_user_repeat_zero_when_shared_one_when_isolated():
    rt, users = make_runtime(force_private=False)
    first = run_episode(rt, users[0], "d1 shared topic", rt.clock.tick())
    second = run_episode(rt, users[1], "d1 shared topic", rt.clock.tick())
    assert resource_calls(rt, first.episode_id) == 1
    assert resource_calls(rt, second.episode_id) == 0

    iso, iso_users = make_runtime(force_private=True)
    first = run_episode(iso, iso_users[0], "d1 shared topic", iso.clock.tick())
    second = run_episode(iso, iso_users[1], "d1 shared topic", iso.clock.tick())
    assert resource_calls(iso, first.episode_id) == 1
    assert resource_calls(iso, second.episode_id) == 1


def test_replaying_own_episode_never_costs_more():
    rt, users = make_runtime()
    query = "d2 expensive lookup"
    costs = []
    for _ in range(4):
        ep = run_episode(rt, users[0], query, rt.clock.tick())
        costs.append(resource_calls(rt, ep.episode_id))
    assert costs == sorted(costs, reverse=True)
    assert costs[0] == 1 and costs[-1] == 0


def test_runtime_enforces_accessible_intersection():
    # coordinator insists on a2, which u1 cannot invoke
    script = SequenceCoordinator(
        [CoordinationMessage.route(agent("a2"), "d2 s")] * 3
    )
    rt, users = make_runtime(coordinator=script, grant_all=False)
    rt.timeline.grant((users[0], agent("a1")), rt.clock.tick())
    episode = run_episode(rt, users[0], "d2 s", rt.clock.tick())
    assert episode.failure == "coordinator_protocol"
    assert episode.final_answer == NO_AGENTS_ANSWER
    assert resource_calls(rt, episode.episode_id) == 0


def test_retry_then_success_on_flaky_coordinator():
    script = SequenceCoordinator(
        [
            CoordinationMessage.route(agent("a2"), "d2 s"),  # inaccessible: retried
            CoordinationMessage.route(agent("a1"), "d1 s"),
            CoordinationMessage.halt(),
        ]
    )
    rt, users = make_runtime(coordinator=script, grant_all=False)
    rt.timeline.grant((users[0], agent("a1")), rt.clock.tick())
    rt.timeline.grant((agent("a1"), resource("r1")), rt.clock.tick())
    episode = run_episode(rt, users[0], "q", rt.clock.tick())
    assert episode.failure is None
    assert len(episode.steps) == 1


def test_agent_without_resource_grant_answers_without_calls():
    rt, users = make_runtime(grant_all=False)
    rt.timeline.grant((users[0], agent("a1")), rt.clock.tick())
    # a1's configured resource r1 is never granted
    episode = run_episode(rt, users[0], "d1 q", rt.clock.tick())
    assert episode.failure is None
    assert resource_calls(rt, episode.episode_id) == 0
    assert "no accessible source" in episode.final_answer


def test_round_limit_bounds_traces():
    script = SequenceCoordinator(
        [CoordinationMessage.route(agent("a1"), f"d1 part {i}") for i in range(10)]
    )
    rt, users = make_runtime(coordinator=script, max_rounds=3)
    episode = run_episode(rt, users[0], "q", rt.clock.tick())
    assert len(episode.steps) == 3


def test_scripted_episode_bit_reproducible():
    def transcript():
        rt, users = make_runtime(seed=5)
        for i in range(6):
            run_episode(rt, users[i % 2], f"d{i % 2 + 1} question {i // 2}", rt.clock.tick())
        return rt.audit.to_jsonl()

    assert transcript() == transcript()


def test_usage_stays_inside_granted_cells_random_workloads():
    rng = random.Random(2024)
    for _ in range(20):
        rt, users = make_runtime(n_users=3, n_agents=3, grant_all=False)
        # random sparse grants
        for u in users:
            for a in list(rt.agents):
                if rng.random() < 0.5:
                    rt.timeline.grant((u, a), rt.clock.tick())
        for i, a in enumerate(list(rt.agents)):
            if rng.random() < 0.7:
                rt.timeline.grant((a, resource(f"r{i + 1}")), rt.clock.tick())
        for _ in range(10):
            u = rng.choice(users)
            d = rng.randint(1, 3)
            run_episode(rt, u, f"d{d} q{rng.randint(0, 3)}", rt.clock.tick())
        for rec in rt.audit:
            if rec.action is AuditAction.AGENT_INVOKE:
                assert rt.timeline.edge_present(
                    (user(rec.actor), agent(rec.subjects[0])), rec.at
                )
            elif rec.action is AuditAction.RESOURCE_INVOKE:
                assert rt.timeline.edge_present(
                    (agent(rec.actor), resource(rec.subjects[0])), rec.at
                )


def test_every_surfaced_fragment_has_a_read_record():
    rt, users = make_runtime()
    run_episode(rt, users[0], "d1 topic one", rt.clock.tick())
    run_episode(rt, users[1], "d1 topic one", rt.clock.tick())
    reads = [r for r in rt.audit if r.action is AuditAction.FRAGMENT_READ]
    assert len(reads) == 2  # one per retrieval, including the empty first one
    assert reads[0].subjects == ()
    assert len(reads[1].subjects) >= 1


# --- remote backends ---


def test_remote_agent_and_judge_round_trip():
    def agent_reply(request):
        payload = json.loads(request["input"])
        return {"output": json.dumps({"invoke": payload["resources"][:1], "answer": "remote answer"})}

    with StubServer(agent_reply) as chat, StubServer(lambda request: {"output": "0.75"}) as judge:
        rt, users = make_runtime()
        aid = agent("a1")
        rt.agents[aid] = AgentSpec(
            id=aid,
            specialization="remote d1",
            backend=RemoteAgentBackend(endpoint=chat.url, system_prompt="be brief"),
        )
        rt.judge = PromptedRemote(system_prompt="score", endpoint=judge.url)
        episode = run_episode(rt, users[0], "d1 question", rt.clock.tick())
        assert episode.final_answer == "remote answer"
        assert resource_calls(rt, episode.episode_id) == 1
        report = compute_metrics(rt.audit.records)
        assert report.bins[0].accuracy == pytest.approx(0.75)


@pytest.mark.parametrize("output", ["42", "[1, 2]", "plain text"])
def test_remote_agent_reply_that_is_not_a_request_is_the_answer(output):
    with StubServer(lambda request: {"output": output}) as chat:
        rt, users = make_runtime()
        aid = agent("a1")
        rt.agents[aid] = AgentSpec(
            id=aid,
            specialization="remote d1",
            backend=RemoteAgentBackend(endpoint=chat.url, system_prompt="be brief"),
        )
        episode = run_episode(rt, users[0], "d1 question", rt.clock.tick())
        assert episode.final_answer == output
        assert resource_calls(rt, episode.episode_id) == 0


def test_remote_coordinator_speaks_the_wire_protocol():
    from memfabric import RemoteCoordinator, RemoteAggregator

    state = {"round": 0}

    def coordinator_reply(request):
        payload = json.loads(request["input"])
        state["round"] += 1
        if state["round"] == 1:
            assert payload["agents"][0]["id"] == "a1"
            return {"output": json.dumps({"agent": "a1", "subquery": "d1 wire subquery"})}
        return {"output": json.dumps({"stop": True})}

    def aggregator_reply(request):
        history = json.loads(request["input"])["history"]
        return {"output": "aggregated: " + history[0]["response"]}

    with StubServer(coordinator_reply) as coord_stub, StubServer(aggregator_reply) as agg_stub:
        rt, users = make_runtime(n_agents=1)
        rt.coordinator = RemoteCoordinator(endpoint=coord_stub.url, system_prompt="route")
        rt.aggregator = RemoteAggregator(endpoint=agg_stub.url, system_prompt="merge")
        episode = run_episode(rt, users[0], "d1 wire question", rt.clock.tick())
        assert episode.failure is None
        assert len(episode.steps) == 1
        assert episode.steps[0][0].subquery == "d1 wire subquery"
        assert episode.final_answer.startswith("aggregated: According to r1:")


def test_remote_coordinator_malformed_json_fails_episode_after_retries():
    from memfabric import RemoteCoordinator

    calls = {"n": 0}

    def garbled(request):
        calls["n"] += 1
        return {"output": "definitely not json {"}

    with StubServer(garbled) as stub:
        rt, users = make_runtime(n_agents=1)
        rt.coordinator = RemoteCoordinator(endpoint=stub.url, system_prompt="route")
        episode = run_episode(rt, users[0], "d1 q", rt.clock.tick())
        assert episode.failure == "coordinator_protocol"
        assert calls["n"] == rt.limits.coordinator_retries + 1


def test_remote_coordinator_empty_agent_name_fails_episode_after_retries():
    from memfabric import CoordinatorProtocolViolation, RemoteCoordinator

    unnamed = '{"agent": "", "subquery": "s"}'
    with pytest.raises(CoordinatorProtocolViolation):
        CoordinationMessage.from_wire(unnamed)
    calls = {"n": 0}

    def reply(request):
        calls["n"] += 1
        return {"output": unnamed}

    with StubServer(reply) as stub:
        rt, users = make_runtime(n_agents=1)
        rt.coordinator = RemoteCoordinator(endpoint=stub.url, system_prompt="route")
        episode = run_episode(rt, users[0], "d1 q", rt.clock.tick())
        assert episode.failure == "coordinator_protocol"
        assert calls["n"] == rt.limits.coordinator_retries + 1
