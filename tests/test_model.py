"""A service restarted from its audit log answers like one that never stopped.

A hypothesis state machine sends the same requests through
``MemoryService.handle`` to two services on one config. One never restarts;
the other, on a ``restart`` rule, closes its log and is rebuilt from that
log alone with ``build_runtime(cfg, path, resume=True)``, saving nothing
first. After every step both have answered alike, written byte-identical
audit files with a gap-free ``seq``, and the log verifies clean on its own.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import event, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from memfabric import MemoryService, ScenarioConfig, build_runtime, iter_audit_file, verify_files
from scenarios import overlap_config

CFG = ScenarioConfig.from_dict(overlap_config(count=6, n_users=3, n_agents=2))
USERS = list(CFG.users)
AGENTS = [a.id for a in CFG.agents]
RESOURCES = [r.id for r in CFG.resources]
EDGES = [{"user": u, "agent": a} for u in USERS for a in AGENTS] + [
    {"agent": a, "resource": r} for a in AGENTS for r in RESOURCES
]
QUERIES = st.sampled_from([f"{c.category}: q{n}" for c in CFG.agents for n in range(3)])
MALFORMED = [
    ("POST", "/permissions/grant", "admin", {"edge": {"user": USERS[0]}}),
    ("POST", "/permissions/revoke", "admin", {}),
    ("POST", "/memory/write", USERS[0], {"agent": AGENTS[0]}),
    ("POST", "/memory/read", USERS[0], {"user": USERS[0], "query": "q"}),
    ("POST", "/episodes", USERS[0], {"query": "q"}),
    ("POST", "/permissions/grant", USERS[0], {"edge": EDGES[0]}),
]


def served(path: Path, resume: bool = False) -> MemoryService:
    return MemoryService(build_runtime(CFG, path, resume=resume))


class RestartTwins(RuleBasedStateMachine):
    def __init__(self, fired: Counter) -> None:
        super().__init__()
        self.fired = fired  # the rules run, over every example
        self.dir = Path(tempfile.mkdtemp(prefix="memfabric-twins-"))
        self.paths = [self.dir / name / "audit.jsonl" for name in ("steady", "restarted")]
        self.twins = [served(path) for path in self.paths]
        for edge in EDGES:  # the config's full graph to start from
            self.both("POST", "/permissions/grant", "admin", {"edge": edge})

    def both(self, method: str, path: str, identity: str, body: dict) -> int:
        """Send one request to both services; their replies must be equal."""
        steady, restarted = (svc.handle(method, path, {}, identity, body) for svc in self.twins)
        assert restarted == steady
        return steady[0]

    def fire(self, name: str, status: int | None = None) -> None:
        label = name if status is None else f"{name} {status}"
        self.fired[name] += 1
        event(label)

    @rule(edge=st.sampled_from(EDGES))
    def grant(self, edge):
        self.fire("grant", self.both("POST", "/permissions/grant", "admin", {"edge": edge}))

    @rule(edge=st.sampled_from(EDGES))
    def revoke(self, edge):
        self.fire("revoke", self.both("POST", "/permissions/revoke", "admin", {"edge": edge}))

    @rule(
        u=st.sampled_from(USERS),
        a=st.sampled_from(AGENTS),
        query=QUERIES,
        resources=st.lists(st.sampled_from(RESOURCES), max_size=2, unique=True),
    )
    def write(self, u, a, query, resources):
        response = f"answer to {query}"
        body = {"agent": a, "subquery": query, "response": response, "resources": resources}
        self.fire("write", self.both("POST", "/memory/write", u, body))

    @rule(u=st.sampled_from(USERS), a=st.sampled_from(AGENTS), query=QUERIES)
    def read(self, u, a, query):
        body = {"user": u, "agent": a, "query": query}
        self.fire("read", self.both("POST", "/memory/read", u, body))

    @rule(u=st.sampled_from(USERS), query=QUERIES)
    def episode(self, u, query):
        self.fire("episode", self.both("POST", "/episodes", u, {"user": u, "query": query}))

    @rule(request=st.sampled_from(MALFORMED))
    def malformed(self, request):
        self.fire("malformed", self.both(*request))

    @rule()
    def restart(self):
        self.twins[1].rt.audit.close()
        self.twins[1] = served(self.paths[1], resume=True)
        self.fire("restart")

    @invariant()
    def one_log_that_verifies_alone(self):
        steady, restarted = (path.read_bytes() for path in self.paths)
        assert restarted == steady
        seqs = [r.seq for r in iter_audit_file(self.paths[1])]
        assert seqs == list(range(len(seqs)))
        assert verify_files(self.paths[1]) == []

    def teardown(self):
        for svc in self.twins:
            svc.rt.audit.close()
        shutil.rmtree(self.dir)


def test_a_restarted_service_answers_like_one_that_never_stopped():
    # max_examples comes from the profile loaded: CI's "thorough" one runs more
    fired: Counter = Counter()
    run_state_machine_as_test(
        lambda: RestartTwins(fired),
        settings=settings(settings.default, stateful_step_count=12, deadline=None),
    )
    rules = {name for name, f in vars(RestartTwins).items() if hasattr(f, "hypothesis_stateful_rule")}
    assert set(fired) == rules
