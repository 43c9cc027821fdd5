"""Shared scenario config builders for harness, service, and acceptance tests."""

from __future__ import annotations

DYNAMIC_LADDER = [5, 10, 15, 20, 25, 20, 15, 10, 5]


def overlap_config(
    n_users: int = 5,
    n_agents: int = 3,
    count: int = 40,
    overlap: float = 0.5,
    seed: int = 11,
    mode: str = "shared",
) -> dict:
    """Static full user->agent graph, 1:1 agent->kb, seeded overlap workload."""
    categories = [f"domain{i + 1}" for i in range(n_agents)]
    return {
        "name": "overlap",
        "seed": seed,
        "memory_mode": mode,
        "users": [f"user_{i + 1}" for i in range(n_users)],
        "agents": [
            {
                "id": f"{cat}_agent",
                "category": cat,
                "specialization": f"{cat} specialist",
                "resource": f"{cat}_kb",
            }
            for cat in categories
        ],
        "resources": [
            {"id": f"{cat}_kb", "category": cat, "kind": "knowledge_base"}
            for cat in categories
        ],
        "timeline": {"agent_resources": "one_to_one", "user_agents": "all"},
        "workload": {"synthetic": {"count": count}, "overlap": overlap},
        "retrieval": {"k_user": 10, "k_cross": 10, "threshold": 0.1},
        "embedder": {"kind": "deterministic", "dimension": 24},
    }


REMOTE_ROLES = ("agent", "coordinator", "aggregator", "judge", "resource")


def with_remote(doc: dict, role: str, endpoint: str) -> dict:
    """``doc`` with one of ``REMOTE_ROLES`` served at ``endpoint``: every agent,
    the coordinator, the aggregator, the judge, or every resource."""
    if role in ("agent", "resource"):
        for spec in doc[role + "s"]:
            spec["endpoint"] = endpoint
    elif role == "judge":
        doc["judge"] = {"kind": "prompted_remote", "endpoint": endpoint}
    else:
        doc[role] = {"endpoint": endpoint}
    return doc


def dynamic_config(
    per_user_per_category: int = 4,
    targets: list[int] | None = None,
    p: float = 0.2,
    seed: int = 7,
    n_users: int = 5,
    n_agents: int = 5,
) -> dict:
    """Evolving permissions: user->agent edges follow a grant/revoke ladder,
    agent->kb stays one-to-one, the same workload replays every phase."""
    categories = [f"field{i + 1}" for i in range(n_agents)]
    return {
        "name": "dynamic",
        "seed": seed,
        "memory_mode": "shared",
        "users": [f"user_{i + 1}" for i in range(n_users)],
        "agents": [
            {
                "id": f"{cat}_agent",
                "category": cat,
                "specialization": f"{cat} literature specialist",
                "resource": f"{cat}_kb",
            }
            for cat in categories
        ],
        "resources": [
            {"id": f"{cat}_kb", "category": cat, "kind": "knowledge_base"}
            for cat in categories
        ],
        "timeline": {
            "agent_resources": "one_to_one",
            "schedule": {"targets": targets or DYNAMIC_LADDER, "p": p},
        },
        "workload": {"synthetic": {"per_user_per_category": per_user_per_category}},
        "retrieval": {"k_user": 10, "k_cross": 10, "threshold": 0.1},
        "embedder": {"kind": "deterministic", "dimension": 24},
    }


ASYMMETRIC_USER_AGENTS = [
    ["market_researcher", "market_agent"],
    ["financial_analyst", "finance_agent"],
    ["financial_analyst", "decision_agent"],
    ["logistics_lead", "logistics_agent"],
    ["logistics_lead", "finance_agent"],
    ["strategy_director", "market_agent"],
    ["strategy_director", "finance_agent"],
    ["strategy_director", "logistics_agent"],
    ["strategy_director", "decision_agent"],
]

ASYMMETRIC_AGENT_RESOURCES = [
    ["market_agent", "market_kb"],
    ["market_agent", "strategic_computation"],
    ["finance_agent", "finance_forecaster"],
    ["finance_agent", "strategic_computation"],
    ["logistics_agent", "logistics_comparator"],
    ["logistics_agent", "strategic_computation"],
    ["decision_agent", "market_kb"],
    ["decision_agent", "finance_forecaster"],
    ["decision_agent", "logistics_comparator"],
    ["decision_agent", "strategic_computation"],
]


def asymmetric_config(seed: int = 3, mode: str = "shared") -> dict:
    """Role-tiered access: only the director reaches every agent; project
    queries are decomposed into role subtasks."""
    queries = [
        "growth plan for smart home devices",
        "entry into regulated skincare segments",
        "expansion of subscription analytics suite",
    ]
    return {
        "name": "asymmetric",
        "seed": seed,
        "memory_mode": mode,
        "users": [
            "market_researcher",
            "financial_analyst",
            "logistics_lead",
            "strategy_director",
        ],
        "agents": [
            {"id": "market_agent", "category": "market", "resource": "market_kb"},
            {"id": "finance_agent", "category": "finance", "resource": "finance_forecaster"},
            {"id": "logistics_agent", "category": "logistics", "resource": "logistics_comparator"},
            {"id": "decision_agent", "category": "decision", "resource": "strategic_computation"},
        ],
        "resources": [
            {"id": "market_kb", "category": "market", "kind": "knowledge_base"},
            {"id": "finance_forecaster", "category": "finance", "kind": "forecast_model"},
            {"id": "logistics_comparator", "category": "logistics", "kind": "comparator"},
            {"id": "strategic_computation", "category": "decision", "kind": "computation"},
        ],
        "timeline": {
            "agent_resources": ASYMMETRIC_AGENT_RESOURCES,
            "user_agents": ASYMMETRIC_USER_AGENTS,
        },
        "workload": {
            "decompose": {
                "queries": queries,
                "roles": {
                    "market_researcher": "market",
                    "financial_analyst": "finance",
                    "logistics_lead": "logistics",
                },
                "director": "strategy_director",
            }
        },
        "retrieval": {"k_user": 20, "k_cross": 20, "threshold": 0.1},
        "embedder": {"kind": "deterministic", "dimension": 24},
    }


def revocation_phase_config(seed: int = 5) -> dict:
    """Two explicit phases: both users hold the agent, then user_2 loses it."""
    return {
        "name": "revocation",
        "seed": seed,
        "memory_mode": "shared",
        "users": ["user_1", "user_2"],
        "agents": [
            {"id": "lab_agent", "category": "lab", "resource": "lab_kb"},
        ],
        "resources": [{"id": "lab_kb", "category": "lab", "kind": "knowledge_base"}],
        "timeline": {
            "agent_resources": "one_to_one",
            "phases": [
                {
                    "label": "p0",
                    "events": [
                        {"action": "grant", "edge": {"user": "user_1", "agent": "lab_agent"}},
                        {"action": "grant", "edge": {"user": "user_2", "agent": "lab_agent"}},
                    ],
                },
                {
                    "label": "p1",
                    "events": [
                        {"action": "revoke", "edge": {"user": "user_2", "agent": "lab_agent"}}
                    ],
                },
            ],
        },
        "workload": {
            "per_user": {
                "user_1": ["lab: solvent handling"],
                "user_2": ["lab: solvent handling"],
            }
        },
        "embedder": {"kind": "deterministic", "dimension": 24},
    }
