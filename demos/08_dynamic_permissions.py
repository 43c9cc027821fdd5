"""Evolving permissions: a nine-phase grant/revoke ladder, replayed workload,
access matrices, and offline re-verification.

The user->agent graph grows 5 -> 25 edges and shrinks back to 5 while the
same 100 queries replay each phase. Utilization follows the graph; usage
stays strictly inside granted cells; and the run's audit log alone is
enough to re-verify every access decision after the fact. The demo exits 1
if re-verification reports any violation.
"""

import json
import tempfile

from memfabric import ScenarioConfig, run_scenario, verify_files

config = ScenarioConfig.from_dict(
    {
        "name": "dynamic-demo",
        "seed": 7,
        "users": [f"user_{i}" for i in range(1, 6)],
        "agents": [
            {
                "id": f"{cat}_agent",
                "category": cat,
                "specialization": f"{cat} literature",
                "resource": f"{cat}_kb",
            }
            for cat in ("alloys", "polymers", "optics", "fluids", "circuits")
        ],
        "resources": [
            {"id": f"{cat}_kb", "category": cat}
            for cat in ("alloys", "polymers", "optics", "fluids", "circuits")
        ],
        "timeline": {
            "agent_resources": "one_to_one",
            "schedule": {"targets": [5, 10, 15, 20, 25, 20, 15, 10, 5], "p": 0.2},
        },
        "workload": {"synthetic": {"per_user_per_category": 4}},
        "embedder": {"kind": "deterministic", "dimension": 24},
    }
)

with tempfile.TemporaryDirectory() as out:
    artifacts = run_scenario(config, out)

    print("phase  queries  agents/q  lookups/q  hits(user)  hits(cross)")
    for b in artifacts.metrics.bins:
        print(
            f"{b.label:>5}  {b.queries:>7}  {b.agent_utilization:>8.2f}  "
            f"{b.resource_utilization:>9.2f}  {b.memory_hits_user:>10.2f}  "
            f"{b.memory_hits_cross:>11.2f}"
        )

    matrices = json.loads(artifacts.matrices_path.read_text())
    sparse, full = matrices[0], matrices[4]
    print(f"\ngranted cells at {sparse['phase']}: {len(sparse['granted_user_agent'])}"
          f", at {full['phase']}: {len(full['granted_user_agent'])}")

    with_exports = verify_files(
        artifacts.audit_path, artifacts.timeline_path, artifacts.store_path
    )
    log_alone = verify_files(artifacts.audit_path)
    print(f"offline re-verification of {artifacts.audit_path.name}: "
          f"{len(with_exports)} violations with the timeline and store exports, "
          f"{len(log_alone)} from the log alone")

# a violation fails the demo, so a run of the demos checks verification too
raise SystemExit(1 if with_exports or log_alone else 0)
