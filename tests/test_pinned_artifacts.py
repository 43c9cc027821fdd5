"""Byte-for-byte pins of the artifacts of two reference scenario runs and of
one shared-vs-isolated comparison.

Speed work must leave every artifact byte-identical. A change that alters an
artifact format on purpose updates these digests and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from memfabric import ScenarioConfig, compare_modes, run_scenario
from scenarios import dynamic_config, overlap_config

PINS = {
    "overlap": (overlap_config, {
        "audit.jsonl": "2e58f86ca326ea87bd35fd53da1b6fd7e00e170596a7a59715da0756422e1637",
        "timeline.jsonl": "c4cc130d4f89ad0bea6aeed199ada0b3b8b206a013a4c807bea117db29438048",
        "store.jsonl": "2ec99ae45b01be1b585ff3d0b0c81522a9bee12bdde5f34ad5e7841ad300382c",
        "transcript.jsonl": "0725ebea868e92e0f3b3ee426e87ad284b47861949817e6ebb945b06ccd75fba",
        "metrics.csv": "d1b737566b9094e429c2a8fa5556fa9131d2d20887d519bbd2082bd9d2ee3d2d",
        "metrics.json": "8f5812e64c94dfab5bb3356f66abe243998c5b3c9645bc81239c3f2f6a94e134",
        "access_matrices.json": "ce4717c474466fecc1139f85834ced0e04d9687d89220b079faba0aed738fd13",
    }),
    "dynamic": (dynamic_config, {
        "audit.jsonl": "4af21e17e5b0ce0c520019b3696868ae04892cf5b5c422776fc63e0c3146e228",
        "timeline.jsonl": "2a747c4cb478df65bc6aa90db2db2f105a45842860f8bfd8a6e0af9f318cf242",
        "store.jsonl": "1301954bbb393dba6ef08c33b3daccf574f94f7789d63dc1fce5bf4f92ab326d",
        "transcript.jsonl": "f8689c97704bfe1799fc2438c19f6389bbda57ad1eb1cf913e9a38a2a57e75af",
        "metrics.csv": "4f916141618fb707dabec1c39fc38614b642d01650b2060e57f7c67a0b8ba31f",
        "metrics.json": "094aa75898eb068906bae940e77af64127d3c54b105bb4cb1baef876848ad979",
        "access_matrices.json": "e4348238b29181ff4ccfaee7327374aea97a86db0ba950ef8b862a3f146c36d4",
    }),
}

COMPARISON_PINS = {
    "comparison.json": "3ee19e83141bb980b7cab6063f221e2f34b24b23bc56a790e5ba61d227d50163",
    "comparison.csv": "f3cdf69b96e05046bff17a2daf493aaef752529c84b636b8c720f412ea92d2d2",
}


def _digests(directory, names):
    return {f: hashlib.sha256((directory / f).read_bytes()).hexdigest() for f in names}


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_artifacts_match_their_pinned_digests(tmp_path, name):
    config, pins = PINS[name]
    run_scenario(ScenarioConfig.from_dict(config()), tmp_path)
    assert _digests(tmp_path, pins) == pins


def test_comparison_reports_match_their_pinned_digests(tmp_path):
    compare_modes(ScenarioConfig.from_dict(overlap_config()), tmp_path)
    assert _digests(tmp_path, COMPARISON_PINS) == COMPARISON_PINS
