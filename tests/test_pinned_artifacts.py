"""Byte-for-byte pins of the artifacts of two reference scenario runs.

Speed work must leave every artifact byte-identical. A change that alters an
artifact format on purpose updates these digests and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from memfabric import ScenarioConfig, run_scenario
from scenarios import dynamic_config, overlap_config

PINS = {
    "overlap": (overlap_config, {
        "audit.jsonl": "2e58f86ca326ea87bd35fd53da1b6fd7e00e170596a7a59715da0756422e1637",
        "timeline.jsonl": "c4cc130d4f89ad0bea6aeed199ada0b3b8b206a013a4c807bea117db29438048",
        "store.jsonl": "2ec99ae45b01be1b585ff3d0b0c81522a9bee12bdde5f34ad5e7841ad300382c",
        "transcript.jsonl": "0725ebea868e92e0f3b3ee426e87ad284b47861949817e6ebb945b06ccd75fba",
    }),
    "dynamic": (dynamic_config, {
        "audit.jsonl": "4af21e17e5b0ce0c520019b3696868ae04892cf5b5c422776fc63e0c3146e228",
        "timeline.jsonl": "2a747c4cb478df65bc6aa90db2db2f105a45842860f8bfd8a6e0af9f318cf242",
        "store.jsonl": "1301954bbb393dba6ef08c33b3daccf574f94f7789d63dc1fce5bf4f92ab326d",
        "transcript.jsonl": "f8689c97704bfe1799fc2438c19f6389bbda57ad1eb1cf913e9a38a2a57e75af",
    }),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_artifacts_match_their_pinned_digests(tmp_path, name):
    config, pins = PINS[name]
    run_scenario(ScenarioConfig.from_dict(config()), tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in pins}
    assert digests == pins
