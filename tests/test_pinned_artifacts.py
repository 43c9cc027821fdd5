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
        "audit.jsonl": "2f72eae6e9ccc2d903fa4b6d25256ef9d559221717b44f7e1c14cc52607ca745",
        "timeline.jsonl": "c4cc130d4f89ad0bea6aeed199ada0b3b8b206a013a4c807bea117db29438048",
        "store.jsonl": "2ec99ae45b01be1b585ff3d0b0c81522a9bee12bdde5f34ad5e7841ad300382c",
        "transcript.jsonl": "0725ebea868e92e0f3b3ee426e87ad284b47861949817e6ebb945b06ccd75fba",
    }),
    "dynamic": (dynamic_config, {
        "audit.jsonl": "6349e29c81aee687768d8c419a96c399c4f81cb2f3313571a78511238c7f82e0",
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
