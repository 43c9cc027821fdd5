from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# more examples than tier-1's time allows, for CI's separate runs of the
# restart model, the encoder tests, the remote-reply fuzz test and the
# interleaved-read test: pytest tests/test_model.py tests/test_wire.py
# tests/test_retrieval.py::test_interleaved_reads_equal_a_full_scan_bit_for_bit
# --hypothesis-profile=thorough
settings.register_profile("thorough", max_examples=1000, deadline=None)

from memfabric import PrincipalDirectory


@pytest.fixture
def directory() -> PrincipalDirectory:
    d = PrincipalDirectory()
    for name in ("u1", "u2", "u3"):
        d.add_user(name)
    for name in ("a1", "a2", "a3"):
        d.add_agent(name)
    for name in ("r1", "r2", "r3"):
        d.add_resource(name)
    return d
