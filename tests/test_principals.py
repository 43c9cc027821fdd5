from __future__ import annotations

import gc
import weakref

import pytest

from memfabric import PrincipalId, PrincipalKind, agent, resource, user


def test_factories_return_one_identity_per_kind_and_name():
    assert user("a") is user("a")
    assert agent("a") is agent("a")
    assert resource("a") is resource("a")
    assert user("a") != agent("a") and agent("a") != resource("a")


def test_directly_built_identity_equals_the_interned_one():
    direct = PrincipalId(PrincipalKind.USER, "a")
    assert direct is not user("a")
    assert direct == user("a")
    assert hash(direct) == hash(user("a"))
    assert not direct < user("a") and not direct > user("a")
    assert sorted([user("b"), PrincipalId(PrincipalKind.USER, "a")]) == [user("a"), user("b")]
    assert {direct: 1}[user("a")] == 1


def test_unheld_principal_is_freed_without_the_cycle_collector():
    # the intern table holds identities weakly: a stream of names nobody
    # keeps leaves nothing behind
    gc.disable()
    try:
        ref = weakref.ref(user("transient-name"))
        assert ref() is None
        held = agent("held-name")
        assert weakref.ref(agent("held-name"))() is held
    finally:
        gc.enable()


@pytest.mark.parametrize("factory", [user, agent, resource])
def test_empty_name_still_raises(factory):
    with pytest.raises(ValueError):
        factory("")
    with pytest.raises(ValueError):
        PrincipalId(PrincipalKind.USER, "")
