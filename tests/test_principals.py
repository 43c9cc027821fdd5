from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from memfabric import PrincipalId, PrincipalKind, agent, resource, user
from memfabric.principals import PrincipalSet


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


def test_equal_sets_from_different_iterables_are_one_set():
    a, b = agent("set-a"), agent("set-b")
    s = PrincipalSet([b, a])
    assert isinstance(s, frozenset) and s == frozenset({a, b})
    for pids in (iter([a, b]), (a, b, a), {a, b}, frozenset({b, a}), {a: 1, b: 2}, s):
        assert PrincipalSet(pids) is s
    # an agent and a resource of one name are different principals
    assert PrincipalSet([resource("set-a")]) != PrincipalSet([a])
    assert PrincipalSet() is PrincipalSet([]) and not PrincipalSet()


def test_unheld_set_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        ref = weakref.ref(PrincipalSet([agent("transient-set")]))
        assert ref() is None
        held = PrincipalSet([agent("held-set")])
        ref = weakref.ref(PrincipalSet([agent("held-set")]))
        assert ref() is held
        del held
        assert ref() is None
    finally:
        gc.enable()


def test_names_are_sorted_once():
    s = PrincipalSet(agent(n) for n in ["b2", "a10", "B", "a9", "b2"])
    assert s.names == ("B", "a10", "a9", "b2") == tuple(sorted(p.name for p in s))
    assert PrincipalSet(reversed(list(s))).names is s.names
    assert PrincipalSet().names == ()


def test_copies_and_unpickled_principals_and_sets_are_the_interned_ones():
    s = PrincipalSet([agent("copied-a"), agent("copied-b")])
    for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and clone is s and clone.names == ("copied-a", "copied-b")
    pid = resource("copied-r")
    for clone in (copy.copy(pid), copy.deepcopy(pid), pickle.loads(pickle.dumps(pid))):
        assert clone is pid
