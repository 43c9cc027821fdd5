"""Principal identities and the registry of the known universe.

Every actor in the system is one of three kinds: a human user, an agent
acting on queries, or an external resource (knowledge base, tool, model).
Names are case-sensitive and unique within their kind; the same name may
exist under two different kinds without conflict.

Identities are interned: :func:`user`, :func:`agent` and :func:`resource`
return one :class:`PrincipalId` per (kind, name) from a table of weak
references, bounded by the principals still held. Equality, hashing and
ordering stay by value, so a ``PrincipalId`` built directly equals the
interned one; interning makes set and dict lookups end at the identity check.

Sets of principals are interned too (hash-consing, Filliâtre & Conchon 2006):
one :class:`PrincipalSet` per distinct set, with its names sorted once and,
beside them, their JSON list text rendered once, as ``wire.dumps`` writes it,
for the audit line of each fragment that names the set. A store's fragments
name few distinct agent and resource sets, and share them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import wire
from .errors import UnknownPrincipal


class PrincipalKind(str, Enum):
    USER = "user"
    AGENT = "agent"
    RESOURCE = "resource"


@dataclass(frozen=True, order=True)
class PrincipalId:
    """Identity of a user, agent, or resource."""

    # spelt out, not slots=True: Python 3.10 has no weakref_slot
    __slots__ = ("kind", "name", "__weakref__")

    kind: PrincipalKind
    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PrincipalKind):
            object.__setattr__(self, "kind", PrincipalKind(self.kind))
        if not self.name:
            raise ValueError("principal name must be non-empty")

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"

    def __reduce__(self):  # copies and unpickled ids are the interned ones
        return _interned, (self.kind, self.name)


_INTERNED = {kind: weakref.WeakValueDictionary() for kind in PrincipalKind}


def _interned(kind: PrincipalKind, name: str) -> PrincipalId:
    table = _INTERNED[kind]
    pid = table.get(name)
    if pid is None:  # two racing threads may each build one; both are equal
        pid = table.setdefault(name, PrincipalId(kind, name))
    return pid


class PrincipalSet(frozenset):
    """A frozenset of principals with ``names``, their names sorted, and ``names_json``, the
    JSON text of that list. Interned: building one equal to a live one (by copy or pickle
    too) returns that one; the table holds it weakly."""

    __slots__ = ("names", "names_json")
    _table = weakref.WeakValueDictionary()  # each frozenset -> the PrincipalSet equal to it

    def __new__(cls, pids: Iterable[PrincipalId] = ()) -> "PrincipalSet":
        key = frozenset(pids)
        found = cls._table.get(key)
        if found is None:  # as in _interned, a racing thread may build an equal one
            found = super().__new__(cls, key)
            found.names = tuple(sorted(pid.name for pid in key))
            found.names_json = wire.dumps(found.names)
            found = cls._table.setdefault(key, found)
        return found


def user(name: str) -> PrincipalId:
    return _interned(PrincipalKind.USER, name)


def agent(name: str) -> PrincipalId:
    return _interned(PrincipalKind.AGENT, name)


def resource(name: str) -> PrincipalId:
    return _interned(PrincipalKind.RESOURCE, name)


class PrincipalDirectory:
    """Registry of known principals.

    Registration is idempotent: registering an already-known name returns
    the existing identity. Operations elsewhere call :meth:`require` to
    reject ids that were never registered.
    """

    def __init__(self) -> None:
        self._known: dict[PrincipalKind, dict[str, PrincipalId]] = {
            kind: {} for kind in PrincipalKind
        }

    def register(self, pid: PrincipalId) -> PrincipalId:
        return self._known[pid.kind].setdefault(pid.name, pid)

    def add_user(self, name: str) -> PrincipalId:
        return self.register(user(name))

    def add_agent(self, name: str) -> PrincipalId:
        return self.register(agent(name))

    def add_resource(self, name: str) -> PrincipalId:
        return self.register(resource(name))

    def known(self, pid: PrincipalId) -> bool:
        return pid.name in self._known[pid.kind]

    def require(self, pid: PrincipalId, kind: PrincipalKind | None = None) -> PrincipalId:
        """Return ``pid`` if registered (and of ``kind``, when given)."""
        if kind is not None and pid.kind is not kind:
            raise UnknownPrincipal(f"{pid} is not a {kind.value}")
        if not self.known(pid):
            raise UnknownPrincipal(f"{pid} is not registered")
        return pid
