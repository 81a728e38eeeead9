"""Concurrency control at the master controller (requirement 1, Section 4.0).

"When a user's query is received by the MC it is placed in a queue of
queries awaiting execution.  When system resources become available, the
MC removes the next query from the queue, checks it for concurrency
conflicts with other executing queries, and then distributes ... the
instructions."

The paper defers the mechanism's design to future work; we implement the
conservative interpretation: relation-granularity shared/exclusive locks
acquired all-at-once at admission (queries that only read a relation take
S; append/delete targets take X).  All-at-once acquisition plus FIFO
admission means no deadlock and no starvation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import ConcurrencyError
from repro.query.tree import QueryTree


class LockMode(enum.Enum):
    """Shared (readers) or exclusive (writers)."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "LockMode") -> bool:
        """S/S is the only compatible pair at relation granularity."""
        return self is LockMode.SHARED and other is LockMode.SHARED


@dataclass(frozen=True)
class LockRequest:
    """The full lock set one query needs."""

    query_name: str
    shared: frozenset
    exclusive: frozenset

    @classmethod
    def for_tree(cls, tree: QueryTree) -> "LockRequest":
        """Derive the lock set from a query tree's read/write relations."""
        writes = frozenset(tree.updated_relations())
        reads = frozenset(tree.leaf_relations()) - writes
        return cls(query_name=tree.name, shared=reads, exclusive=writes)

    @property
    def relations(self) -> frozenset:
        """Every relation the query touches."""
        return self.shared | self.exclusive


@dataclass
class _Held:
    mode: LockMode
    holders: Set[str] = field(default_factory=set)


class LockManager:
    """All-at-once relation locks with FIFO admission.

    ``try_acquire`` either grants the entire lock set or nothing; the MC
    retries the queue head whenever a query releases.  No query ever
    holds one lock while waiting for another — a second grant to the
    same query raises :class:`ConcurrencyError` and ``try_upgrade``
    refuses rather than waits — so deadlock cannot arise.
    """

    def __init__(self):
        self._held: Dict[str, _Held] = {}
        self._owners: Dict[str, LockRequest] = {}

    # -- admission -------------------------------------------------------------

    def can_acquire(self, request: LockRequest) -> bool:
        """Would the whole lock set be grantable right now?"""
        for relation in sorted(request.exclusive):
            if relation in self._held:
                return False
        for relation in sorted(request.shared):
            held = self._held.get(relation)
            if held is not None and held.mode is LockMode.EXCLUSIVE:
                return False
        return True

    def try_acquire(self, request: LockRequest) -> bool:
        """Grant the whole lock set, or nothing."""
        if request.query_name in self._owners:
            raise ConcurrencyError(f"query {request.query_name!r} already holds locks")
        if not self.can_acquire(request):
            return False
        # sorted(): lock tables are built in a PYTHONHASHSEED-independent
        # order, so two runs always agree on the _held dict's layout.
        for relation in sorted(request.shared):
            held = self._held.setdefault(relation, _Held(LockMode.SHARED))
            held.holders.add(request.query_name)
        for relation in sorted(request.exclusive):
            self._held[relation] = _Held(LockMode.EXCLUSIVE, {request.query_name})
        self._owners[request.query_name] = request
        return True

    def try_upgrade(self, query_name: str, relation: str) -> bool:
        """Upgrade ``query_name``'s S lock on ``relation`` to X, or refuse.

        Sole-holder only, and strictly non-blocking: an upgrade that
        cannot be granted immediately returns False instead of waiting,
        so the classic upgrade deadlock (two S holders each waiting to
        upgrade) cannot arise — the refused writer aborts, releases, and
        retries with X demanded at admission.
        """
        request = self._owners.get(query_name)
        if request is None:
            raise ConcurrencyError(
                f"query {query_name!r} holds no locks to upgrade"
            )
        if relation in request.exclusive:
            return True  # already exclusive; nothing to do
        if relation not in request.shared:
            raise ConcurrencyError(
                f"query {query_name!r} holds no S lock on {relation!r}"
            )
        held = self._held.get(relation)
        if held is None or query_name not in held.holders:
            raise ConcurrencyError(
                f"lock table corrupt: {query_name!r} owns {relation!r} "
                f"but the relation's holder entry is missing"
            )
        if held.holders != {query_name}:
            return False
        held.mode = LockMode.EXCLUSIVE
        self._owners[query_name] = LockRequest(
            query_name=query_name,
            shared=request.shared - {relation},
            exclusive=request.exclusive | {relation},
        )
        return True

    def release(self, query_name: str) -> None:
        """Drop every lock the query holds.

        Releasing a query that holds nothing raises — double-release is
        how an admission/retry bug would corrupt the lock table silently
        (the serving mode's retry path makes this a live hazard).  An
        owner whose per-relation entries have gone missing means the
        table itself is corrupt, which also raises.
        """
        request = self._owners.pop(query_name, None)
        if request is None:
            raise ConcurrencyError(
                f"query {query_name!r} holds no locks (double release?)"
            )
        for relation in sorted(request.relations):
            held = self._held.get(relation)
            if held is None or query_name not in held.holders:
                raise ConcurrencyError(
                    f"lock table corrupt: {query_name!r} owns {relation!r} "
                    f"but the relation's holder entry is missing"
                )
            held.holders.discard(query_name)
            if not held.holders:
                del self._held[relation]

    # -- introspection ------------------------------------------------------------

    def holders_of(self, relation: str) -> List[str]:
        """Names of queries currently locking ``relation``."""
        held = self._held.get(relation)
        return sorted(held.holders) if held else []

    def mode_of(self, relation: str) -> LockMode:
        """Current lock mode of ``relation``; raises if unlocked."""
        try:
            return self._held[relation].mode
        except KeyError:
            raise ConcurrencyError(f"{relation!r} is not locked") from None

    @property
    def active_queries(self) -> List[str]:
        """Queries currently holding locks."""
        return sorted(self._owners)

    def __len__(self) -> int:
        return len(self._held)
