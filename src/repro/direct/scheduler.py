"""The three operand granularities as scheduling policies (Section 3.0).

A granularity answers two questions:

1. **When do consumers see a producer's output?**  Page-level (and
   tuple-level) granularity *pipelines*: each produced page is announced
   immediately, so "an operator can be initiated as soon as at least one
   page of each participating relation exists".  Relation-level
   granularity announces everything only at producer completion.
2. **What is the dispatch unit charged for?**  Tuple-level granularity
   pays per-tuple packet overhead through the arbitration network
   (Section 3.3's n*m*(200+c) bytes); page- and relation-level pay per
   page.

The processor-allocation rule of the MC ("insuring that processors are
distributed across all nodes in the query tree") is
:func:`pick_instruction`: among instructions with dispatchable work, take
the one with the fewest processors currently assigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.direct.instructions import Instruction


@dataclass(frozen=True)
class Granularity:
    """One operand granularity for data-flow query processing."""

    key: str
    #: Announce produced pages to consumers immediately (pipelining)?
    pipeline: bool
    #: Account dispatch traffic/overhead per tuple instead of per page?
    tuple_dispatch: bool
    #: Extra CPU per tuple packet fired through the arbitration network
    #: (tuple granularity only).
    tuple_dispatch_ms: float = 0.0
    #: Stage completed intermediate relations on mass storage.  True for
    #: relation-level granularity: the consuming instruction is enabled
    #: only after the producer completes, so its operand is a classical
    #: temporary relation — produced pages round-trip through the disk
    #: cache to disk and back, exactly the traffic Section 3.2 says
    #: pipelining eliminates.
    materialize_to_disk: bool = False

    def __str__(self) -> str:
        return self.key


#: Coarsest: a node is enabled only when its operands are fully computed.
RELATION = Granularity(
    key="relation", pipeline=False, tuple_dispatch=False, materialize_to_disk=True
)

#: The paper's choice: a page of a relation is the scheduling unit.
PAGE = Granularity(key="page", pipeline=True, tuple_dispatch=False)

#: Finest: a tuple is the scheduling unit; pays per-tuple packet overhead.
TUPLE = Granularity(key="tuple", pipeline=True, tuple_dispatch=True, tuple_dispatch_ms=0.02)

_BY_KEY = {g.key: g for g in (RELATION, PAGE, TUPLE)}


def granularity(key: str) -> Granularity:
    """Look up a granularity by name ('relation' | 'page' | 'tuple')."""
    try:
        return _BY_KEY[key]
    except KeyError:
        raise KeyError(f"unknown granularity {key!r}; choose from {sorted(_BY_KEY)}") from None


# Convenience attributes on the class, so callers can say Granularity.PAGE.
Granularity.RELATION = RELATION
Granularity.PAGE = PAGE
Granularity.TUPLE = TUPLE


def pick_instruction(instructions: Iterable[Instruction]) -> Optional[Instruction]:
    """The MC's balancing rule: least-loaded dispatchable instruction.

    Ties break on node id (stable), which gives leaf instructions a mild
    priority since they were created first — they feed everyone else.
    """
    best: Optional[Instruction] = None
    for instr in instructions:
        if not instr.has_dispatchable():
            continue
        if best is None or (instr.assigned_processors, instr.node.node_id) < (
            best.assigned_processors,
            best.node.node_id,
        ):
            best = instr
    return best
