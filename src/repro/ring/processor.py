"""Instruction processors (IPs) — Section 4.1/4.2.

An IP executes instruction packets placed on the outer ring by ICs,
produces result packets addressed to the destination IC, and signals
"done" with control packets.  The nested-loops join protocol is the
paper's, field for field:

* the first join packet carries the outer page (and the first inner page
  when available); the IP sets up an **inner-relation control (IRC)
  vector** that grows as execution progresses;
* after joining a page it requests the next inner page it has not seen;
* broadcast pages are consumed **opportunistically and out of order** —
  an IP that is busy when a broadcast passes simply misses it and
  requests the page again later ("missed-page recovery");
* a control message indicating the last inner page triggers the IRC scan
  for holes;
* when the IRC is fully marked the IP zeroes it and asks for another
  outer page; ``flush-when-done`` ships the residual result buffer.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import MachineError
from repro.relational.page import Page, PageAssembler
from repro.relational.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.ring.controller import InstructionController
    from repro.ring.machine import RingMachine


class InstructionProcessor:
    """One IP: a small processor with local memory on the outer ring."""

    def __init__(self, machine: "RingMachine", ip_id: int):
        self.machine = machine
        self.ip_id = ip_id
        self.owner: Optional["InstructionController"] = None
        self.busy = False
        self.busy_ms = 0.0
        #: Label of this IP's work-charge events (traces, sanitizer).
        self._charge_label = f"ip{ip_id}"
        #: Fail-stop flag (requirement 5, Section 4.0): a failed IP stops
        #: responding — it sends nothing and ignores everything.
        self.failed = False
        #: Assignment epoch: bumped whenever this IP leaves an IC (normal
        #: release or failover abort), so in-flight work charges from an
        #: earlier assignment can never act on a later one.
        self._epoch = 0
        #: In-flight work: charge id -> (start time, service time).  busy_ms
        #: is credited when a charge completes (or is settled pro-rata on
        #: abort/fail), never at schedule time — crediting up front would
        #: double-count the interval when a failover evaporates the work and
        #: the re-granted IP charges again over the same simulated span.
        self._inflight_charges: Dict[int, Tuple[float, float]] = {}
        self._charge_ids = itertools.count()

        # Result buffer (persists across packets of one assignment), and
        # the full pages a fault-tolerant join holds until its outer page's
        # IRC vector completes.
        self._results: Optional[PageAssembler] = None
        self._held: List[Page] = []

        # Join state: the paper's IRC vector and the held outer page.
        self._outer_page: Optional[Page] = None
        self._outer_index: Optional[int] = None
        # IRC vector: insertion-ordered dict-as-set so any iteration is
        # independent of PYTHONHASHSEED.
        self._irc_seen: Dict[int, None] = {}
        self._inner_last: Optional[int] = None  # count of inner pages, if known
        self._awaiting_inner: Optional[int] = None  # page number requested
        self._flush_on_outer_done = False

    # ------------------------------------------------------------------ pool

    @property
    def is_free(self) -> bool:
        """True when the IP sits in the MC pool."""
        return self.owner is None

    def assign(self, ic: "InstructionController", result_schema: Schema) -> None:
        """The MC granted this IP to ``ic``."""
        if self.owner is not None:
            raise MachineError(f"IP{self.ip_id} is already owned by IC{self.owner.ic_id}")
        self.owner = ic
        self._results = PageAssembler(result_schema, ic.page_bytes)
        self._held = []
        self._reset_join_state()

    def release(self) -> None:
        """Return to the MC pool (the IC has sent RELEASE_IP)."""
        if self._held or (self._results is not None and len(self._results)):
            raise MachineError(f"IP{self.ip_id} released with unflushed result rows")
        self._settle_inflight_charges()
        self._epoch += 1
        self.owner = None
        self._results = None
        self._reset_join_state()

    def abort_assignment(self) -> None:
        """The owning IC was torn down by an MC failover (requirement 5).

        Unlike :meth:`fail`, the processor itself is healthy: it drops
        all buffered results and join state, fences any in-flight work
        charge behind the epoch bump, and returns to pool eligibility so
        the MC can grant it to the restarted query's new ICs.
        """
        self._settle_inflight_charges()
        self._epoch += 1
        self.busy = False
        self.owner = None
        self._discard_results()
        self._results = None
        self._reset_join_state()

    def _reset_join_state(self) -> None:
        self._outer_page = None
        self._outer_index = None
        self._irc_seen = {}
        self._inner_last = None
        self._awaiting_inner = None
        self._flush_on_outer_done = False

    # ------------------------------------------------------------------ unary packets

    def receive_unary_packet(self, page: Page, flush_when_done: bool) -> None:
        """Execute a restrict/project/union/append/delete packet."""
        if self.failed:
            return
        ic = self._require_owner()
        self.busy = True
        fill = self.machine.model.proc_read_ms(ic.page_bytes)
        cpu = ic.unary_cpu_ms(page.row_count)
        self._charge(fill + cpu, lambda: self._unary_done(page, flush_when_done), "unary")

    def _unary_done(self, page: Page, flush_when_done: bool) -> None:
        ic = self._require_owner()
        full = self._results.add(ic.kernel(page))
        if self.machine.fault_tolerant:
            # Unit-atomic shipping: everything leaves with this packet, so
            # a re-executed packet can never duplicate shipped rows.
            self._held.extend(full)
            self._flush_results(lambda: self._finish_packet(flush_when_done=False))
            return
        self._send_pages(full, lambda: self._finish_packet(flush_when_done))

    # ------------------------------------------------------------------ join packets

    def receive_join_packet(
        self,
        outer_page: Page,
        outer_index: int,
        inner_page: Optional[Page],
        inner_index: Optional[int],
        flush_when_done: bool,
    ) -> None:
        """A new outer page (optionally with the first inner page).

        "When an IP first receives an instruction packet for a [join]
        operation, it sets up an IRC vector with one entry for each page
        of the inner relation."
        """
        if self.failed:
            return
        ic = self._require_owner()
        self.busy = True
        self._outer_page = outer_page
        self._outer_index = outer_index
        self._irc_seen = {}
        self._flush_on_outer_done = flush_when_done
        fill = self.machine.model.proc_read_ms(ic.page_bytes)
        if inner_page is not None:
            fill += self.machine.model.proc_read_ms(ic.page_bytes)
            self._charge(fill, lambda: self._join_inner(inner_page, inner_index), "fill")
        else:
            self._charge(fill, self._advance_join, "fill")

    def receive_inner_broadcast(self, inner_index: int, page: Page, is_last_known: Optional[int]) -> None:
        """An inner page passes on the ring (broadcast by the IC).

        Busy IPs ignore it (they will request it later — missed-page
        recovery); idle IPs consume it even out of order (IRC vector).
        """
        if self.failed or self.owner is None or self._outer_page is None:
            return
        if is_last_known is not None:
            self._inner_last = is_last_known
        if self.busy or inner_index in self._irc_seen:
            return
        self.busy = True
        self._awaiting_inner = None
        fill = self.machine.model.proc_read_ms(self._require_owner().page_bytes)
        self._charge(fill, lambda: self._join_inner(page, inner_index), "fill")

    def receive_inner_last(self, inner_count: int) -> None:
        """IC reply: no inner page numbered >= ``inner_count`` exists."""
        if self.failed:
            return
        self._inner_last = inner_count
        if not self.busy and self._outer_page is not None:
            self._advance_join()

    def _join_inner(self, inner_page: Page, inner_index: int) -> None:
        cpu = self.machine.model.join_cpu_ms(self._outer_page.row_count, inner_page.row_count)
        self._charge(cpu, lambda: self._join_done(inner_page, inner_index), "join")

    def _join_done(self, inner_page: Page, inner_index: int) -> None:
        ic = self._require_owner()
        full = self._results.add(ic.kernel(self._outer_page, inner_index, inner_page))
        self._irc_seen[inner_index] = None
        if self.machine.fault_tolerant:
            # Hold everything until the outer page's IRC completes.
            self._held.extend(full)
            self._advance_join()
        else:
            self._send_pages(full, self._advance_join)

    def _advance_join(self) -> None:
        """Examine the IRC vector; request the next hole or finish the outer."""
        self.busy = False
        if self._inner_last is not None:
            missing = [i for i in range(self._inner_last) if i not in self._irc_seen]
            if not missing:
                # "Zero its IRC vector and signal the IC that it is ready
                # for another page of the outer relation."
                outer_done_flush = self._flush_on_outer_done
                self._outer_page = None
                self._irc_seen = {}
                self._inner_last = None
                if outer_done_flush or self.machine.fault_tolerant:
                    self._flush_results(lambda: self._send_ready())
                else:
                    self._send_ready()
                return
            want = missing[0]
        else:
            known = max(self._irc_seen) + 1 if self._irc_seen else 0
            holes = [i for i in range(known) if i not in self._irc_seen]
            want = holes[0] if holes else known
        self._awaiting_inner = want
        self.machine.ip_to_ic_request_inner(self, self._require_owner(), want)

    def _send_ready(self) -> None:
        self.machine.ip_to_ic_ready_for_outer(self, self._require_owner())

    # ------------------------------------------------------------------ results

    def flush_and_done(self) -> None:
        """IC asked for a flush outside the normal packet flow."""
        if self.failed:
            return
        self._flush_results(
            lambda: self.machine.ip_to_ic_flush_done(self, self._require_owner())
        )

    def _finish_packet(self, flush_when_done: bool) -> None:
        ic = self._require_owner()
        self.busy = False
        if flush_when_done:
            self._flush_results(lambda: self.machine.ip_to_ic_done(self, ic))
        else:
            self.machine.ip_to_ic_done(self, ic)

    def _flush_results(self, then: Callable[[], None]) -> None:
        """Ship everything, including a final partial page."""
        self._require_owner()
        pages, self._held = self._held, []
        final = self._results.flush()
        if final is not None:
            pages.append(final)
        self._send_pages(pages, then)

    def _discard_results(self) -> None:
        """Drop every buffered result row: they die with the assignment."""
        self._held = []
        if self._results is not None:
            self._results.discard()

    def _send_pages(self, pages: List[Page], then: Callable[[], None]) -> None:
        if not pages:
            then()
            return
        ic = self._require_owner()
        write_ms = len(pages) * self.machine.model.proc_write_ms(ic.page_bytes)

        def shipped() -> None:
            for page in pages:
                self.machine.ip_send_result(self, ic, page)
            then()

        self._charge(write_ms, shipped, "ship")

    # ------------------------------------------------------------------ plumbing

    def _require_owner(self) -> "InstructionController":
        if self.owner is None:
            raise MachineError(f"IP{self.ip_id} has no owning IC")
        return self.owner

    def _charge(self, delay: float, then: Callable[[], None], what: str = "work") -> None:
        sim = self.machine.sim
        charge_id = next(self._charge_ids)
        self._inflight_charges[charge_id] = (sim.now, delay)
        if sim.probe is not None:
            # Every charge runs on behalf of the owning IC's query.
            ic = self._require_owner()
            sim.probe.busy("ip", self.ip_id, what, ic.tree.name, sim.now, delay, owner=ic.ic_id)

        epoch = self._epoch

        def guarded() -> None:
            # Pop before the epoch check: a settled charge (abort/fail)
            # already credited its elapsed portion and must not re-credit.
            charge = self._inflight_charges.pop(charge_id, None)
            if self.failed or self._epoch != epoch:
                return  # fail-stop or aborted assignment: work evaporates
            if charge is not None:
                self.busy_ms += charge[1]
            then()

        self.machine.sim.schedule(delay, guarded, label=self._charge_label)

    def _settle_inflight_charges(self) -> None:
        """Credit the elapsed portion of every in-flight charge and drop it.

        Called when the assignment ends abnormally (fail-stop or failover
        abort): the IP really was busy from each charge's start until now,
        but the remainder of the service time never happens — crediting the
        full delay would make ``sum(busy_ms) > elapsed * n_ips`` once the
        IP is re-granted and charged again over the same interval.
        """
        now = self.machine.sim.now
        for start, delay in self._inflight_charges.values():
            self.busy_ms += min(max(0.0, now - start), delay)
        self._inflight_charges = {}

    def fail(self) -> None:
        """Disable this IP (fail-stop).  Anything buffered is lost; the
        owning IC's watchdog will detect the silence and re-dispatch."""
        self._settle_inflight_charges()
        self.failed = True
        self.busy = False
        self._discard_results()
        self._reset_join_state()

    def __repr__(self) -> str:
        owner = f"IC{self.owner.ic_id}" if self.owner else "pool"
        return f"IP{self.ip_id}({owner}, busy={self.busy})"
