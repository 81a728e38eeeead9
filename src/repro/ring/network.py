"""DLCN-style communication rings (Section 4.1).

The paper adopts the Distributed Loop Computer Network [13]: a
shift-register-insertion ring carrying variable-length messages.  For
simulation we model each ring as a bandwidth-limited medium: a message of
``n`` bytes occupies the loop for ``insertion_delay + n/rate`` — multiple
small messages interleave in FIFO order, which is how insertion rings
behave under load.  Broadcast costs one traversal (requirement 4 of
Section 4.0: "a page from the inner relation can be distributed to some or
all of the participating processors simultaneously").

The ring keeps byte counters so experiments can compare offered load
against the technology options the paper prices (40 Mbps TTL shift
registers, 1 Gbps ECL, 400 Mbps fiber).

**Lossy-ring recovery** (paper requirement 5): when a fault plan arms
``ring_drop`` or ``ring_corrupt`` at this ring's site, each transfer
attempt may be lost in the insertion network or arrive with a bad
checksum (the trailing CRC-32 word of the Figure 4.3-4.5 codecs).  A
corrupted arrival is NAKed by the receiver, so the sender retransmits
after ``nak_delay_ms``; a silent drop is recovered by the sender's
retransmission timer, ``timeout_ms * backoff**attempt``.  Both paths are
deterministic (seeded per-ring streams, fixed delays) and bounded by
``max_retries`` — exhaustion raises
:class:`repro.errors.RetryExhaustedError` naming the ring.  Dropped and
corrupt-discarded packets still leave the loop at their tap, so the
sanitizer's conservation invariant counts them as removed.

The recovery layer keeps the ring's FIFO delivery order, which the
Section 4 protocol depends on (an operand-completion notice must never
overtake the result packets it covers).  Every lossy send carries a
sequence number; a successfully received message is held until all of
its predecessors have been delivered, so a retransmitted packet
head-of-line blocks later traffic instead of being overtaken — the
standard cost of a link-level go-back/NAK protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import hw
from repro.errors import RetryExhaustedError
from repro.faults.plan import FaultSpec
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


class Ring:
    """One communications ring with bandwidth accounting."""

    def __init__(self, sim: Simulator, model: hw.RingModel, name: str):
        self.sim = sim
        self.model = model
        self.name = name
        self._medium = Resource(sim, name, capacity=1)
        self.bytes_carried = 0
        self.messages_carried = 0
        self.broadcasts = 0
        # Pre-bound observability probe and message hook (None when
        # nothing records them): a disabled run pays one ``is not None``
        # check per message.  The medium Resource reports on-loop transit;
        # this ring adds its messages and the lossy path's backoff.
        self._probe = sim.probe
        self._on_message: Optional[Callable[..., None]] = None
        if self._probe is not None:
            self._probe.ring(name)
            self._on_message = self._probe.hook("message")
        # Packet conservation (Section 4's shift-register insertion
        # protocol: every message inserted into the loop is also removed).
        # Tracked only under sanitize mode — the removal count needs a
        # wrapper around every delivery callback.
        self._sanitizer = sim.sanitizer
        self.packets_injected = 0
        self.packets_removed = 0
        if self._sanitizer is not None:
            self._sanitizer.register_finish_check(
                f"ring[{name}]", self._sanitize_finish
            )
        # Fault injection: resolve this ring's specs once.  ``None`` when
        # nothing is armed here, so the fault-free path below is taken
        # verbatim (bit-identical to a run with no plan at all).
        self._injector = sim.faults
        self._drop_spec: Optional[FaultSpec] = None
        self._corrupt_spec: Optional[FaultSpec] = None
        if self._injector is not None:
            self._drop_spec = self._injector.armed_spec("ring_drop", name)
            self._corrupt_spec = self._injector.armed_spec("ring_corrupt", name)
            if self._drop_spec is None and self._corrupt_spec is None:
                self._injector = None
        # In-order delivery state for the lossy path (see module docstring).
        self._lossy_seq = 0
        self._lossy_cursor = 0
        self._lossy_ready: Dict[int, Callable[[], None]] = {}

    def send(
        self,
        nbytes: int,
        deliver: Callable[[], None],
        query: Optional[str] = None,
    ) -> None:
        """Transmit one ``nbytes`` message; ``deliver`` fires at arrival.

        ``query`` tags the message for span collection: its on-loop time
        is attributed to that query's transit bucket (ignored when spans
        are off).
        """
        self._accept(nbytes, deliver, broadcast=False, query=query)

    def broadcast(
        self,
        nbytes: int,
        deliver: Callable[[], None],
        query: Optional[str] = None,
    ) -> None:
        """Transmit one message that every tap on the loop can copy.

        Cost is identical to a point-to-point send — that is the whole
        point of the ring's broadcast facility.
        """
        self._accept(nbytes, deliver, broadcast=True, query=query)

    def _accept(
        self,
        nbytes: int,
        deliver: Callable[[], None],
        broadcast: bool,
        query: Optional[str] = None,
    ) -> None:
        self.bytes_carried += nbytes
        self.messages_carried += 1
        if broadcast:
            self.broadcasts += 1
        if self._on_message is not None:
            self._on_message(
                self.name,
                "broadcast" if broadcast else "send",
                self.sim.now,
                nbytes,
                queued=self._medium.queued,
            )
        if self._injector is not None:
            if self._sanitizer is not None:
                self.packets_injected += 1
            seq = self._lossy_seq
            self._lossy_seq += 1
            self._transmit(nbytes, deliver, attempt=0, seq=seq, query=query)
            return
        if self._sanitizer is not None:
            self.packets_injected += 1
            deliver = self._counted_removal(deliver)
        self._medium.submit(
            self.model.transfer_time_ms(nbytes),
            deliver,
            nbytes=nbytes,
            query=query,
            span_kind="transit",
        )

    def _counted_removal(self, deliver: Callable[[], None]) -> Callable[[], None]:
        def removed() -> None:
            self.packets_removed += 1
            deliver()

        return removed

    # -- lossy-ring recovery (fault injection) -------------------------------

    def _transmit(
        self,
        nbytes: int,
        deliver: Callable[[], None],
        attempt: int,
        seq: int,
        query: Optional[str] = None,
    ) -> None:
        """One transfer attempt under an armed drop/corrupt spec.

        The attempt's fate is drawn from this ring's seeded streams at
        submit time, so strike order depends only on send order.  A
        corrupted arrival is NAKed immediately (the checksum fails at the
        receiving tap); a drop is recovered by the retransmission timer
        with exponential backoff.  Successful arrivals are released in
        sequence order to preserve the loop's FIFO semantics.
        """
        inj = self._injector
        assert inj is not None
        fate: Optional[FaultSpec] = None
        kind = ""
        if self._drop_spec is not None and inj.decide(
            "ring_drop", self.name, self._drop_spec.rate
        ):
            fate, kind = self._drop_spec, "drop"
        elif self._corrupt_spec is not None and inj.decide(
            "ring_corrupt", self.name, self._corrupt_spec.rate
        ):
            fate, kind = self._corrupt_spec, "corrupt"

        def arrived() -> None:
            # Conservation fix: an intentionally dropped or corrupt-
            # discarded packet still leaves the loop at its tap, so it
            # counts as removed — otherwise the sanitizer's conservation
            # invariant would false-positive under injection.
            if self._sanitizer is not None:
                self.packets_removed += 1
            if fate is None:
                self._lossy_ready[seq] = deliver
                self._drain_ready()
                return
            if attempt >= fate.max_retries:
                raise RetryExhaustedError(
                    f"ring[{self.name}]: {nbytes}-byte transfer still "
                    f"{'dropped' if kind == 'drop' else 'corrupted'} after "
                    f"{attempt + 1} attempts (max_retries={fate.max_retries})"
                )
            inj.count("ring." + kind, self.name)
            if kind == "corrupt":
                # Receiver NAK: the bad checksum is detected on arrival,
                # so retransmission starts after one control turnaround.
                inj.count("ring.nak", self.name)
                delay = fate.nak_delay_ms
            else:
                delay = fate.timeout_ms * fate.backoff**attempt
            inj.count("ring.retransmit", self.name)
            if self._probe is not None:
                # The recovery wait (NAK turnaround or timeout backoff) is
                # the retransmission bucket; the re-offered transfer's
                # on-loop time is charged as transit like any other.
                self._probe.interval(
                    "retransmission", query, self.sim.now, self.sim.now + delay, self.name
                )
            self.sim.schedule(
                delay,
                lambda: self._retransmit(nbytes, deliver, attempt + 1, seq, query),
                label=f"ring.{self.name}.retransmit",
            )

        self._medium.submit(
            self.model.transfer_time_ms(nbytes),
            arrived,
            nbytes=nbytes,
            query=query,
            span_kind="transit",
        )

    def _drain_ready(self) -> None:
        """Release consecutively received messages in send order."""
        while self._lossy_cursor in self._lossy_ready:
            deliver = self._lossy_ready.pop(self._lossy_cursor)
            self._lossy_cursor += 1
            deliver()

    def _retransmit(
        self,
        nbytes: int,
        deliver: Callable[[], None],
        attempt: int,
        seq: int,
        query: Optional[str] = None,
    ) -> None:
        """Re-offer a lost transfer to the loop (charges bytes again)."""
        self.bytes_carried += nbytes
        self.messages_carried += 1
        if self._on_message is not None:
            self._on_message(self.name, "retransmit", self.sim.now, nbytes, attempt=attempt)
        if self._sanitizer is not None:
            self.packets_injected += 1
        self._transmit(nbytes, deliver, attempt, seq, query=query)

    def _sanitize_finish(self) -> List[str]:
        """Packet-conservation invariant for the sanitizer."""
        if self.packets_injected != self.packets_removed:
            return [
                f"packet conservation violated: {self.packets_injected} injected, "
                f"{self.packets_removed} removed"
            ]
        return []

    # -- measurement ---------------------------------------------------------

    def offered_mbps(self, elapsed_ms: float) -> float:
        """Average offered load in megabits/second over ``elapsed_ms``."""
        if elapsed_ms <= 0:
            return 0.0
        return self.bytes_carried * 8.0 / 1e6 / (elapsed_ms / 1000.0)

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of the loop's capacity in use (in-flight time included)."""
        return self._medium.utilization(elapsed_ms)

    @property
    def queue_depth(self) -> int:
        """Messages waiting to enter the loop."""
        return self._medium.queued

    @property
    def peak_queue(self) -> int:
        """Deepest insertion queue seen so far."""
        return self._medium.stats.peak_queue

    @property
    def mean_queue_wait_ms(self) -> float:
        """Mean time a message waited to enter the loop."""
        return self._medium.stats.mean_wait()

    def __repr__(self) -> str:
        return f"Ring({self.name!r}, {self.model.bit_rate_mbps} Mbps, {self.bytes_carried} B)"
