"""A trivial single-sequencer SMR engine.

The second, deliberately simple non-reconfigurable building block: the
lowest-id member is the *sequencer*; it assigns slots to proposals in
arrival order and broadcasts decisions. Learners deliver in order and pull
missing slots from the sequencer.

This block is **not fault tolerant** — if the sequencer crashes the
instance stalls forever. That is the point: the paper's composition takes
*whatever* static SMR it is given, and experiment T5 runs the full
reconfigurable service over this block to demonstrate block-agnosticism
(and, with a sequencer crash, that the composition's availability is that
of its building block within an epoch — reconfiguration is what replaces a
sick instance).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.consensus.interface import SmrEngine, Transport, proposal_key
from repro.consensus.log import DecidedLog
from repro.consensus import messages as m
from repro.consensus.multipaxos import payload_size
from repro.types import Decision, Membership, NodeId, Slot


#: period of a proposer's re-forward (simulated seconds).
PROPOSAL_RETRY_INTERVAL = 0.10
#: period of a learner's catch-up probe to the sequencer.
GAP_PROBE_INTERVAL = 0.05
#: most decided slots one CatchupReply carries.
CATCHUP_BATCH = 200
#: bytes every engine message is charged beyond its payload (sim).
PROTOCOL_OVERHEAD_BYTES = 64


class SequencerEngine(SmrEngine):
    """One member's slice of the single-sequencer instance."""

    def __init__(
        self,
        transport: Transport,
        membership: Membership,
        on_decide: Callable[[Decision], None],
    ):
        super().__init__(transport, membership, on_decide)
        self.peers = membership.sorted_nodes()
        self.sequencer: NodeId = self.peers[0]
        self.is_sequencer = transport.node == self.sequencer
        self.log = DecidedLog(on_decide)
        self.next_slot: Slot = 0
        self.assigned_keys: dict[Any, Slot] = {}
        self.awaiting: dict[Any, Any] = {}

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        self._arm_retry()
        if not self.is_sequencer:
            self._arm_gap_probe()

    def leads(self) -> bool:
        return self.is_sequencer and not self.stopped

    @property
    def next_undelivered_slot(self) -> Slot:
        return self.log.next_to_deliver

    # -- proposing ---------------------------------------------------------------

    def propose(self, payload: Any) -> None:
        if self.stopped:
            return
        key = proposal_key(payload)
        if key is not None:
            if self._key_settled(key):
                return
            self.awaiting[key] = payload
        if self.is_sequencer:
            self._order(payload)
        else:
            self.transport.send(
                self.sequencer,
                m.ProposeForward(payload),
                size=PROTOCOL_OVERHEAD_BYTES + payload_size(payload),
            )

    def _key_settled(self, key: Any) -> bool:
        slot = self.assigned_keys.get(key)
        return slot is not None and self.log.is_decided(slot)

    def _order(self, payload: Any) -> None:
        key = proposal_key(payload)
        if key is not None and key in self.assigned_keys:
            return  # duplicate submission
        slot = self.next_slot
        self.next_slot += 1
        if key is not None:
            self.assigned_keys[key] = slot
        self._record(slot, payload)
        decide = m.Decide(slot, payload)
        size = PROTOCOL_OVERHEAD_BYTES + payload_size(payload)
        self.transport.broadcast(self.peers, decide, size=size)

    # -- messages -------------------------------------------------------------------

    def on_message(self, inner: Any, sender: NodeId) -> None:
        if self.stopped:
            return
        if isinstance(inner, m.ProposeForward):
            if self.is_sequencer:
                self._order(inner.payload)
        elif isinstance(inner, m.Decide):
            self._record(inner.slot, inner.value)
        elif isinstance(inner, m.CatchupRequest):
            entries = self.log.decided_range(inner.from_slot, CATCHUP_BATCH)
            if entries:
                size = PROTOCOL_OVERHEAD_BYTES + sum(
                    payload_size(v) for _, v in entries
                )
                self.transport.send(sender, m.CatchupReply(tuple(entries)), size=size)
        elif isinstance(inner, m.CatchupReply):
            for slot, value in inner.entries:
                self._record(slot, value)

    def _record(self, slot: Slot, value: Any) -> None:
        key = proposal_key(value)
        self.log.record(slot, value, self.transport.now)
        if key is not None:
            self.awaiting.pop(key, None)
            self.assigned_keys.setdefault(key, slot)

    # -- timers ------------------------------------------------------------------------

    def _arm_retry(self) -> None:
        if self.stopped:
            return
        self.transport.set_timer(
            PROPOSAL_RETRY_INTERVAL, self._retry_tick, label="seq-retry"
        )

    def _retry_tick(self) -> None:
        if self.stopped:
            return
        for key, payload in list(self.awaiting.items()):
            if self._key_settled(key):
                del self.awaiting[key]
            elif not self.is_sequencer:
                self.transport.send(
                    self.sequencer,
                    m.ProposeForward(payload),
                    size=PROTOCOL_OVERHEAD_BYTES + payload_size(payload),
                )
            else:
                self._order(payload)
        self._arm_retry()

    def _arm_gap_probe(self) -> None:
        if self.stopped:
            return
        self.transport.set_timer(
            GAP_PROBE_INTERVAL, self._gap_probe, label="seq-gap-probe"
        )

    def _gap_probe(self) -> None:
        if self.stopped:
            return
        # Always probe: this heals both interior gaps and tail losses
        # (a dropped Decide for the newest slot leaves no visible gap).
        # Empty probes cost one small message and draw no reply.
        self.transport.send(
            self.sequencer,
            m.CatchupRequest(self.log.next_to_deliver),
            size=PROTOCOL_OVERHEAD_BYTES,
        )
        self._arm_gap_probe()
