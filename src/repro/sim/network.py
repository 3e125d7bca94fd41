"""Simulated asynchronous message-passing network.

The network delivers point-to-point messages between registered endpoints
with a configurable latency model:

* a random base delay per message (uniform between ``min_delay`` and
  ``max_delay``),
* a serialisation component proportional to message size
  (``size / bandwidth``), which is what makes large state-transfer
  snapshots observably slower than protocol messages,
* optional loss (``drop_probability``) and duplication
  (``duplicate_probability``),
* the named link rules of a :class:`~repro.faults.LinkPolicy`
  (partitions, one-way drops, added delay, loss), the same policy the
  live TCP transport consults.

Messages to crashed endpoints are silently dropped at delivery time, the
usual fail-stop model. The network also keeps per-run statistics (message
and byte counts, split by payload type) that the benchmark harness reads
for the message-cost experiment (T4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import NetworkError
from repro.faults import LinkPolicy
from repro.sim.rng import SeededRng
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runner import Simulator


def _estimate_size(payload: Any) -> int:
    """Wire-size estimate from the shared codec (lazy import: cycle guard).

    Memoized by :func:`repro.net.codec.payload_shape` — payload type plus
    shallow structure — so the steady-state simulator stops paying a full
    encode per send: two ``Accept``\\ s carrying equally-shaped commands hit
    the same cache slot. First-seen shapes still get the exact encoded
    size, which keeps byte accounting identical for homogeneous traffic.
    """
    global _codec_estimate, _codec_shape
    if _codec_estimate is None:
        from repro.net.codec import estimate_size, payload_shape

        _codec_estimate = estimate_size
        _codec_shape = payload_shape
    shape = _codec_shape(payload)
    if shape is None:
        return _codec_estimate(payload)
    cached = _SIZE_CACHE.get(shape)
    if cached is None:
        if len(_SIZE_CACHE) >= _SIZE_CACHE_LIMIT:
            _SIZE_CACHE.clear()  # tiny entries; full reset beats LRU here
        cached = _SIZE_CACHE[shape] = _codec_estimate(payload)
    return cached


_codec_estimate: Callable[[Any], int] | None = None
_codec_shape: Callable[[Any], Any] | None = None
_SIZE_CACHE: dict[Any, int] = {}
_SIZE_CACHE_LIMIT = 4096


@dataclass(frozen=True, slots=True)
class Message:
    """Envelope around one protocol payload in flight."""

    sender: NodeId
    dest: NodeId
    payload: Any
    size: int
    sent_at: Time


@dataclass(slots=True)
class LatencyModel:
    """Parameters of the delivery-delay distribution.

    ``bandwidth`` is in bytes per simulated second; delays are in simulated
    seconds. The defaults model a LAN: 0.5–2 ms one-way latency and
    ~1 Gbit/s of per-link bandwidth.
    """

    min_delay: float = 0.0005
    max_delay: float = 0.002
    bandwidth: float = 125_000_000.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0

    def sample_delay(self, rng: SeededRng, size: int) -> float:
        base = rng.uniform(self.min_delay, self.max_delay)
        return base + size / self.bandwidth


@dataclass(slots=True)
class NetworkStats:
    """Cumulative traffic accounting for one simulation run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    bytes_by_type: dict[str, int] = field(default_factory=dict)

    def record_send(self, payload: Any, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        kind = type(payload).__name__
        self.by_type[kind] = self.by_type.get(kind, 0) + 1
        self.bytes_by_type[kind] = self.bytes_by_type.get(kind, 0) + size


class Network:
    """Message router between endpoint processes.

    Endpoints register a delivery callback keyed by :data:`NodeId`. The
    network owns its RNG fork so that traffic randomness is independent of
    workload randomness.
    """

    def __init__(self, sim: "Simulator", latency: LatencyModel | None = None):
        self._sim = sim
        self.latency = latency if latency is not None else LatencyModel()
        self._rng = sim.rng.fork("network")
        self._endpoints: dict[NodeId, Callable[[Message], None]] = {}
        #: link faults (partitions, one-way drops, delay, loss), consulted
        #: where the live transport consults its own: on send, in the
        #: delay, and again at delivery.
        self.policy = LinkPolicy(rng=sim.rng.fork("links"))
        self.stats = NetworkStats()

    # -- endpoint management -------------------------------------------------

    def register(self, node: NodeId, deliver: Callable[[Message], None]) -> None:
        if node in self._endpoints:
            raise NetworkError(f"endpoint {node!r} already registered")
        self._endpoints[node] = deliver

    def unregister(self, node: NodeId) -> None:
        self._endpoints.pop(node, None)

    def knows(self, node: NodeId) -> bool:
        return node in self._endpoints

    # -- sending -------------------------------------------------------------

    def send(
        self, sender: NodeId, dest: NodeId, payload: Any, size: int | None = None
    ) -> None:
        """Queue ``payload`` for asynchronous delivery to ``dest``.

        ``size=None`` estimates the payload's encoded wire size with the
        shared codec (:func:`repro.net.codec.estimate_size`), so byte
        accounting matches what the live TCP transport would actually put
        on the wire; explicit sizes remain for payloads whose bytes are
        synthetic (modelled snapshots, workload-sized commands).

        Unknown destinations are treated as unreachable hosts (message
        dropped) rather than errors: protocols routinely address nodes that
        have been removed from the cluster.
        """
        if size is None:
            size = _estimate_size(payload)
        self.stats.record_send(payload, size)
        message = Message(
            sender=sender, dest=dest, payload=payload, size=size, sent_at=self._sim.now
        )
        if self.policy.should_drop(sender, dest):
            self.stats.messages_dropped += 1
            return
        if self.latency.drop_probability > 0.0:
            if self._rng.random() < self.latency.drop_probability:
                self.stats.messages_dropped += 1
                return
        self._schedule_delivery(message)
        if self.latency.duplicate_probability > 0.0:
            if self._rng.random() < self.latency.duplicate_probability:
                self._schedule_delivery(message)

    def send_to(self, address: Any, sender: NodeId, dest: NodeId, payload: Any,
                size: int | None = None) -> None:
        """Another group's ``dest``: names are unique in a run, so they route."""
        self.send(sender, dest, payload, size)

    def _schedule_delivery(self, message: Message) -> None:
        delay = self.latency.sample_delay(self._rng, message.size) + self.policy.latency(
            message.sender, message.dest
        )
        self._sim.schedule(
            delay,
            lambda: self._deliver(message),
            label=f"deliver:{type(message.payload).__name__}",
        )

    def _deliver(self, message: Message) -> None:
        # Blocking rules are re-checked at delivery time so that a partition
        # installed while a message is in flight also cuts it off.
        if self.policy.blocks(message.sender, message.dest):
            self.stats.messages_dropped += 1
            return
        deliver = self._endpoints.get(message.dest)
        if deliver is None:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        deliver(message)
