"""Load generation: seeded operation streams and the one-connection driver.

The driver models ``lanes`` callers multiplexed over a single TCP
connection from a single thread. Each lane has its own ``ClientId`` and at
most one command outstanding, which is the discipline the replicas' dedup
layer assumes, so a retry that overtakes a newer command is never taken
for a stale duplicate. A lane only ever writes its own keys, so writes to
one key never overlap and "the last acknowledged write" is well defined.

Two loop shapes share the engine:

* closed loop: a lane sends its next command as soon as the previous one
  is acknowledged (``lanes`` callers that each wait for a reply);
* paced open stream: one lane, command ``i`` is due at ``i / rate``
  seconds and its latency is timed **from that due time**, so requests due
  while the service stalls are charged the wait; how late the generator
  itself ran is reported beside it.

Latency is first transmission to acknowledgement: a retransmission keeps
its ``CommandId`` and counts its whole wait.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.client import (
    ClientReply,
    ClientRequest,
    Redirect,
    ReplyBatch,
    RequestBatch,
)
from repro.net import codec
from repro.net.client import PIPELINE_COALESCE
from repro.types import ClientId, Command, CommandId, NodeId
from repro.verify.histories import Operation

from perf.trace import Tracer

#: distinct keys every workload touches (preloaded before measuring).
KEYS = 256
#: bytes per written value.
VALUE_BYTES = 64
#: silence on the connection after which everything outstanding is resent.
REQUEST_TIMEOUT_S = 1.0
#: how long commands still outstanding at the end of a run may take to be
#: acknowledged before they count as failed.
DRAIN_S = 5.0
#: most violations kept verbatim (the count is always exact).
VIOLATIONS_SHOWN = 10

Op = tuple[str, tuple[Any, ...], int]


def key_order(seed: int) -> list[str]:
    """The key space in seeded order; lane ``l`` owns positions ``l mod lanes``."""
    keys = [f"key-{i}" for i in range(KEYS)]
    random.Random(seed).shuffle(keys)
    return keys


def value_for(number: int) -> str:
    """The value written by operation ``number``: fixed width, so the values
    of one key compare in write order as strings."""
    return f"{number:0{VALUE_BYTES}d}"


class OpStream:
    """Seeded operations, generated per lane so timing cannot reorder them.

    Operation ``k`` of lane ``l`` depends only on ``(seed, l, k)``. It
    carries the number ``(k + 1) * lanes + l``, which grows along each lane
    and therefore along the writes of each key.
    """

    def __init__(self, seed: int, lanes: int, read_frac: float = 0.0):
        if KEYS % lanes:
            raise ValueError(f"lanes must divide {KEYS}")
        self.lanes = lanes
        self.read_frac = read_frac
        self.keys = key_order(seed)
        self._rngs = [random.Random(f"{seed}/{lane}") for lane in range(lanes)]
        self._counts = [0] * lanes

    def next(self, lane: int) -> Op:
        rng = self._rngs[lane]
        self._counts[lane] += 1
        if rng.random() < self.read_frac:
            return "get", (self.keys[rng.randrange(KEYS)],), 32
        number = self._counts[lane] * self.lanes + lane
        own = rng.randrange(KEYS // self.lanes)
        key = self.keys[lane + own * self.lanes]
        return "set", (key, value_for(number)), VALUE_BYTES


class FixedOps:
    """A finite list of operations dealt to lanes round-robin."""

    def __init__(self, ops: list[Op], lanes: int):
        self._per_lane = [ops[lane::lanes] for lane in range(lanes)]
        self._taken = [0] * lanes

    def next(self, lane: int) -> Op | None:
        taken = self._taken[lane]
        if taken >= len(self._per_lane[lane]):
            return None
        self._taken[lane] = taken + 1
        return self._per_lane[lane][taken]


@dataclass(slots=True)
class LoopResult:
    """What one stretch of the driver observed."""

    attempted: int = 0
    acked: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: paced stream only: send time minus due time, per operation.
    lateness_s: list[float] = field(default_factory=list)
    #: paced stream only: acknowledgement instants (monotonic clock).
    completions: list[float] = field(default_factory=list)
    retransmits: int = 0
    gets: int = 0
    violation_count: int = 0
    violations: list[str] = field(default_factory=list)
    #: key -> value of every acknowledged get (read-back passes use this).
    reads: dict[str, Any] = field(default_factory=dict)

    def violate(self, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < VIOLATIONS_SHOWN:
            self.violations.append(message)


class LoadDriver:
    """``lanes`` callers over one connection; closed loop or paced."""

    def __init__(
        self,
        name: str,
        addresses: dict[str, tuple[str, int]],
        view: list[str],
        lanes: int,
        tracer: Tracer | None = None,
        pace_hz: float | None = None,
        history: list[Operation] | None = None,
        known: dict[str, str] | None = None,
    ):
        if pace_hz is not None and lanes != 1:
            raise ValueError("the paced stream has one caller")
        self.node = NodeId(name)
        self.addresses = {NodeId(n): a for n, a in addresses.items()}
        self.view = sorted(NodeId(n) for n in view)
        self.lanes = lanes
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.pace_hz = pace_hz
        #: every acknowledged or abandoned operation, for the Wing-Gong
        #: checker; None spares the closed loops the bookkeeping.
        self.history = history
        self._clients = [ClientId(f"{name}-{lane}") for lane in range(lanes)]
        self._lane_of = {client: lane for lane, client in enumerate(self._clients)}
        self._seq = [0] * lanes
        self._command: list[Command | None] = [None] * lanes
        self._first_sent = [0.0] * lanes
        #: per in-flight get: the newest value acknowledged for its key when
        #: the get was sent (a linearizable read returns nothing older).
        self._floor: list[str | None] = [None] * lanes
        self._inflight = 0
        self._issued = 0
        self._target = 0
        self._sock: socket.socket | None = None
        self._buffer = bytearray()
        #: newest value acknowledged / sent per key, across all runs;
        #: ``known`` is what the keys held before this driver wrote.
        self.acked_value: dict[str, str] = dict(known or {})
        self.sent_value: dict[str, str] = dict(known or {})

    # -- public surface -----------------------------------------------------

    def run(self, stream: Any, seconds: float | None) -> LoopResult:
        """Drive ``stream`` for ``seconds`` (None: until it is exhausted),
        then wait for what is outstanding. Lanes start and end idle."""
        result = LoopResult()
        tracer = self.tracer
        clock = time.monotonic
        started = clock()
        stop_at = started + (60.0 if seconds is None else seconds)
        drain_until = stop_at + DRAIN_S
        idle = list(range(self.lanes))
        spent = 0  # lanes whose stream has run out
        due = started  # paced stream: when the next command is due
        while True:
            iteration = tracer.begin("iteration", op=self._issued)
            now = clock()
            exhausted = spent == self.lanes
            sending = now < stop_at and not exhausted
            if self.pace_hz is not None:
                sending = sending and due < stop_at
            if sending and idle and (self.pace_hz is None or now >= due):
                span = tracer.begin("build", iteration, self._issued)
                commands = []
                for lane in idle:
                    op = stream.next(lane)
                    if op is None:
                        spent += 1
                    elif self.pace_hz is None:
                        commands.append(self._issue(lane, op, now))
                    else:
                        commands.append(self._issue(lane, op, due))
                        result.lateness_s.append(now - due)
                        due = started + (result.attempted + 1) / self.pace_hz
                idle = []
                exhausted = spent == self.lanes
                result.attempted += len(commands)
                tracer.end(span)
                if commands:
                    self._transmit(commands, iteration)
            if self._inflight == 0:
                if not sending or exhausted:
                    tracer.end(iteration)
                    break
                span = tracer.begin("pace", iteration)
                time.sleep(max(0.0, due - clock()))
                tracer.end(span)
                tracer.end(iteration)
                continue
            if now >= drain_until:
                tracer.end(iteration)
                break
            span = tracer.begin("wait", iteration)
            arrived = self._receive(min(REQUEST_TIMEOUT_S, drain_until - now))
            tracer.end(span)
            if arrived:
                idle.extend(self._consume(result, iteration))
            else:
                # Silence for a whole request timeout, or a broken
                # connection: resend everything outstanding under the same
                # CommandIds (replica-side dedup keeps that exactly-once).
                result.retransmits += self._inflight
                self._retransmit(iteration)
            tracer.end(iteration)
        result.wall_s = clock() - started
        self._abandon(result)
        return result

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._buffer = bytearray()

    def __enter__(self) -> "LoadDriver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- issuing and sending ------------------------------------------------

    def _issue(self, lane: int, op: Op, invoked: float) -> Command:
        name, args, size = op
        self._seq[lane] += 1
        command = Command(
            CommandId(self._clients[lane], self._seq[lane]), name, args, size
        )
        self._command[lane] = command
        self._first_sent[lane] = invoked
        key = args[0]
        if name == "set":
            self.sent_value[key] = args[1]
        else:
            self._floor[lane] = self.acked_value.get(key)
        self._inflight += 1
        self._issued += 1
        return command

    def _transmit(self, commands: list[Command], parent: int) -> None:
        """Send ``commands`` in RequestBatch frames of LiveClient's size."""
        tracer = self.tracer
        target = self.view[self._target % len(self.view)]
        span = tracer.begin("encode", parent, self._issued - len(commands))
        frames = []
        for at in range(0, len(commands), PIPELINE_COALESCE):
            group = commands[at : at + PIPELINE_COALESCE]
            payload: Any = (
                ClientRequest(group[0], self.node)
                if len(group) == 1
                else RequestBatch(tuple(group), self.node)
            )
            frames.append(codec.encode_frame(self.node, target, payload))
        tracer.end(span)
        span = tracer.begin("send", parent)
        try:
            self._connect(target).sendall(b"".join(frames))
        except OSError:
            self._failover()
        tracer.end(span)

    def _retransmit(self, parent: int) -> None:
        outstanding = [c for c in self._command if c is not None]
        if outstanding:
            self._transmit(outstanding, parent)

    def _connect(self, target: NodeId) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.addresses[target], timeout=2.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._buffer = bytearray()
        return self._sock

    def _failover(self) -> None:
        """Drop the connection and aim at the next member of the view."""
        self.close()
        self._target = (self._target + 1) % len(self.view)
        time.sleep(0.05)

    # -- receiving ----------------------------------------------------------

    def _receive(self, timeout: float) -> bool:
        """Block until bytes arrive; False on silence or a dead connection."""
        sock = self._sock
        if sock is None:
            return False
        sock.settimeout(max(timeout, 0.01))
        try:
            chunk = sock.recv(1 << 18)
        except socket.timeout:
            return False
        except OSError:
            chunk = b""
        if not chunk:
            self._failover()
            return False
        self._buffer += chunk
        return True

    def _consume(self, result: LoopResult, parent: int) -> list[int]:
        """Decode every complete frame buffered; returns the lanes freed."""
        tracer = self.tracer
        buffer = self._buffer
        freed: list[int] = []
        redirected = False
        pos = 0
        while len(buffer) - pos >= 4:
            length = codec.frame_length(buffer[pos : pos + 4])
            if len(buffer) - pos < 4 + length:
                break
            span = tracer.begin("decode", parent)
            _, _, payload = codec.decode_frame_body(
                bytes(buffer[pos + 4 : pos + 4 + length])
            )
            tracer.end(span)
            pos += 4 + length
            span = tracer.begin("ack", parent)
            now = time.monotonic()
            replies = payload.replies if isinstance(payload, ReplyBatch) else (payload,)
            for reply in replies:
                if isinstance(reply, ClientReply):
                    lane = self._acknowledge(reply, now, result)
                    if lane is not None:
                        freed.append(lane)
                elif isinstance(reply, Redirect):
                    redirected = self._adopt(reply) or redirected
            tracer.end(span)
        del buffer[:pos]
        if redirected:
            self.close()
            self._retransmit(parent)
        return freed

    def _adopt(self, redirect: Redirect) -> bool:
        """Follow a retired replica's pointer to the current membership."""
        lane = self._lane_of.get(redirect.cid.client)
        if lane is None or self._command[lane] is None:
            return False
        reachable = sorted(n for n in redirect.members.nodes if n in self.addresses)
        if reachable and reachable != self.view:
            self.view = reachable
            self._target = 0
        else:
            self._target = (self._target + 1) % len(self.view)
        return True

    def _acknowledge(
        self, reply: ClientReply, now: float, result: LoopResult
    ) -> int | None:
        lane = self._lane_of.get(reply.cid.client)
        if lane is None:
            return None
        command = self._command[lane]
        if command is None or reply.cid.seq != command.cid.seq:
            return None  # a duplicate reply to a command already settled
        self._command[lane] = None
        self._inflight -= 1
        result.acked += 1
        result.latencies_s.append(now - self._first_sent[lane])
        if self.pace_hz is not None:
            result.completions.append(now)
        key = command.args[0]
        value = reply.value
        if command.op == "set":
            if value != "ok":
                result.violate(f"set {key} acknowledged with {value!r}")
            self.acked_value[key] = command.args[1]
        else:
            result.gets += 1
            result.reads[key] = value
            floor = self._floor[lane]
            newest = self.sent_value.get(key)
            if value is not None and not isinstance(value, str):
                result.violate(f"get {key} returned {value!r}")
            elif floor is not None and (value is None or value < floor):
                result.violate(f"get {key} returned a value older than one "
                               f"acknowledged before it was sent")
            elif value is not None and (newest is None or value > newest):
                result.violate(f"get {key} returned a value never written")
        if self.history is not None:
            self.history.append(Operation(
                command.cid, command.op, command.args,
                self._first_sent[lane], now, value,
            ))
        return lane

    def _abandon(self, result: LoopResult) -> None:
        """Count what is still outstanding as failed and free the lanes."""
        for lane, command in enumerate(self._command):
            if command is None:
                continue
            result.failed += 1
            if self.history is not None:
                self.history.append(Operation(
                    command.cid, command.op, command.args,
                    self._first_sent[lane], None, None,
                ))
            self._command[lane] = None
        self._inflight = 0
