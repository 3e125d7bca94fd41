"""The replica side of the two admin endpoints, ``#chaos`` and ``#metrics``.

A ``repro serve`` process registers a **metrics endpoint**
(``<node>#metrics``, always) and, under ``serve --chaos``, a
**chaos endpoint** (``<node>#chaos``) on its transport. This module holds
what the replica needs for both: their four wire types, which the codec
registers, and the two handlers. The handlers run in the serve wiring,
outside the protocol stack, so replica code cannot see a fault schedule
or a poller (the simulator's honesty rule).

The other side lives elsewhere: :mod:`repro.net.chaos` pushes
:class:`ChaosCommand` frames from a failure schedule and checks the run
with the Wing–Gong oracle; :mod:`repro.net.observe` polls, aligns and
renders :class:`MetricsSnapshot` frames. Both import from here, never the
other way round, so a serving replica loads neither.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.types import CommandId, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FailureAction
    from repro.metrics.registry import MetricsRegistry
    from repro.net.transport import TcpTransport

#: suffix distinguishing a replica's chaos endpoint from the replica itself.
CHAOS_SUFFIX = "#chaos"

#: suffix distinguishing a replica's metrics endpoint from the replica.
METRICS_SUFFIX = "#metrics"


def chaos_endpoint(node: str) -> NodeId:
    """Transport endpoint id of ``node``'s chaos admin handler."""
    return NodeId(f"{node}{CHAOS_SUFFIX}")


def metrics_endpoint(node: str) -> NodeId:
    """Transport endpoint id of ``node``'s metrics handler."""
    return NodeId(f"{node}{METRICS_SUFFIX}")


# ---------------------------------------------------------------------------
# Wire protocol (registered in repro.net.codec's bootstrap)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChaosCommand:
    """Controller -> replica: apply one schedule action, or report status.

    ``action`` is the :data:`~repro.faults.FailureAction` itself (the
    codec's type table holds every action type); the replica applies it to its
    transport's :class:`~repro.faults.LinkPolicy`. ``None`` asks for the
    replica's status instead.
    """

    cid: CommandId
    action: FailureAction | None = None


@dataclass(frozen=True, slots=True)
class ChaosAck:
    """Replica -> controller: the action was applied (or was not one a
    link rule models). A status answer carries the replica's recovery and
    durability status as a JSON object in ``detail``."""

    cid: CommandId
    applied: bool
    detail: str = ""


@dataclass(frozen=True, slots=True)
class MetricsRequest:
    """Poller -> replica: send me your registry snapshot."""

    cid: CommandId


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Replica -> poller: one registry snapshot, plus the local clock.

    ``now`` is the replica's runtime clock (seconds since its process
    started) at snapshot time — the timebase every span timestamp and
    histogram sample in the snapshot was recorded against. Dict fields
    hold only wire-native values (str keys; int/float/nested-dict
    values), exactly as :meth:`MetricsRegistry.snapshot` emits them.
    """

    cid: CommandId
    node: NodeId
    now: float
    counters: dict[str, int]
    gauges: dict[str, float]
    histograms: dict[str, dict[str, float]]
    spans: dict[str, dict[str, float]]


# ---------------------------------------------------------------------------
# The handlers
# ---------------------------------------------------------------------------


def install_chaos_endpoint(
    transport: TcpTransport, node: str, status: Any = None
) -> NodeId:
    """Register ``node``'s chaos admin endpoint on its transport.

    Only wired up under ``repro serve --chaos``: production replicas do
    not expose remote fault injection. The handler mutates the
    transport's :class:`~repro.faults.LinkPolicy` and acks over the
    requester's reply route — it never touches replica state, so the
    protocol stack stays blind to the schedule.

    ``status`` (optional, a zero-argument callable returning a plain
    dict) answers a command with no action - the controller uses it to
    ask a restarted replica whether it recovered durable state. An action
    no link rule models (a crash, a restart) is acked ``applied=False``.
    """
    endpoint = chaos_endpoint(node)

    def handle(message: Any) -> None:
        command = message.payload
        if not isinstance(command, ChaosCommand):
            return
        if command.action is not None:
            ack = ChaosAck(command.cid, transport.policy.apply(command.action))
        elif status is not None:
            ack = ChaosAck(command.cid, True, json.dumps(status()))
        else:
            ack = ChaosAck(command.cid, False)
        transport.send(endpoint, message.sender, ack)

    transport.register(endpoint, handle)
    return endpoint


def install_metrics_endpoint(
    transport: TcpTransport,
    node: str,
    registry: MetricsRegistry,
    clock: Callable[[], float],
) -> NodeId:
    """Register ``node``'s metrics endpoint on its transport.

    Read-only, so every replica serves it: the handler snapshots the
    registry and replies over the requester's reply route.
    """
    endpoint = metrics_endpoint(node)

    def handle(message: Any) -> None:
        request = message.payload
        if not isinstance(request, MetricsRequest):
            return
        snap = registry.snapshot()
        transport.send(
            endpoint,
            message.sender,
            MetricsSnapshot(
                request.cid,
                NodeId(str(node)),
                clock(),
                snap["counters"],
                snap["gauges"],
                snap["histograms"],
                snap["spans"],
            ),
        )

    transport.register(endpoint, handle)
    return endpoint
