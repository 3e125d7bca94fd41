"""Heartbeat-based failure detection for leader-ful engines.

:class:`HeartbeatMonitor` encapsulates the "when do I suspect the leader"
logic shared by the Multi-Paxos engine (and usable by any leader-based
protocol): a randomized suspicion timeout that is re-armed every time we
hear from the current leader, firing a campaign callback when it expires.

Randomizing the timeout per node (uniform in ``[min, 2 * min]``) is the
standard duelling-candidates mitigation: two followers rarely give up on a
dead leader at exactly the same instant.
"""

from __future__ import annotations

from typing import Callable

from repro.consensus.interface import Transport
from repro.sim.events import Timer


class HeartbeatMonitor:
    """Suspicion timer around a (possibly changing) leader."""

    def __init__(
        self,
        transport: Transport,
        timeout_min: float,
        on_suspect: Callable[[], None],
    ):
        self._transport = transport
        self._timeout_min = timeout_min
        self._timeout_max = 2.0 * timeout_min
        self._on_suspect = on_suspect
        self._timer: Timer | None = None
        self._stopped = False

    def start(self) -> None:
        self._stopped = False
        self._arm()

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def heard_from_leader(self) -> None:
        """Re-arm the suspicion timeout: the leader is alive."""
        if not self._stopped:
            self._arm()

    def _arm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        delay = self._transport.rng.uniform(self._timeout_min, self._timeout_max)
        self._timer = self._transport.set_timer(delay, self._fire, label="hb-suspect")

    def _fire(self) -> None:
        if self._stopped:
            return
        self._on_suspect()
        # Re-arm so a failed campaign (split votes, partition) retries
        # after another randomized interval rather than stalling forever.
        self._arm()
