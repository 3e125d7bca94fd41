"""Failure injection in the simulator: one :class:`FailureSchedule`, armed.

The schedule vocabulary lives in :mod:`repro.faults`, shared with the live
runtime's :class:`repro.net.chaos.ChaosController`. Here a crash or
restart acts on the simulated :class:`~repro.sim.node.Process`, and every
link action goes to the simulator network's
:class:`~repro.faults.LinkPolicy` - the same policy, with the same
partition, one-way drop, delay and loss semantics, that a live transport
consults - so one plan runs unchanged on either backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.faults import CrashAt, FailureAction, FailureSchedule, RestartAt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runner import Simulator


class FailureInjector:
    """Arms a :class:`FailureSchedule` against a simulation."""

    def __init__(self, sim: "Simulator", schedule: FailureSchedule):
        self._sim = sim
        self._schedule = schedule

    def arm(self) -> None:
        for action in self._schedule.actions:
            if action.time < self._sim.now:
                raise ConfigurationError(
                    f"failure action {action} scheduled before current time"
                )
            self._sim.schedule(
                action.time - self._sim.now,
                lambda a=action: self._apply(a),
                label="failure-injection",
            )

    def _apply(self, action: FailureAction) -> None:
        sim = self._sim
        if isinstance(action, (CrashAt, RestartAt)):
            process = sim.process(action.node)
            if process is None:
                raise ConfigurationError(f"{action} names an unknown node")
            if isinstance(action, CrashAt):
                process.crash()
            else:
                process.restart()
            return
        sim.network.policy.apply(action)
        # partition / heal / droplink / delaylink / loselink
        kind = type(action).__name__[:-2].lower()
        sim.trace.emit(sim.now, "injector", kind, name=action.name)
