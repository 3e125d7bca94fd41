"""Unit tests for EpochRuntime, Transport, HeartbeatMonitor, and errors."""

import pytest

from repro.consensus.heartbeat import HeartbeatMonitor
from repro.consensus.interface import InstanceMessage, Transport
from repro.core.command import ReconfigCommand
from repro.core.epoch import EpochRuntime
from repro.errors import (
    AgreementViolation,
    ConfigurationError,
    HistoryError,
    NetworkError,
    ProtocolError,
    ReproError,
    SimulationError,
    StateTransferError,
    VerificationError,
)
from repro.sim.node import Process
from repro.sim.runner import Simulator
from repro.types import CommandId, Configuration, Membership, client_id, node_id


class TestEpochRuntime:
    def _runtime(self):
        return EpochRuntime(config=Configuration(2, Membership.of("n1", "n2")))

    def test_fresh_runtime_is_open(self):
        runtime = self._runtime()
        assert not runtime.sealed
        assert not runtime.effective_complete
        assert not runtime.fully_executed

    def test_sealing_lifecycle(self):
        runtime = self._runtime()
        runtime.effective = ["a", "b", "c"]
        runtime.cut_slot = 2
        assert runtime.sealed
        assert runtime.effective_complete
        runtime.executed = 2
        assert not runtime.fully_executed
        runtime.executed = 3
        assert runtime.fully_executed

    def test_sealed_but_incomplete(self):
        runtime = self._runtime()
        runtime.effective = ["a"]
        runtime.cut_slot = 2
        assert runtime.sealed
        assert not runtime.effective_complete

    def test_describe_mentions_state(self):
        runtime = self._runtime()
        assert "open" in runtime.describe()
        runtime.cut_slot = 0
        assert "sealed" in runtime.describe()


class _Host(Process):
    def __init__(self, sim, node):
        super().__init__(sim, node)
        self.inbox = []

    def on_message(self, payload, sender):
        self.inbox.append((payload, sender))


class TestTransport:
    def test_wraps_messages_in_instance_envelope(self):
        sim = Simulator(seed=81)
        a = _Host(sim, node_id("a"))
        b = _Host(sim, node_id("b"))
        transport = Transport(a, "e3")
        transport.send(b.node, "inner-payload", size=10)
        sim.run()
        payload, sender = b.inbox[0]
        assert isinstance(payload, InstanceMessage)
        assert payload.instance == "e3"
        assert payload.inner == "inner-payload"
        assert sender == "a"

    def test_transport_rng_is_stable_per_instance(self):
        sim1 = Simulator(seed=82)
        sim2 = Simulator(seed=82)
        t1 = Transport(_Host(sim1, node_id("a")), "e1")
        t2 = Transport(_Host(sim2, node_id("a")), "e1")
        assert [t1.rng.random() for _ in range(5)] == [t2.rng.random() for _ in range(5)]

    def test_timer_and_now(self):
        sim = Simulator(seed=83)
        a = _Host(sim, node_id("a"))
        transport = Transport(a, "e0")
        fired = []
        transport.set_timer(0.5, lambda: fired.append(transport.now))
        sim.run()
        assert fired == [0.5]


class TestHeartbeatMonitor:
    def _setup(self):
        sim = Simulator(seed=84)
        host = _Host(sim, node_id("a"))
        transport = Transport(host, "e0")
        fired = []
        monitor = HeartbeatMonitor(transport, 0.1, 0.2, lambda: fired.append(sim.now))
        return sim, monitor, fired

    def test_fires_after_silence(self):
        sim, monitor, fired = self._setup()
        monitor.start()
        sim.run(until=0.25)
        assert len(fired) >= 1
        assert 0.1 <= fired[0] <= 0.2

    def test_heard_from_leader_postpones(self):
        sim, monitor, fired = self._setup()
        monitor.start()
        for i in range(5):
            sim.at(i * 0.05, monitor.heard_from_leader)
        sim.run(until=0.25)
        assert not [t for t in fired if t < 0.25]

    def test_refires_until_stopped(self):
        sim, monitor, fired = self._setup()
        monitor.start()
        sim.run(until=1.0)
        assert len(fired) >= 4  # keeps campaigning on failure

    def test_stop_silences(self):
        sim, monitor, fired = self._setup()
        monitor.start()
        monitor.stop()
        sim.run(until=1.0)
        assert fired == []


class TestReconfigCommand:
    def test_carries_cid_for_dedup(self):
        command = ReconfigCommand(
            CommandId(client_id("admin"), 1), Membership.of("n1", "n2")
        )
        from repro.consensus.interface import proposal_key

        assert proposal_key(command) is command.cid

    def test_str_mentions_target(self):
        command = ReconfigCommand(
            CommandId(client_id("admin"), 1), Membership.of("n9")
        )
        assert "n9" in str(command)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SimulationError,
            NetworkError,
            ProtocolError,
            AgreementViolation,
            ConfigurationError,
            StateTransferError,
            VerificationError,
            HistoryError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_agreement_violation_is_protocol_error(self):
        assert issubclass(AgreementViolation, ProtocolError)

    def test_history_error_is_verification_error(self):
        assert issubclass(HistoryError, VerificationError)
