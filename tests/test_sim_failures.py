"""Tests for declarative failure injection."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FailureSchedule
from repro.sim.failures import FailureInjector
from repro.sim.node import Process
from repro.sim.runner import Simulator
from repro.types import node_id


class Box(Process):
    def __init__(self, sim, node):
        super().__init__(sim, node)
        self.received = []

    def on_message(self, payload, sender):
        self.received.append(payload)


def setup():
    sim = Simulator(seed=3)
    nodes = {name: Box(sim, node_id(name)) for name in ("a", "b")}
    return sim, nodes


class TestFailureSchedule:
    def test_crash_at_time(self):
        sim, nodes = setup()
        schedule = FailureSchedule().crash(1.0, "a")
        FailureInjector(sim, schedule).arm()
        sim.run(until=2.0)
        assert nodes["a"].crashed

    def test_crash_then_restart(self):
        sim, nodes = setup()
        schedule = FailureSchedule().crash(1.0, "a").restart(2.0, "a")
        FailureInjector(sim, schedule).arm()
        sim.run(until=1.5)
        assert nodes["a"].crashed
        sim.run(until=3.0)
        assert not nodes["a"].crashed

    def test_partition_and_heal(self):
        sim, nodes = setup()
        schedule = (
            FailureSchedule()
            .partition(1.0, "split", ["a"], ["b"])
            .heal(2.0, "split")
        )
        FailureInjector(sim, schedule).arm()
        sim.at(1.5, lambda: nodes["a"].send(node_id("b"), "blocked"))
        sim.at(2.5, lambda: nodes["a"].send(node_id("b"), "through"))
        sim.run(until=3.0)
        assert nodes["b"].received == ["through"]

    def test_unknown_node_crash_raises_at_fire_time(self):
        sim, _ = setup()
        schedule = FailureSchedule().crash(1.0, "ghost")
        FailureInjector(sim, schedule).arm()
        with pytest.raises(ConfigurationError):
            sim.run(until=2.0)

    def test_fluent_builder_returns_self(self):
        schedule = FailureSchedule()
        assert schedule.crash(1.0, "a") is schedule
        assert schedule.restart(2.0, "a") is schedule
        assert schedule.heal(3.0, "x") is schedule
        assert len(schedule.actions) == 3

    def test_trace_records_partitions(self):
        sim, _ = setup()
        schedule = FailureSchedule().partition(1.0, "p", ["a"], ["b"]).heal(1.5, "p")
        FailureInjector(sim, schedule).arm()
        sim.run(until=2.0)
        assert sim.trace.count("partition") == 1
        assert sim.trace.count("heal") == 1
