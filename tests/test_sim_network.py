"""Tests for the simulated network: delays, loss, partitions, accounting."""

import pytest

from repro.errors import NetworkError
from repro.sim.network import LatencyModel, Network
from repro.sim.runner import Simulator
from repro.types import node_id


def make_net(latency=None, seed=1):
    sim = Simulator(seed=seed, latency=latency)
    inboxes = {}
    for name in ("a", "b", "c"):
        inboxes[name] = []
        sim.network.register(
            node_id(name), lambda m, box=inboxes[name]: box.append(m)
        )
    return sim, inboxes


class TestDelivery:
    def test_message_arrives_within_latency_bounds(self):
        model = LatencyModel(min_delay=0.001, max_delay=0.002)
        sim, inboxes = make_net(model)
        sim.network.send(node_id("a"), node_id("b"), "hello", size=0)
        sim.run()
        assert [m.payload for m in inboxes["b"]] == ["hello"]
        assert 0.001 <= sim.now <= 0.002

    def test_size_adds_bandwidth_delay(self):
        model = LatencyModel(min_delay=0.0, max_delay=0.0, bandwidth=1000.0)
        sim, inboxes = make_net(model)
        sim.network.send(node_id("a"), node_id("b"), "big", size=500)
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_unknown_destination_is_dropped(self):
        sim, _ = make_net()
        sim.network.send(node_id("a"), node_id("zz"), "x")
        sim.run()
        assert sim.network.stats.messages_dropped == 1

    def test_sender_metadata(self):
        sim, inboxes = make_net()
        sim.network.send(node_id("a"), node_id("b"), "x", size=10)
        sim.run()
        message = inboxes["b"][0]
        assert message.sender == "a"
        assert message.size == 10
        assert message.sent_at == 0.0


class TestLossAndDuplication:
    def test_full_drop_probability(self):
        model = LatencyModel(drop_probability=1.0)
        sim, inboxes = make_net(model)
        for _ in range(10):
            sim.network.send(node_id("a"), node_id("b"), "x")
        sim.run()
        assert inboxes["b"] == []
        assert sim.network.stats.messages_dropped == 10

    def test_partial_drop_probability(self):
        model = LatencyModel(drop_probability=0.5)
        sim, inboxes = make_net(model)
        for _ in range(300):
            sim.network.send(node_id("a"), node_id("b"), "x")
        sim.run()
        assert 50 < len(inboxes["b"]) < 250

    def test_duplication(self):
        model = LatencyModel(duplicate_probability=1.0)
        sim, inboxes = make_net(model)
        sim.network.send(node_id("a"), node_id("b"), "x")
        sim.run()
        assert len(inboxes["b"]) == 2


class TestPartitions:
    def test_partition_blocks_both_directions(self):
        sim, inboxes = make_net()
        sim.network.policy.partition("p", ["a"], ["b"])
        sim.network.send(node_id("a"), node_id("b"), "x")
        sim.network.send(node_id("b"), node_id("a"), "y")
        sim.run()
        assert inboxes["a"] == [] and inboxes["b"] == []

    def test_partition_does_not_affect_third_party(self):
        sim, inboxes = make_net()
        sim.network.policy.partition("p", ["a"], ["b"])
        sim.network.send(node_id("a"), node_id("c"), "x")
        sim.run()
        assert len(inboxes["c"]) == 1

    def test_heal_restores_delivery(self):
        sim, inboxes = make_net()
        sim.network.policy.partition("p", ["a"], ["b"])
        sim.network.policy.heal("p")
        sim.network.send(node_id("a"), node_id("b"), "x")
        sim.run()
        assert len(inboxes["b"]) == 1

    def test_partition_cuts_in_flight_messages(self):
        sim, inboxes = make_net()
        sim.network.send(node_id("a"), node_id("b"), "x")
        # Partition lands before delivery (delivery has nonzero latency).
        sim.network.policy.partition("p", ["a"], ["b"])
        sim.run()
        assert inboxes["b"] == []

    def test_heal_all(self):
        sim, inboxes = make_net()
        sim.network.policy.partition("p1", ["a"], ["b"])
        sim.network.policy.partition("p2", ["a"], ["c"])
        sim.network.policy.heal_all()
        sim.network.send(node_id("a"), node_id("b"), "x")
        sim.network.send(node_id("a"), node_id("c"), "y")
        sim.run()
        assert len(inboxes["b"]) == 1 and len(inboxes["c"]) == 1

    def test_heal_unknown_partition_is_noop(self):
        sim, _ = make_net()
        sim.network.policy.heal("never-existed")


class TestStats:
    def test_counts_by_payload_type(self):
        sim, _ = make_net()
        sim.network.send(node_id("a"), node_id("b"), "text", size=10)
        sim.network.send(node_id("a"), node_id("b"), 42, size=20)
        sim.network.send(node_id("a"), node_id("b"), "more", size=30)
        sim.run()
        stats = sim.network.stats
        assert stats.messages_sent == 3
        assert stats.bytes_sent == 60
        assert stats.by_type["str"] == 2
        assert stats.by_type["int"] == 1
        assert stats.bytes_by_type["str"] == 40

    def test_double_register_rejected(self):
        sim, _ = make_net()
        with pytest.raises(NetworkError):
            sim.network.register(node_id("a"), lambda m: None)

    def test_unregister_then_send_drops(self):
        sim, inboxes = make_net()
        sim.network.unregister(node_id("b"))
        sim.network.send(node_id("a"), node_id("b"), "x")
        sim.run()
        assert inboxes["b"] == []


class TestEstimatedSizes:
    """Sends without an explicit size use the shared codec estimator."""

    def test_protocol_payload_gets_wire_size(self):
        from repro.net.codec import wire_size
        from repro.types import ClientId, Command, CommandId

        command = Command(CommandId(ClientId("c"), 1), "set", ("k", 1), 64)
        sim, _ = make_net()
        sim.network.send(node_id("a"), node_id("b"), command)
        assert sim.network.stats.bytes_sent == wire_size(command)

    def test_unencodable_payload_falls_back_to_default(self):
        from repro.net.codec import DEFAULT_ESTIMATE

        class Opaque:
            pass

        sim, _ = make_net()
        sim.network.send(node_id("a"), node_id("b"), Opaque())
        assert sim.network.stats.bytes_sent == DEFAULT_ESTIMATE

    def test_explicit_size_still_wins(self):
        sim, _ = make_net()
        sim.network.send(node_id("a"), node_id("b"), "payload", size=7777)
        assert sim.network.stats.bytes_sent == 7777
