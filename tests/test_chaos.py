"""Unit tests for live-runtime fault injection: LinkPolicy, schedules,
the chaos wire protocol, and transport-level enforcement.

Transport tests drive real :class:`TcpTransport` instances over loopback
inside ``asyncio.run`` (same conventions as test_transport_coalesce.py);
nothing here spawns subprocesses — the live end-to-end scenario lives in
test_live_chaos.py.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time

import pytest

from repro.errors import ConfigurationError
from repro.net import codec
from repro.net.admin import (
    ChaosAck,
    ChaosCommand,
    apply_chaos_command,
    chaos_endpoint,
    install_chaos_endpoint,
)
from repro.net.chaos import ChaosController, _link_command
from repro.net.storm import ReconfigStep, StormReport, build_storm_plan
from repro.net.transport import ANY_NODE, LinkPolicy, TcpTransport
from repro.sim.failures import (
    CrashAt,
    DelayLinkAt,
    DropLinkAt,
    FailureInjector,
    FailureSchedule,
    HealAt,
    LoseLinkAt,
    PartitionAt,
    RestartAt,
)
from repro.sim.runner import Simulator
from repro.types import ClientId, CommandId, NodeId
from repro.verify.histories import History
from repro.verify.linearizability import LinearizabilityResult

N1, N2, N3, N4 = NodeId("n1"), NodeId("n2"), NodeId("n3"), NodeId("n4")


def cid(seq: int = 1) -> CommandId:
    return CommandId(ClientId("ctl"), seq)


class TestLinkPolicy:
    def test_default_policy_allows_everything(self):
        policy = LinkPolicy()
        assert not policy.blocks(N1, N2)
        assert not policy.should_drop(N1, N2)
        assert policy.latency(N1, N2) == 0.0
        assert policy.active() == []

    def test_partition_blocks_both_directions(self):
        policy = LinkPolicy()
        policy.partition("cut", [N1], [N2, N3])
        assert policy.blocks(N1, N2)
        assert policy.blocks(N2, N1)
        assert policy.blocks(N3, N1)
        # Within a side, traffic flows.
        assert not policy.blocks(N2, N3)

    def test_drop_is_one_way(self):
        policy = LinkPolicy()
        policy.drop("oneway", N1, N2)
        assert policy.blocks(N1, N2)
        assert not policy.blocks(N2, N1)

    def test_wildcard_matches_any_node(self):
        policy = LinkPolicy()
        policy.drop("mute", N1, ANY_NODE)
        assert policy.blocks(N1, N2)
        assert policy.blocks(N1, N3)
        assert not policy.blocks(N2, N3)

    def test_heal_removes_only_the_named_rule(self):
        policy = LinkPolicy()
        policy.partition("cut", [N1], [N2])
        policy.drop("oneway", N2, N3)
        policy.heal("cut")
        assert not policy.blocks(N1, N2)
        assert policy.blocks(N2, N3)
        assert policy.active() == ["oneway"]
        policy.heal("never-existed")  # unknown names no-op

    def test_heal_all_clears_every_rule_kind(self):
        policy = LinkPolicy()
        policy.partition("a", [N1], [N2])
        policy.drop("b", N1, N2)
        policy.delay("c", N1, N2, 0.5)
        policy.lose("d", N1, N2, 1.0)
        assert policy.active() == ["a", "b", "c", "d"]
        policy.heal_all()
        assert policy.active() == []
        assert not policy.should_drop(N1, N2)
        assert policy.latency(N1, N2) == 0.0

    def test_delay_sums_overlapping_rules(self):
        policy = LinkPolicy()
        policy.delay("base", ANY_NODE, ANY_NODE, 0.1)
        policy.delay("extra", N1, N2, 0.2)
        assert policy.latency(N1, N2) == pytest.approx(0.3)
        assert policy.latency(N2, N1) == pytest.approx(0.1)

    def test_loss_is_seeded_and_reproducible(self):
        draws = []
        for _ in range(2):
            policy = LinkPolicy(seed=9)
            policy.lose("flaky", N1, N2, 0.5)
            draws.append([policy.should_drop(N1, N2) for _ in range(64)])
        assert draws[0] == draws[1]
        # A 0.5 rate over 64 draws drops some and passes some.
        assert any(draws[0]) and not all(draws[0])
        # Other links are untouched by the rule (and burn no RNG draws).
        policy = LinkPolicy(seed=9)
        policy.lose("flaky", N1, N2, 0.5)
        assert not any(policy.should_drop(N2, N1) for _ in range(64))

    def test_loss_rate_edges(self):
        policy = LinkPolicy(seed=1)
        policy.lose("all", N1, N2, 1.0)
        assert all(policy.should_drop(N1, N2) for _ in range(8))
        policy.lose("all", N1, N2, 0.0)
        assert not any(policy.should_drop(N1, N2) for _ in range(8))

    def test_invalid_rules_rejected(self):
        policy = LinkPolicy()
        with pytest.raises(ValueError):
            policy.delay("bad", N1, N2, -0.1)
        with pytest.raises(ValueError):
            policy.lose("bad", N1, N2, 1.5)


class TestSchedule:
    def test_link_builders_append_typed_actions(self):
        schedule = (
            FailureSchedule()
            .drop_link(1.0, "d", "n1", "n2")
            .delay_link(2.0, "lag", "n1", "*", 0.25)
            .lose_link(3.0, "flaky", "*", "n3", 0.1)
        )
        drop, delay, lose = schedule.actions
        assert drop == DropLinkAt(1.0, "d", N1, N2)
        assert delay == DelayLinkAt(2.0, "lag", N1, NodeId("*"), 0.25)
        assert lose == LoseLinkAt(3.0, "flaky", NodeId("*"), N3, 0.1)

    def test_link_builders_validate_eagerly(self):
        with pytest.raises(ConfigurationError):
            FailureSchedule().delay_link(1.0, "bad", "n1", "n2", -1.0)
        with pytest.raises(ConfigurationError):
            FailureSchedule().lose_link(1.0, "bad", "n1", "n2", 2.0)

    def test_sorted_actions_orders_by_time_stably(self):
        schedule = (
            FailureSchedule()
            .heal(2.0, "late")
            .crash(1.0, "n2")
            .partition(1.0, "cut", ["n1"], ["n2"])  # same time as crash
            .restart(0.5, "n3")
        )
        plan = schedule.sorted_actions()
        assert [type(a).__name__ for a in plan] == [
            "RestartAt", "CrashAt", "PartitionAt", "HealAt"
        ]
        # Equal times keep insertion order (sorted() is stable), so every
        # executor injects the same schedule in the same order.
        assert plan == schedule.sorted_actions()

    def test_sim_injector_rejects_link_actions(self):
        sim = Simulator(seed=1)
        schedule = FailureSchedule().drop_link(1.0, "d", "n1", "n2")
        with pytest.raises(ConfigurationError, match="LinkPolicy"):
            FailureInjector(sim, schedule).arm()


class TestChaosProtocol:
    def test_apply_command_each_op(self):
        policy = LinkPolicy(seed=1)
        assert apply_chaos_command(
            policy, ChaosCommand(cid(1), "partition", "cut", (N1,), (N2,))
        )
        assert policy.blocks(N1, N2) and policy.blocks(N2, N1)
        assert apply_chaos_command(
            policy, ChaosCommand(cid(2), "drop", "ow", (N2,), (N3,))
        )
        assert policy.blocks(N2, N3) and not policy.blocks(N3, N2)
        assert apply_chaos_command(
            policy, ChaosCommand(cid(3), "delay", "lag", (N1,), (N3,), 0.2)
        )
        assert policy.latency(N1, N3) == pytest.approx(0.2)
        assert apply_chaos_command(
            policy, ChaosCommand(cid(4), "lose", "flaky", (N3,), (N1,), 1.0)
        )
        assert policy.should_drop(N3, N1)
        assert apply_chaos_command(policy, ChaosCommand(cid(5), "heal", "cut"))
        assert not policy.blocks(N1, N2)
        assert apply_chaos_command(policy, ChaosCommand(cid(6), "heal_all"))
        assert policy.active() == []

    def test_unknown_op_rejected_not_crashed(self):
        assert not apply_chaos_command(
            LinkPolicy(), ChaosCommand(cid(), "chaos-monkey")
        )

    def test_link_command_translates_every_link_action(self):
        pairs = [
            (PartitionAt(1.0, "cut", (N1,), (N2, N3)), "partition"),
            (HealAt(2.0, "cut"), "heal"),
            (DropLinkAt(1.0, "d", N1, N2), "drop"),
            (DelayLinkAt(1.0, "lag", N1, N2, 0.3), "delay"),
            (LoseLinkAt(1.0, "flaky", N1, N2, 0.2), "lose"),
        ]
        for action, op in pairs:
            command = _link_command(action, cid())
            assert command is not None and command.op == op
        # Process-level actions have no wire translation.
        assert _link_command(CrashAt(1.0, N1), cid()) is None

    def test_command_round_trips_and_applies_after_decode(self):
        # The full path a rule travels: encode, decode, apply.
        command = ChaosCommand(cid(), "partition", "cut", (N1,), (N2, N3))
        decoded = codec.decode_payload(codec.encode_payload(command))
        assert decoded == command
        policy = LinkPolicy()
        assert apply_chaos_command(policy, decoded)
        assert policy.blocks(N1, N3)

    def test_chaos_endpoint_name(self):
        assert chaos_endpoint("n1") == NodeId("n1#chaos")


def chaos_schedule(seed: int) -> FailureSchedule:
    """The canonical T10 schedule: the ``chaos`` cell's failure plan."""
    return build_storm_plan("chaos", seed=seed).schedule


def reference_schedule(seed: int) -> list:
    """The canonical schedule as the standalone chaos builder drew it
    before it became the ``chaos`` cell: the victim first, then one
    jitter per action in schedule order."""
    rng = random.Random(seed)
    victim = rng.choice(["n2", "n3"])

    def jitter(offset: float) -> float:
        return round(offset * rng.uniform(0.9, 1.1), 3)

    return (
        FailureSchedule()
        .crash(jitter(1.0), victim)
        .restart(jitter(2.0), victim)
        .partition(jitter(3.4), "cut-leader", ["n1"], ["n2", "n3", "n4"])
        .heal(jitter(5.6), "cut-leader")
        .sorted_actions()
    )


class TestCanonicalSchedule:
    def test_same_seed_same_schedule(self):
        a = chaos_schedule(7)
        b = chaos_schedule(7)
        assert a.sorted_actions() == b.sorted_actions()

    def test_different_seeds_jitter_the_offsets(self):
        a = chaos_schedule(7)
        b = chaos_schedule(8)
        assert [x.time for x in a.sorted_actions()] != [
            x.time for x in b.sorted_actions()
        ]

    def test_scenario_shape(self):
        plan = chaos_schedule(42).sorted_actions()
        assert [type(a).__name__ for a in plan] == [
            "CrashAt", "RestartAt", "PartitionAt", "HealAt"
        ]
        crash, restart, partition, heal = plan
        assert crash.node == restart.node and crash.node != NodeId("n1")
        assert partition.side_a == (NodeId("n1"),)  # the leader is isolated
        assert NodeId("n4") in partition.side_b
        assert heal.name == partition.name

    def test_controller_plan_is_deterministic(self, tmp_path):
        from repro.net.cluster import LocalCluster

        schedule = chaos_schedule(5)
        clusters = [
            LocalCluster(replicas=3, log_dir=tmp_path / str(i)) for i in range(2)
        ]
        # Never started: plan construction must not touch the processes.
        plans = [ChaosController(c, schedule).plan for c in clusters]
        assert plans[0] == plans[1] == schedule.sorted_actions()

    def test_chaos_cell_injects_the_t10_schedule(self):
        # Seed 42 as the standalone builder produced it, pinned literally.
        assert chaos_schedule(42).sorted_actions() == [
            CrashAt(0.905, N2),
            RestartAt(1.91, N2),
            PartitionAt(3.212, "cut-leader", (N1,), (N2, N3, N4)),
            HealAt(5.865, "cut-leader"),
        ]
        for seed in range(1, 21):
            assert chaos_schedule(seed).sorted_actions() == (
                reference_schedule(seed)
            ), seed
            plan = build_storm_plan("chaos", seed=seed)
            _, _, partition, heal = plan.schedule.sorted_actions()
            # One RECONFIGURE, midway through the partition, voting the
            # isolated leader out for the joiner.
            assert plan.steps == (
                ReconfigStep((partition.time + heal.time) / 2, ("n2", "n3", "n4")),
            )
            assert plan.duration == pytest.approx(heal.time + 1.0)


# ---------------------------------------------------------------------------
# Transport enforcement (loopback asyncio, no subprocesses)
# ---------------------------------------------------------------------------


async def _start_receiver(name, collect, **kwargs):
    transport = TcpTransport({}, **kwargs)
    transport.register(NodeId(name), lambda msg: collect.append(msg.payload))
    await transport.start("127.0.0.1", 0)
    address = transport._server.sockets[0].getsockname()[:2]
    return transport, address


async def _wait_for(predicate, timeout: float = 5.0):
    give_up_at = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > give_up_at:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestTransportEnforcement:
    def test_sender_side_partition_drops_then_heals(self):
        asyncio.run(self._sender_side())

    async def _sender_side(self):
        received: list = []
        receiver, address = await _start_receiver("n2", received)
        policy = LinkPolicy()
        sender = TcpTransport({N2: address}, link_policy=policy)
        try:
            policy.partition("cut", [N1], [N2])
            before = sender.stats.messages_dropped
            sender.send(N1, N2, "blocked")
            assert sender.stats.messages_dropped == before + 1
            policy.heal("cut")
            sender.send(N1, N2, "after-heal")
            await _wait_for(lambda: received == ["after-heal"])
        finally:
            await sender.close()
            await receiver.close()

    def test_inbound_partition_enforced_by_receiver(self):
        asyncio.run(self._inbound())

    async def _inbound(self):
        # The sending side has no rules — the receiver's own policy must
        # hold the line (this is what keeps a partition real while the far
        # side is mid-crash and cannot apply it).
        received: list = []
        policy = LinkPolicy()
        receiver, address = await _start_receiver(
            "n2", received, link_policy=policy
        )
        policy.partition("cut", [N1], [N2])
        sender = TcpTransport({N2: address})
        try:
            dropped_before = receiver.stats.messages_dropped
            sender.send(N1, N2, "blocked")
            await _wait_for(
                lambda: receiver.stats.messages_dropped == dropped_before + 1
            )
            assert received == []
            policy.heal("cut")
            sender.send(N1, N2, "after-heal")
            await _wait_for(lambda: received == ["after-heal"])
        finally:
            await sender.close()
            await receiver.close()

    def test_one_way_drop_leaves_reverse_path_alive(self):
        asyncio.run(self._one_way())

    async def _one_way(self):
        received_a: list = []
        received_b: list = []
        policy = LinkPolicy()
        a, addr_a = await _start_receiver("n1", received_a, link_policy=policy)
        b, addr_b = await _start_receiver("n2", received_b)
        a.addresses[N2] = addr_b
        b.addresses[N1] = addr_a
        policy.drop("mute", N1, N2)
        try:
            a.send(N1, N2, "silenced")
            b.send(N2, N1, "still-heard")
            await _wait_for(lambda: received_a == ["still-heard"])
            assert received_b == []
        finally:
            await a.close()
            await b.close()

    def test_injected_delay_defers_delivery(self):
        asyncio.run(self._delay())

    async def _delay(self):
        received: list = []
        receiver, address = await _start_receiver("n2", received)
        policy = LinkPolicy()
        policy.delay("lag", N1, N2, 0.15)
        sender = TcpTransport({N2: address}, link_policy=policy)
        try:
            start = time.monotonic()
            sender.send(N1, N2, "slow")
            await _wait_for(lambda: received == ["slow"])
            assert time.monotonic() - start >= 0.15
        finally:
            await sender.close()
            await receiver.close()

    def test_chaos_endpoint_applies_rule_and_acks(self):
        asyncio.run(self._endpoint())

    async def _endpoint(self):
        # Exactly what ChaosController._push does: a raw client connection
        # delivers a ChaosCommand to the replica's #chaos endpoint and
        # reads the ChaosAck back over the reply route.
        received: list = []
        replica, (host, port) = await _start_receiver("n1", received)
        install_chaos_endpoint(replica, "n1")
        command = ChaosCommand(cid(), "partition", "cut", (N1,), (N2,))
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                codec.encode_frame(NodeId("ctl"), chaos_endpoint("n1"), command)
            )
            await writer.drain()
            header = await asyncio.wait_for(reader.readexactly(4), timeout=5.0)
            body = await asyncio.wait_for(
                reader.readexactly(codec.frame_length(header)), timeout=5.0
            )
            _, _, ack = codec.decode_frame_body(body)
            assert ack == ChaosAck(command.cid, N1, "partition", True)
            assert replica.policy.blocks(N1, N2)
            writer.close()
        finally:
            await replica.close()


class TestTransportRng:
    def test_seeded_transports_reproduce_reconnect_jitter(self, monkeypatch):
        asyncio.run(self._jitter(monkeypatch))

    async def _jitter(self, monkeypatch):
        # Two transports with equal seeds must draw identical backoff
        # jitter while failing to reach a dead peer (satellite: reconnect
        # timing is part of a seeded chaos run's reproducibility).
        real_sleep = asyncio.sleep
        sleeps: dict[int, list[float]] = {}

        async def run_one(key: int, seed: int) -> None:
            recorded = sleeps.setdefault(key, [])

            async def spy_sleep(delay, *args, **kwargs):
                if delay > 0:
                    recorded.append(round(delay, 9))
                await real_sleep(0)

            transport = TcpTransport(
                {N2: ("127.0.0.1", 1)},  # port 1: nothing listens there
                reconnect_min=0.05,
                rng=random.Random(seed),
            )
            monkeypatch.setattr(asyncio, "sleep", spy_sleep)
            try:
                transport.send(N1, N2, "never-arrives")
                give_up_at = time.monotonic() + 5.0
                while len(recorded) < 4 and time.monotonic() < give_up_at:
                    await real_sleep(0.005)
            finally:
                monkeypatch.setattr(asyncio, "sleep", real_sleep)
                await transport.close()

        await run_one(0, seed=13)
        await run_one(1, seed=13)
        await run_one(2, seed=14)
        assert len(sleeps[0]) >= 4 and len(sleeps[1]) >= 4
        assert sleeps[0][:4] == sleeps[1][:4]
        assert sleeps[2][:4] != sleeps[0][:4]

    def test_bind_rng_adopts_ambient_only_when_unseeded(self):
        explicit = random.Random(1)
        transport = TcpTransport({}, rng=explicit)
        transport.bind_rng(random.Random(2))
        assert transport.rng is explicit  # constructor injection wins
        ambient = random.Random(3)
        unseeded = TcpTransport({})
        assert unseeded.rng is random  # module-level fallback
        unseeded.bind_rng(ambient)
        assert unseeded.rng is ambient


class TestControllerFailureLogging:
    """Regression: an action that blows up mid-apply must still land in
    the injection log before the exception propagates — otherwise the
    report shows fewer injections than the schedule and the run looks
    healthier than it was."""

    class _ExplodingCluster:
        """Duck-typed LocalCluster whose respawn wedges hard enough to
        raise something outside _apply's (RuntimeError, TimeoutError)
        net — exactly what subprocess.Popen.wait does on a stuck child."""

        initial = ["n1"]
        addresses = {"n1": ("127.0.0.1", 1)}
        procs: dict = {}

        def kill(self, name):
            pass

        def restart(self, name, wait=True, timeout=15.0, amnesia=None):
            import subprocess

            raise subprocess.TimeoutExpired(cmd=["serve", name], timeout=timeout)

    def test_failed_action_is_logged_then_raised(self):
        import subprocess

        schedule = FailureSchedule().crash(0.0, "n1").restart(0.0, "n1")
        controller = ChaosController(self._ExplodingCluster(), schedule)
        with pytest.raises(subprocess.TimeoutExpired):
            controller.run()
        # Both actions are in the log: the crash that worked and the
        # restart that exploded (with no acks).
        assert [type(i.action).__name__ for i in controller.log] == [
            "CrashAt",
            "RestartAt",
        ]
        assert controller.log[-1].acks == ()
        assert controller.log[-1].error is not None
        assert any("RestartAt" in err for err in controller.errors)

    class _Cluster:
        """Duck-typed LocalCluster with no processes; ``restart`` raises
        ``failure`` when one is set."""

        initial = ["n1", "n2", "n3"]
        addresses: dict = {}
        procs: dict = {}

        def __init__(self, failure=None):
            self.failure = failure

        def kill(self, name):
            pass

        def restart(self, name, wait=True, timeout=15.0, amnesia=None):
            if self.failure is not None:
                raise self.failure

    def _report(self, cluster) -> StormReport:
        """The chaos cell's plan at zero offsets, run by a controller
        against ``cluster``, with a clean history and an acked step."""
        plan = build_storm_plan("chaos", seed=42)
        schedule = FailureSchedule([
            dataclasses.replace(action, time=0.0)
            for action in plan.schedule.sorted_actions()
        ])
        plan = dataclasses.replace(plan, schedule=schedule)
        controller = ChaosController(cluster, schedule)
        try:
            controller.run()
        except Exception:  # noqa: BLE001 - the log is what is judged
            pass
        return StormReport(
            plan=plan,
            read_mode=None,
            linearizable=LinearizabilityResult(True, None, 0, 0),
            history=History([]),
            injections=controller.log,
            reconfigs=[{"offset": 0.0, "members": ["n2", "n3", "n4"],
                        "applied_at": 0.1, "ok": True}],
            elapsed=0.1,
            log_dir="logs",
        )

    def test_a_fault_that_was_not_injected_fails_the_run(self):
        assert self._report(self._Cluster()).ok
        # A respawn that never came up: the schedule runs on, the failure
        # is on the log, and the run does not pass.
        report = self._report(self._Cluster(RuntimeError("port never bound")))
        assert len(report.injections) == 4
        assert "port never bound" in report.injections[1].error
        assert not report.faults_applied and not report.ok
        # An action that stops the controller: the later ones never ran.
        import subprocess

        report = self._report(
            self._Cluster(subprocess.TimeoutExpired(["serve"], 15.0))
        )
        assert len(report.injections) == 2
        assert not report.ok
