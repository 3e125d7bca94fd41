"""Tests for the client library: retries, redirects, history recording."""

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.core.client import Client, ClientCore, ClientParams, ClientReply, Redirect
from repro.core.service import ReplicatedService
from repro.faults import FailureSchedule
from repro.sim.failures import FailureInjector
from repro.sim.node import Process
from repro.sim.runner import Simulator
from repro.types import ClientId, Command, CommandId, Membership, client_id, node_id


def one_shot_ops(n):
    budget = [n]

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        return ("set", (f"k{budget[0]}", budget[0]), 64)

    return ops


class Looper(Process):
    """A retired node: redirects every request to ``redirect_to``."""

    def __init__(self, sim, node, redirect_to):
        super().__init__(sim, node)
        self.redirect_to = redirect_to

    def on_message(self, payload, sender):
        if hasattr(payload, "command"):
            self.send(
                payload.reply_to,
                Redirect(payload.command.cid, self.redirect_to, 0),
            )


class Silent(Process):
    """A member that never answers; counts the requests it gets."""

    requests = 0

    def on_message(self, payload, sender):
        if hasattr(payload, "command"):
            self.requests += 1


class TestBasics:
    def test_client_completes_budget(self):
        sim = Simulator(seed=1)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = service.make_client("c1", one_shot_ops(10), ClientParams(start_delay=0.2))
        sim.run_until(lambda: client.finished, timeout=10.0)
        assert len(client.records) == 10
        assert [r.cid.seq for r in client.records] == list(range(1, 11))

    def test_on_complete_hook_fires(self):
        sim = Simulator(seed=1)
        service = ReplicatedService(sim, ["n1", "n2"], KvStateMachine)
        seen = []
        client = service.make_client(
            "c1", one_shot_ops(5), ClientParams(start_delay=0.2),
            on_complete=seen.append,
        )
        sim.run_until(lambda: client.finished, timeout=10.0)
        assert len(seen) == 5

    def test_latency_recorded(self):
        sim = Simulator(seed=1)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = service.make_client("c1", one_shot_ops(5), ClientParams(start_delay=0.2))
        sim.run_until(lambda: client.finished, timeout=10.0)
        for record in client.records:
            assert record.returned_at > record.invoked_at


class TestRetries:
    def test_retry_rotates_to_live_replica(self):
        sim = Simulator(seed=2)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = service.make_client(
            "c1", one_shot_ops(20), ClientParams(start_delay=0.2, request_timeout=0.15)
        )
        FailureInjector(sim, FailureSchedule().crash(0.1, "n1")).arm()
        done = sim.run_until(lambda: client.finished, timeout=20.0)
        assert done
        assert len(client.records) == 20

    def test_retries_preserve_command_identity(self):
        sim = Simulator(seed=3)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = service.make_client(
            "c1", one_shot_ops(30), ClientParams(start_delay=0.2, request_timeout=0.1)
        )
        FailureInjector(sim, FailureSchedule().crash(0.35, "n1")).arm()
        sim.run_until(lambda: client.finished, timeout=20.0)
        # Exactly-once: each op acknowledged once, in client order.
        assert [r.cid.seq for r in client.records] == list(range(1, 31))
        # Every command executed at most once cluster-wide.
        survivor = service.replicas[node_id("n2")]
        cids = [
            p.cid for p, _, _ in survivor.committed if hasattr(p, "cid")
        ]
        assert len(cids) == len(set(cids))


class TestRedirects:
    def test_stale_reply_ignored(self):
        sim = Simulator(seed=4)
        client = Client(
            sim, ClientId("c"), Membership.of("n1"), one_shot_ops(1),
        )
        stale = ClientReply(CommandId(client_id("c"), 99), "x", 0, 0)
        client.on_message(stale, node_id("n1"))
        assert client.records == []

    def test_redirect_updates_view(self):
        sim = Simulator(seed=4)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = service.make_client(
            "c1", one_shot_ops(40), ClientParams(start_delay=0.2)
        )
        service.reconfigure_at(0.3, ["n4", "n5", "n6"])
        done = sim.run_until(lambda: client.finished, timeout=20.0)
        assert done
        assert set(client.view.nodes) & {node_id("n4"), node_id("n5"), node_id("n6")}

    def test_redirect_loop_falls_back_to_known_nodes(self):
        sim = Simulator(seed=5)
        # A lone fake node that always redirects to itself.
        Looper(sim, node_id("loop"), Membership.of("loop"))
        client = Client(
            sim,
            ClientId("c"),
            Membership.of("loop"),
            one_shot_ops(1),
            ClientParams(start_delay=0.0, request_timeout=0.5),
        )
        sim.run(until=2.0)
        # The client survives the loop (does not crash or flood); its
        # fallback view contains every node it has heard of.
        assert client.core.redirect_streak > 8
        assert node_id("loop") in client.core.known_nodes

    @pytest.mark.parametrize(
        "params",
        [ClientParams(request_timeout=0.5),
         ClientParams(request_timeout=0.5, rate=10.0, lanes=4)],
        ids=["closed-loop", "open-loop"],
    )
    def test_one_retry_chain_per_command_after_a_redirect(self, params):
        # The redirect's resend re-arms the command's one timeout; it does
        # not start a second chain beside it (the open-loop client did,
        # and sent 19 requests here).
        sim = Simulator(seed=1)
        Looper(sim, node_id("loop"), Membership.of("silent"))
        silent = Silent(sim, node_id("silent"))
        Client(sim, ClientId("c"), Membership.of("loop"), one_shot_ops(1), params)
        sim.run(until=5.0)
        assert silent.requests == 10  # one every request_timeout


class TestCore:
    def test_a_dead_target_costs_one_move_however_many_lanes_wait(self):
        core = ClientCore([node_id("n1"), node_id("n2"), node_id("n3")], rng=None)
        core.use_lanes([ClientId("c/0"), ClientId("c/1"), ClientId("c/2")])
        entries = [core.issue(lambda cid: Command(cid, "get", ("k",)), 0.0)
                   for _ in range(3)]
        assert [core.send_to(e) for e in entries] == [node_id("n1")] * 3
        for entry in entries:
            core.timed_out(entry.command.cid)
        assert core.target == node_id("n2")
        assert [core.send_to(e) for e in entries] == [node_id("n2")] * 3
        core.timed_out(entries[0].command.cid)
        assert core.target == node_id("n3")
