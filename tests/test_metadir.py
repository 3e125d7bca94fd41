"""MetaDirStateMachine unit tests: the director as a state machine.

The replicated control plane only works if the director's state
transitions are deterministic, serialized, and idempotent — a successor
replaying a dead leader's steps must land on the same state the leader
would have produced. These tests pin that contract at the state-machine
level, with no processes and no network:

* intents serialize and capture a plan that stays valid until archived;
* completion swaps the map exactly once (the double-install guard);
* the version chain stays linear and gapless through every transition;
* snapshots round-trip the whole director state;
* the admin handle serves one call at a time on its client, so threads
  may share it.

What a driver spends on a clean move runs in the simulator
(``tests/test_director_sim.py``).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.client import ClientReply
from repro.net.client import LiveClientError
from repro.shard.metadir import (
    DONE_LIMIT,
    MetaDirStateMachine,
    ReplicatedShardDirector,
    intent_client,
)
from repro.shard.shardmap import (
    HASH_SPACE,
    GroupInfo,
    ShardError,
    ShardMap,
)
from repro.types import Command, CommandId, client_id


def make_map(*names, serving=None, version=1):
    infos = tuple(
        GroupInfo(name, ("n1", "n2"), {"n1": ("127.0.0.1", 9101)})
        for name in names
    )
    return ShardMap.initial(infos, serving=serving, version=version)


def command(op, args, seq):
    return Command(CommandId(client_id("admin"), seq), op, args, 64)


def machine_with_map(*names, serving=None):
    machine = MetaDirStateMachine()
    machine._dir_init(make_map(*names, serving=serving))
    return machine


class TestIntentIdentity:
    def test_intent_client_is_a_stable_wire_contract(self):
        # The dedup identity every driver derives; changing the format
        # breaks resume-after-crash against old data-group dedup tables.
        assert intent_client(7, "r") == "metadir-i7-r"
        assert intent_client(7, "i") == "metadir-i7-i"
        assert intent_client(1, "r") != intent_client(2, "r")


class TestApplyDispatch:
    def test_apply_routes_dir_ops(self):
        machine = MetaDirStateMachine()
        result = machine.apply(command("dir_map", (), 1))
        assert result is None  # no map installed yet

    def test_unknown_operation_raises(self):
        machine = MetaDirStateMachine()
        with pytest.raises(ShardError, match="unknown metadir"):
            machine.apply(command("set", ("k", 1), 1))
        with pytest.raises(ShardError):
            # dir_-prefixed but with no handler must not fall through.
            machine.apply(command("dir_nonsense", (), 2))


class TestMapLifecycle:
    def test_init_is_idempotent_first_wins(self):
        machine = MetaDirStateMachine()
        first = machine._dir_init(make_map("g1", "g2"))
        assert first == {"ok": True, "version": 1, "already": False}
        again = machine._dir_init(make_map("g1", "g2", "g3", version=9))
        assert again["already"] is True
        assert machine.shard_map.version == 1
        assert len(machine.chain) == 1  # no second chain entry

    def test_publish_bumps_version_and_chains(self):
        machine = machine_with_map("g1", "g2")
        grown = GroupInfo(
            "g1", ("n1", "n2", "n4"), {"n1": ("127.0.0.1", 9101)}
        )
        result = machine._dir_publish(grown)
        assert result == {"ok": True, "version": 2}
        assert machine.shard_map.group_info("g1").members == ("n1", "n2", "n4")
        assert machine.chain[-1]["kind"] == "publish"
        assert machine.chain[-1]["version"] == 2

    def test_publish_without_map_refused(self):
        machine = MetaDirStateMachine()
        info = GroupInfo("g1", ("n1",), {})
        assert machine._dir_publish(info)["ok"] is False


class TestBeginPlans:
    def test_move_plan_resolves_source_and_stamps_version(self):
        machine = machine_with_map("g1", "g2")
        lo = machine.shard_map.ranges_of("g1")[0].lo
        hi = lo + 8
        result = machine._dir_begin(
            "move", {"lo": lo, "hi": hi, "target": "g2"}
        )
        assert result["ok"] is True
        intent = result["intent"]
        assert intent["source"] == "g1" and intent["target"] == "g2"
        assert intent["planned_version"] == machine.shard_map.version + 1
        assert intent["status"] == "pending" and intent["steps"] == []

    def test_intents_serialize(self):
        machine = machine_with_map("g1", "g2")
        lo = machine.shard_map.ranges_of("g1")[0].lo
        first = machine._dir_begin(
            "move", {"lo": lo, "hi": lo + 8, "target": "g2"}
        )
        second = machine._dir_begin(
            "move", {"lo": lo, "hi": lo + 4, "target": "g2"}
        )
        assert second["ok"] is False
        assert second["active"]["id"] == first["intent"]["id"]

    def test_split_picks_least_loaded_spare(self):
        # g3 is a spare (owns nothing): the default split target.
        machine = machine_with_map("g1", "g2", "g3", serving=("g1", "g2"))
        result = machine._dir_begin("split", {"group": "g1"})
        assert result["ok"] is True
        intent = result["intent"]
        widest = machine.shard_map.widest_range_of("g1")
        assert intent["target"] == "g3"
        assert intent["lo"] == widest.midpoint and intent["hi"] == widest.hi

    def test_merge_folds_into_left_neighbour(self):
        machine = machine_with_map("g1", "g2")
        second = machine.shard_map.assignments[1]
        left = machine.shard_map.assignments[0]
        result = machine._dir_begin("merge", {"at": second.range.lo})
        assert result["ok"] is True
        assert result["intent"]["target"] == left.group
        assert result["intent"]["lo"] == second.range.lo

    def test_refusals_leave_no_intent(self):
        machine = machine_with_map("g1", "g2")
        noop = machine._dir_begin(
            "move",
            {"lo": 0, "hi": 8,
             "target": machine.shard_map.group_for_point(0)},
        )
        assert noop["ok"] is False
        assert machine.active_intent is None
        bad_kind = machine._dir_begin("shuffle", {})
        assert bad_kind["ok"] is False
        no_map = MetaDirStateMachine()._dir_begin(
            "move", {"lo": 0, "hi": 8, "target": "g1"}
        )
        assert no_map["ok"] is False


class TestIntentProtocol:
    def begin_move(self, machine):
        lo = machine.shard_map.ranges_of("g1")[0].lo
        return machine._dir_begin(
            "move", {"lo": lo, "hi": lo + 8, "target": "g2"}
        )["intent"]

    def test_claim_and_step_record_progress(self):
        machine = machine_with_map("g1", "g2")
        intent = self.begin_move(machine)
        machine._dir_claim(intent["id"], "n2")
        machine._dir_step(intent["id"], "retired")
        machine._dir_step(intent["id"], "retired")  # replay: no duplicate
        assert machine.active_intent["claimed_by"] == "n2"
        assert machine.active_intent["steps"] == ["retired"]

    def test_complete_swaps_map_once(self):
        machine = machine_with_map("g1", "g2")
        intent = self.begin_move(machine)
        version_before = machine.shard_map.version
        done = machine._dir_complete(intent["id"])
        assert done["status"] == "done"
        assert machine.shard_map.version == version_before + 1
        moved_owner = machine.shard_map.group_for_point(intent["lo"])
        assert moved_owner == "g2"
        # The double-install guard: a racing driver completing again
        # gets the archived record back and the map does not move twice.
        again = machine._dir_complete(intent["id"])
        assert again["status"] == "done"
        assert machine.shard_map.version == version_before + 1

    def test_abort_archives_and_frees_the_slot(self):
        machine = machine_with_map("g1", "g2")
        intent = self.begin_move(machine)
        aborted = machine._dir_abort(intent["id"], "retire failed")
        assert aborted["status"] == "aborted"
        assert aborted["detail"] == "retire failed"
        assert machine.active_intent is None
        assert machine.shard_map.version == 1  # no swap
        # The slot is free again: a fresh begin succeeds.
        assert self.begin_move(machine)["id"] == intent["id"] + 1

    def test_poisoned_plan_aborts_instead_of_wedging(self):
        machine = machine_with_map("g1", "g2")
        intent = self.begin_move(machine)
        # Simulate a poisoned log slot: the map lost the target group
        # underneath the intent (cannot happen while intents serialize,
        # but a bug must degrade to an abort, never a wedged director).
        machine.shard_map = make_map("g1", version=5)
        done = machine._dir_complete(intent["id"])
        assert done["status"] == "aborted"
        assert machine.active_intent is None

    def test_status_finds_active_archived_and_unknown(self):
        machine = machine_with_map("g1", "g2")
        intent = self.begin_move(machine)
        assert machine._dir_status(intent["id"])["status"] == "pending"
        machine._dir_complete(intent["id"])
        assert machine._dir_status(intent["id"])["status"] == "done"
        assert machine._dir_status(999)["status"] == "unknown"

    def test_done_archive_is_bounded(self):
        machine = machine_with_map("g1", "g2")
        for i in range(DONE_LIMIT + 5):
            target = "g2" if i % 2 == 0 else "g1"
            lo = machine.shard_map.ranges_of(
                "g1" if target == "g2" else "g2"
            )[0].lo
            begun = machine._dir_begin(
                "move", {"lo": lo, "hi": lo + 8, "target": target}
            )
            assert begun["ok"] is True, begun
            machine._dir_complete(begun["intent"]["id"])
        assert len(machine.done) == DONE_LIMIT
        assert machine.done[-1]["id"] == DONE_LIMIT + 5

class TestChainLinearity:
    def test_every_transition_appends_exactly_one_version(self):
        machine = machine_with_map("g1", "g2", "g3", serving=("g1", "g2"))
        begun = machine._dir_begin("split", {"group": "g1"})
        machine._dir_complete(begun["intent"]["id"])
        machine._dir_publish(
            GroupInfo("g2", ("n1", "n2", "n9"), {"n1": ("127.0.0.1", 9101)})
        )
        versions = [entry["version"] for entry in machine.chain]
        assert versions == list(range(1, len(versions) + 1))
        assert versions[-1] == machine.shard_map.version


class TestSnapshotRoundTrip:
    def test_full_state_survives_snapshot_restore(self):
        machine = machine_with_map("g1", "g2")
        lo = machine.shard_map.ranges_of("g1")[0].lo
        first = machine._dir_begin(
            "move", {"lo": lo, "hi": lo + 8, "target": "g2"}
        )["intent"]
        machine._dir_complete(first["id"])
        second = machine._dir_begin(
            "move", {"lo": lo, "hi": lo + 4, "target": "g1"}
        )["intent"]
        machine._dir_step(second["id"], "retired")

        restored = MetaDirStateMachine()
        restored.restore(machine.snapshot())
        assert restored.shard_map.version == machine.shard_map.version
        assert restored.active_intent == machine.active_intent
        assert restored.chain == machine.chain
        assert restored.done == machine.done
        assert restored.next_intent_id == machine.next_intent_id

        # The restore is a deep copy: the successor completing must not
        # mutate the snapshot the donor still holds.
        restored._dir_complete(second["id"])
        assert machine.active_intent is not None
        assert restored.active_intent is None
        assert restored.snapshot_bytes() > 0

    def test_same_commands_two_machines_same_state(self):
        # Determinism: the property replication actually relies on.
        ops = [
            ("dir_init", (make_map("g1", "g2"),)),
            ("dir_begin", ("move", {"lo": 0, "hi": 8, "target": "g2"})),
            ("dir_claim", (1, "n1")),
            ("dir_step", (1, "retired")),
            ("dir_complete", (1,)),
            ("dir_publish", (
                GroupInfo("g1", ("n1", "n2", "n7"),
                          {"n1": ("127.0.0.1", 9101)}),
            )),
        ]
        a, b = MetaDirStateMachine(), MetaDirStateMachine()
        for machine in (a, b):
            for seq, (op, args) in enumerate(ops, start=1):
                machine.apply(command(op, args, seq))
        assert a.snapshot() == b.snapshot()


class OverlapRecorder:
    """Stands in for the handle's client and records whether a call ever
    entered while another was still inside (a LiveClient's lanes and
    socket are not safe for that)."""

    def __init__(self):
        self.inside = 0
        self.overlapped = False
        self.calls = 0
        self.done_after = None  # status polls before the intent archives

    def submit(self, op, args=(), size=64, deadline=15.0):
        self.inside += 1
        self.overlapped |= self.inside > 1
        self.calls += 1
        time.sleep(0.005)  # a round trip: long enough for a thread switch
        self.inside -= 1
        value = ()
        if op == "dir_status":
            done = self.done_after is not None and self.calls >= self.done_after
            value = {"id": args[0], "status": "done" if done else "pending"}
        return ClientReply(CommandId(client_id("stub"), self.calls), value, 0, 0)

    def close(self):
        pass


class TestAdminHandleSharing:
    def make_handle(self):
        handle = ReplicatedShardDirector({"d1": ("127.0.0.1", 9)})
        handle._client = OverlapRecorder()
        return handle, handle._client

    def test_concurrent_calls_never_overlap_on_the_client(self):
        # The shard storm cell runs add/remove_replica on one thread and
        # split on another, both through one handle.
        handle, stub = self.make_handle()

        def poll():
            for _ in range(10):
                handle.status(1)
                handle.history()

        threads = [threading.Thread(target=poll) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stub.calls == 80
        assert not stub.overlapped

    def test_wait_lets_other_calls_in_between_polls(self):
        handle, stub = self.make_handle()
        stub.done_after = 10**9  # pending until the other thread is done
        waiter = threading.Thread(target=handle.wait, args=(1, 30.0))
        waiter.start()
        time.sleep(0.05)  # the waiter is polling now
        started = time.monotonic()
        assert handle.history() == ()
        assert time.monotonic() - started < 1.0
        stub.done_after = stub.calls + 1
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert not stub.overlapped

    def test_a_call_waiting_for_a_busy_handle_keeps_its_deadline(self):
        # A read that no majority answers holds the handle for its whole
        # deadline; a call queued behind it gives up at its own.
        handle, stub = self.make_handle()
        release = threading.Event()
        submit = stub.submit

        def stuck(op, args=(), size=64, deadline=15.0):
            release.wait(timeout=30.0)
            return submit(op, args, size, deadline)

        stub.submit = stuck
        holder = threading.Thread(target=handle.history)
        holder.start()
        try:
            time.sleep(0.05)  # the holder is inside its call now
            started = time.monotonic()
            with pytest.raises(LiveClientError, match="handle stayed busy"):
                handle.shard_map(deadline=0.2)
            assert time.monotonic() - started < 1.0
        finally:
            release.set()
            holder.join(timeout=10.0)
        assert not holder.is_alive()
        assert stub.calls == 1

    def test_handles_of_one_process_submit_as_distinct_clients(self):
        # One client identity per handle: the group's dedup table would
        # answer a second handle's first command with the first's reply.
        book = {"d1": ("127.0.0.1", 9)}
        first, second = (ReplicatedShardDirector(book) for _ in range(2))
        assert first._client.client != second._client.client
