"""Unit tests for the shard-aware KV state machine (no networking).

The cutover safety argument rests on this class: ownership checks and
ownership *changes* all happen inside ``apply``, so they are totally
ordered by the group's log. These tests drive that logic directly.
"""

import pytest

from repro.apps.shardkv import ShardedKvStateMachine
from repro.core.statemachine import DedupStateMachine
from repro.errors import ProtocolError
from repro.shard.messages import WrongShard
from repro.shard.shardmap import HASH_SPACE, key_point
from repro.types import ClientId, Command, CommandId


def cmd(op, args, seq=1, client="c"):
    return Command(CommandId(ClientId(client), seq), op, tuple(args), 64)


def key_in(lo, hi, avoid=()):
    """A test key whose hash point falls inside [lo, hi)."""
    for i in range(100_000):
        key = f"k{i}"
        if lo <= key_point(key) < hi and key not in avoid:
            return key
    raise AssertionError("no key found in range")


MID = HASH_SPACE // 2


class TestOwnership:
    def test_owned_key_served(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, MID),))
        key = key_in(0, MID)
        assert sm.apply(cmd("set", (key, 7))) == "ok"
        assert sm.apply(cmd("get", (key,), seq=2)) == 7

    def test_unowned_key_rejected_without_mutation(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, MID),))
        key = key_in(MID, HASH_SPACE)
        reply = sm.apply(cmd("set", (key, 7)))
        assert isinstance(reply, WrongShard)
        assert reply.group == "g1" and reply.key == key
        assert not reply.has_hint  # never owned: no forwarding hint
        assert len(sm.inner) == 0  # the write did not happen

    def test_spare_group_owns_nothing(self):
        sm = ShardedKvStateMachine(group="spare", owned=())
        assert isinstance(sm.apply(cmd("set", ("any", 1))), WrongShard)

    def test_scan_passes_through(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, MID),))
        key = key_in(0, MID)
        sm.apply(cmd("set", (key, 1)))
        assert key in sm.apply(cmd("scan", ("",), seq=2))

    def test_unknown_op_still_raises(self):
        sm = ShardedKvStateMachine()
        with pytest.raises(ProtocolError):
            sm.apply(cmd("explode", ("k",)))


class TestRetire:
    def test_retire_captures_and_stops_service(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, HASH_SPACE),))
        moved_key = key_in(0, 1000)
        kept_key = key_in(1000, HASH_SPACE)
        sm.apply(cmd("set", (moved_key, "a")))
        sm.apply(cmd("set", (kept_key, "b"), seq=2))
        capture = sm.apply(cmd("shard_retire", (0, 1000, 2, "g2"), seq=3))
        assert capture == {"items": {moved_key: "a"}, "version": 2, "count": 1}
        # The range is gone; ops on it now carry a forwarding hint.
        reply = sm.apply(cmd("get", (moved_key,), seq=4))
        assert isinstance(reply, WrongShard)
        assert reply.has_hint
        assert (reply.target, reply.version) == ("g2", 2)
        assert (reply.lo, reply.hi) == (0, 1000)
        # Unmoved keys still served; moved items evicted from the store.
        assert sm.apply(cmd("get", (kept_key,), seq=5)) == "b"
        assert len(sm.inner) == 1

    def test_retire_unowned_range_raises(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, 1000),))
        with pytest.raises(ProtocolError):
            sm.apply(cmd("shard_retire", (500, 2000, 2, "g2")))

    def test_retire_is_deduplicated_not_reexecuted(self):
        # A retried retire (same cid) must return the SAME capture: the
        # dedup wrapper caches the reply, so the director can retry
        # through client timeouts without losing the captured items.
        sm = DedupStateMachine(
            ShardedKvStateMachine(group="g1", owned=((0, HASH_SPACE),))
        )
        key = key_in(0, 1000)
        sm.apply(cmd("set", (key, "x")))
        retire = cmd("shard_retire", (0, 1000, 2, "g2"), seq=2)
        first = sm.apply(retire)
        again = sm.apply(retire)
        assert first == again
        assert again["items"] == {key: "x"}


class TestInstall:
    def test_install_starts_service_with_items(self):
        sm = ShardedKvStateMachine(group="g2", owned=((MID, HASH_SPACE),))
        key = key_in(0, 1000)
        # Before install: not owned, no hint (we may be the target).
        reply = sm.apply(cmd("get", (key,)))
        assert isinstance(reply, WrongShard) and not reply.has_hint
        result = sm.apply(
            cmd("shard_install", (0, 1000, 2, {key: "moved"}), seq=2)
        )
        assert result == {"installed": 1, "version": 2}
        assert sm.apply(cmd("get", (key,), seq=3)) == "moved"
        assert sm.version == 2

    def test_install_coalesces_adjacent_ranges(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, 500),))
        sm.apply(cmd("shard_install", (500, 1000, 2, {})))
        assert sm.owned == ((0, 1000),)

    def test_round_trip_retire_install(self):
        source = ShardedKvStateMachine(group="g1", owned=((0, HASH_SPACE),))
        target = ShardedKvStateMachine(group="g2", owned=())
        keys = [key_in(0, 2000, avoid=()) ]
        keys.append(key_in(0, 2000, avoid=set(keys)))
        for i, key in enumerate(keys):
            source.apply(cmd("set", (key, i), seq=i + 1))
        capture = source.apply(cmd("shard_retire", (0, 2000, 2, "g2"), seq=9))
        target.apply(cmd("shard_install", (0, 2000, 2, capture["items"])))
        for i, key in enumerate(keys):
            assert target.apply(cmd("get", (key,), seq=i + 2)) == i
            assert isinstance(
                source.apply(cmd("get", (key,), seq=20 + i)), WrongShard
            )


class TestSnapshotRestore:
    def test_shard_state_survives_snapshot(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, HASH_SPACE),))
        key = key_in(5000, HASH_SPACE)
        sm.apply(cmd("set", (key, "v")))
        sm.apply(cmd("shard_retire", (0, 5000, 3, "g9"), seq=2))
        snapshot = sm.snapshot()

        fresh = ShardedKvStateMachine()
        fresh.restore(snapshot)
        assert fresh.group == "g1"
        assert fresh.version == 3
        assert fresh.owned == ((5000, HASH_SPACE),)
        assert fresh.forwards == {(0, 5000): ("g9", 3)}
        assert fresh.apply(cmd("get", (key,), seq=3)) == "v"
        # Forwarding hints survive too: no post-restore amnesia.
        hinted = fresh.apply(cmd("get", (key_in(0, 5000),), seq=4))
        assert isinstance(hinted, WrongShard) and hinted.target == "g9"

    def test_snapshot_json_round_trip_via_codec(self):
        # Snapshots travel through state transfer and the WAL, so the
        # shard sub-state must survive the wire codec.
        from repro.net import codec

        sm = ShardedKvStateMachine(group="g1", owned=((0, 100), (200, 300)))
        sm.forwards[(100, 200)] = ("g2", 4)
        blob = sm.snapshot()
        decoded = codec.decode_payload(codec.encode_payload(blob))
        fresh = ShardedKvStateMachine()
        fresh.restore(decoded)
        assert fresh.owned == ((0, 100), (200, 300))
        assert fresh.forwards == {(100, 200): ("g2", 4)}

    def test_shard_info_reports_state(self):
        sm = ShardedKvStateMachine(group="g1", owned=((0, 100),), version=2)
        info = sm.apply(cmd("shard_info", ()))
        assert info["group"] == "g1"
        assert info["owned"] == [[0, 100]]
        assert info["version"] == 2
