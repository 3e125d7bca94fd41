"""Property tests: the wire codec round-trips every protocol dataclass.

A hypothesis strategy exists for each registered wire type; a completeness
test pins the strategy table to the registry, so adding a protocol message
without a round-trip strategy fails loudly here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus import messages as m
from repro.consensus.ballot import Ballot
from repro.consensus.interface import Batch, InstanceMessage, Noop
from repro.core.client import (
    ClientReply,
    ClientRequest,
    Redirect,
    ReplyBatch,
    RequestBatch,
)
from repro.core.command import ReconfigCommand, ReconfigRequest
from repro.core.reconfig import (
    EpochAnnounce,
    ObserverBootstrap,
    ObserverSubscribe,
    ObserverUpdate,
)
from repro.core.state_transfer import (
    SnapshotChunkReply,
    SnapshotChunkRequest,
    SnapshotReply,
    SnapshotRequest,
    SnapshotUnavailable,
)
from repro.net import codec
from repro.net.admin import ChaosAck, ChaosCommand, MetricsRequest, MetricsSnapshot
from repro.shard import messages as shm
from repro.shard.shardmap import (
    HASH_SPACE,
    GroupInfo,
    KeyRange,
    ShardAssignment,
    ShardMap,
)
from repro.storage.records import (
    CheckpointRecord,
    WalAccept,
    WalDecide,
    WalDirtyOverlap,
    WalEpochOpen,
    WalPromise,
)
from repro.types import (
    ClientId,
    Command,
    CommandId,
    Configuration,
    Decision,
    Membership,
    NodeId,
    Reply,
    VirtualLogPosition,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8
)
node_ids = names.map(NodeId)
slots = st.integers(min_value=0, max_value=2**32)
epochs = st.integers(min_value=0, max_value=64)
sizes = st.integers(min_value=0, max_value=2**20)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

# JSON-representable scalars (NaN excluded: it breaks equality, and the
# protocol never produces it).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

# Arbitrary application values: what Command.args / snapshots may contain.
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), slots), children, max_size=3),
        st.frozensets(st.text(max_size=8), max_size=3),
        st.sets(st.integers(min_value=0, max_value=99), max_size=3),
    ),
    max_leaves=8,
)

client_ids = names.map(ClientId)
command_ids = st.builds(CommandId, client_ids, st.integers(min_value=1, max_value=2**31))
commands = st.builds(
    Command, command_ids, names, st.lists(scalars, max_size=3).map(tuple), sizes
)
memberships = st.builds(
    lambda nodes: Membership(frozenset(nodes)),
    st.sets(node_ids, min_size=1, max_size=5),
)
configurations = st.builds(Configuration, epochs, memberships)
ballots = st.builds(Ballot, st.integers(min_value=0, max_value=1000), node_ids)
positions = st.builds(VirtualLogPosition, epochs, slots)
replies = st.builds(Reply, command_ids, values, epochs, slots)
decisions = st.builds(Decision, slots, st.one_of(commands, values), times)

reconfig_commands = st.builds(ReconfigCommand, command_ids, memberships, sizes)
batches = st.builds(Batch, st.lists(commands, min_size=1, max_size=4).map(tuple))
engine_inner = st.one_of(
    st.builds(m.Prepare, ballots, slots),
    st.builds(
        m.Promise,
        ballots,
        slots,
        st.lists(st.tuples(slots, ballots, st.one_of(commands, values)), max_size=3)
        .map(tuple),
    ),
    st.builds(m.PrepareNack, ballots, ballots),
    st.builds(m.Accept, ballots, slots, st.one_of(commands, batches, values)),
    st.builds(m.Accepted, ballots, slots),
    st.builds(m.AcceptNack, ballots, slots, ballots),
    st.builds(m.Decide, slots, st.one_of(commands, values)),
    st.builds(m.Heartbeat, ballots, slots, times),
    st.builds(m.HeartbeatAck, ballots, times),
    st.builds(m.ProposeForward, st.one_of(commands, reconfig_commands, values)),
    st.builds(m.CatchupRequest, slots),
    st.builds(
        m.CatchupReply,
        st.lists(st.tuples(slots, st.one_of(commands, values)), max_size=3).map(tuple),
    ),
)

observer_epochs = st.lists(
    st.tuples(
        configurations,
        st.lists(st.tuples(slots, st.one_of(commands, values)), max_size=2).map(tuple),
        st.one_of(st.none(), slots),
    ),
    max_size=2,
).map(tuple)

# Registry-snapshot tables: str keys, wire-native numeric values (what
# MetricsRegistry.snapshot emits — counters int, gauges/histograms float).
counter_tables = st.dictionaries(names, st.integers(min_value=0, max_value=2**40), max_size=4)
gauge_tables = st.dictionaries(names, times, max_size=4)
summary_tables = st.dictionaries(names, st.dictionaries(names, times, max_size=4), max_size=3)

# Shard wire types: KeyRange validates lo < hi <= HASH_SPACE, and a
# ShardMap must partition the space exactly, so both are built through
# their constructors rather than free field draws.
hash_points = st.integers(min_value=0, max_value=HASH_SPACE - 1)
key_ranges = st.builds(
    lambda lo, width: KeyRange(lo, min(lo + width, HASH_SPACE)),
    hash_points,
    st.integers(min_value=1, max_value=HASH_SPACE),
)
peer_addresses = st.dictionaries(
    names,
    st.tuples(st.just("127.0.0.1"), st.integers(min_value=1024, max_value=65535)),
    min_size=1,
    max_size=3,
)
group_infos = st.builds(
    GroupInfo, names, st.lists(names, min_size=1, max_size=3).map(tuple),
    peer_addresses,
)
shard_assignments = st.builds(ShardAssignment, key_ranges, names)
shard_maps = st.builds(
    lambda group_names, version, serving: ShardMap.initial(
        [
            GroupInfo(name, ("n1", "n2"), {"n1": ("127.0.0.1", 9101)})
            for name in sorted(group_names)
        ],
        serving=sorted(group_names)[: 1 + serving % len(group_names)],
        version=version,
    ),
    st.sets(names, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=2**20),
    st.integers(min_value=0, max_value=3),
)

#: one strategy per registered wire type (pinned by test_strategy_table_complete).
STRATEGIES: dict[type, st.SearchStrategy] = {
    CommandId: command_ids,
    Command: commands,
    Reply: replies,
    Membership: memberships,
    Configuration: configurations,
    VirtualLogPosition: positions,
    Decision: decisions,
    Ballot: ballots,
    m.Prepare: st.builds(m.Prepare, ballots, slots),
    m.Promise: st.builds(
        m.Promise,
        ballots,
        slots,
        st.lists(st.tuples(slots, ballots, st.one_of(commands, values)), max_size=3)
        .map(tuple),
    ),
    m.PrepareNack: st.builds(m.PrepareNack, ballots, ballots),
    m.Accept: st.builds(m.Accept, ballots, slots, st.one_of(commands, batches, values)),
    m.Accepted: st.builds(m.Accepted, ballots, slots),
    m.AcceptNack: st.builds(m.AcceptNack, ballots, slots, ballots),
    m.Decide: st.builds(m.Decide, slots, st.one_of(commands, values)),
    m.Heartbeat: st.builds(m.Heartbeat, ballots, slots, times),
    m.HeartbeatAck: st.builds(m.HeartbeatAck, ballots, times),
    m.ProposeForward: st.builds(
        m.ProposeForward, st.one_of(commands, reconfig_commands, values)
    ),
    m.CatchupRequest: st.builds(m.CatchupRequest, slots),
    m.CatchupReply: st.builds(
        m.CatchupReply,
        st.lists(st.tuples(slots, st.one_of(commands, values)), max_size=3).map(tuple),
    ),
    InstanceMessage: st.builds(InstanceMessage, names, engine_inner),
    Noop: st.builds(Noop, names),
    Batch: batches,
    ClientRequest: st.builds(ClientRequest, commands, node_ids),
    ClientReply: st.builds(ClientReply, command_ids, values, epochs, slots),
    RequestBatch: st.builds(
        RequestBatch,
        st.lists(commands, min_size=1, max_size=4).map(tuple),
        node_ids,
    ),
    ReplyBatch: st.builds(
        ReplyBatch,
        st.lists(
            st.builds(ClientReply, command_ids, values, epochs, slots),
            min_size=1,
            max_size=4,
        ).map(tuple),
    ),
    Redirect: st.builds(Redirect, command_ids, memberships, epochs),
    ReconfigCommand: reconfig_commands,
    ReconfigRequest: st.builds(ReconfigRequest, reconfig_commands, node_ids),
    EpochAnnounce: st.builds(EpochAnnounce, configurations, memberships),
    ObserverSubscribe: st.builds(ObserverSubscribe),
    ObserverBootstrap: st.builds(
        ObserverBootstrap, epochs, values, sizes, observer_epochs
    ),
    ObserverUpdate: st.builds(
        ObserverUpdate, configurations, slots, st.one_of(commands, values)
    ),
    SnapshotRequest: st.builds(SnapshotRequest, epochs),
    SnapshotReply: st.builds(SnapshotReply, epochs, values, sizes),
    SnapshotUnavailable: st.builds(SnapshotUnavailable, epochs),
    SnapshotChunkRequest: st.builds(SnapshotChunkRequest, epochs, slots),
    SnapshotChunkReply: st.builds(
        SnapshotChunkReply, epochs, slots, slots, values, sizes
    ),
    ChaosCommand: st.builds(
        ChaosCommand,
        command_ids,
        st.sampled_from(["partition", "drop", "delay", "lose", "heal", "heal_all"]),
        names,
        st.lists(node_ids, max_size=3).map(tuple),
        st.lists(node_ids, max_size=3).map(tuple),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    ChaosAck: st.builds(
        ChaosAck, command_ids, node_ids, names, st.booleans(), st.text(max_size=40)
    ),
    WalPromise: st.builds(WalPromise, names, ballots),
    WalAccept: st.builds(
        WalAccept, names, slots, ballots, st.one_of(commands, batches, values)
    ),
    WalDecide: st.builds(WalDecide, names, slots, st.one_of(commands, values)),
    WalEpochOpen: st.builds(
        WalEpochOpen, configurations, st.one_of(st.none(), memberships)
    ),
    WalDirtyOverlap: st.builds(
        WalDirtyOverlap,
        epochs,
        st.lists(st.one_of(commands, batches), max_size=4).map(tuple),
    ),
    CheckpointRecord: st.builds(
        CheckpointRecord,
        st.integers(min_value=1, max_value=2**31),
        epochs,
        slots,
        slots,
        values,
    ),
    KeyRange: key_ranges,
    ShardAssignment: shard_assignments,
    GroupInfo: group_infos,
    ShardMap: shard_maps,
    shm.ShardMapRequest: st.builds(shm.ShardMapRequest, command_ids),
    shm.ShardMapReply: st.builds(shm.ShardMapReply, command_ids, shard_maps),
    shm.WrongShard: st.builds(
        shm.WrongShard, names, hash_points,
        st.integers(min_value=1, max_value=2**20), names,
        st.one_of(st.just(""), names), hash_points, hash_points,
    ),
    MetricsRequest: st.builds(MetricsRequest, command_ids),
    MetricsSnapshot: st.builds(
        MetricsSnapshot,
        command_ids,
        node_ids,
        times,
        counter_tables,
        gauge_tables,
        summary_tables,
        summary_tables,
    ),
}


class TestRegistry:
    def test_strategy_table_complete(self):
        """Every registered wire type has a round-trip strategy (and only those)."""
        registered = set(codec.registered_names())
        covered = {cls.__name__ for cls in STRATEGIES}
        assert registered == covered

    def test_registry_covers_protocol_modules(self):
        # Spot-check the registry caught the full engine message set.
        engine = {
            "Prepare", "Promise", "PrepareNack", "Accept", "Accepted",
            "AcceptNack", "Decide", "Heartbeat", "HeartbeatAck",
            "ProposeForward", "CatchupRequest", "CatchupReply",
        }
        assert engine <= set(codec.registered_names())

    def test_duplicate_wire_name_rejected(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Prepare:  # same wire name, different class
            x: int

        with pytest.raises(codec.CodecError):
            codec.register(Prepare)

    def test_non_dataclass_rejected(self):
        with pytest.raises(codec.CodecError):
            codec.register(int)


@pytest.mark.parametrize(
    "cls", sorted(STRATEGIES, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_payload_round_trip(self, cls, data):
        payload = data.draw(STRATEGIES[cls])
        decoded = codec.decode_payload(codec.encode_payload(payload))
        assert type(decoded) is cls
        assert decoded == payload

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_frame_round_trip(self, cls, data):
        payload = data.draw(STRATEGIES[cls])
        frame = codec.encode_frame(NodeId("a"), NodeId("b"), payload)
        assert codec.frame_length(frame[:4]) == len(frame) - 4
        sender, dest, decoded = codec.decode_frame_body(frame[4:])
        assert (sender, dest) == (NodeId("a"), NodeId("b"))
        assert decoded == payload


class TestContainers:
    @settings(max_examples=50, deadline=None)
    @given(value=values)
    def test_arbitrary_value_round_trip(self, value):
        decoded = codec.decode_payload(codec.encode_payload(value))
        assert decoded == value

    def test_tuple_and_list_distinguished(self):
        assert codec.decode_payload(codec.encode_payload((1, 2))) == (1, 2)
        assert codec.decode_payload(codec.encode_payload([1, 2])) == [1, 2]
        assert isinstance(codec.decode_payload(codec.encode_payload((1,))), tuple)

    def test_non_string_dict_keys_preserved(self):
        table = {(NodeId("c"), 3): "x", 7: "y"}
        # Non-string / tuple keys survive (plain JSON objects would not).
        decoded = codec.decode_payload(codec.encode_payload(table))
        assert decoded == table

    def test_frozenset_encoding_deterministic(self):
        a = codec.encode_payload(frozenset(["x", "y", "z"]))
        b = codec.encode_payload(frozenset(["z", "x", "y"]))
        assert a == b

    def test_untagged_object_rejected(self):
        # "{" is not a value tag: text is refused, not guessed at.
        with pytest.raises(codec.CodecError):
            codec.decode_payload(b'{"plain": "object"}')


@pytest.mark.parametrize(
    "cls", sorted(STRATEGIES, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
class TestFormatParity:
    """The one wire format agrees with itself, per registered type.

    The oracle is the original value. The tier-1 floor list pins these
    test ids, so two method names predate the deletion of the JSON format.
    """

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_binary_json_parity(self, cls, data):
        """Decoding restores the value, and re-encoding what was decoded
        restores the bytes: WAL records and the batch memo splice decoded
        values into new envelopes and rely on both."""
        payload = data.draw(STRATEGIES[cls])
        encoded = codec.encode_payload(payload)
        decoded = codec.decode_payload(encoded)
        assert type(decoded) is cls
        assert decoded == payload
        assert codec.encode_payload(decoded) == encoded

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_frame_parity_and_detection(self, cls, data):
        """A frame body is recognised by its magic byte and by nothing
        else: the same bytes behind any other first byte are refused."""
        payload = data.draw(STRATEGIES[cls])
        body = codec.encode_frame(NodeId("a"), NodeId("b"), payload)[4:]
        assert body[0] == codec.BINARY_MAGIC
        sender, dest, decoded = codec.decode_frame_body(body)
        assert (sender, dest, decoded) == (NodeId("a"), NodeId("b"), payload)
        with pytest.raises(codec.CodecError):
            codec.decode_frame_body(b"{" + body[1:])

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_precoded_frame_is_byte_identical(self, cls, data):
        """The broadcast fast path (encode once, frame per destination)
        must produce exactly the bytes encode_frame would."""
        payload = data.draw(STRATEGIES[cls])
        payload_bytes = codec.encode_payload(payload)
        for dest in ("b", "other-node"):
            assert codec.encode_frame_precoded(
                NodeId("a"), NodeId(dest), payload_bytes
            ) == codec.encode_frame(NodeId("a"), NodeId(dest), payload)


class TestPayloadMemo:
    """The identity memo that splices a batch's encoded bytes across the
    several envelopes it rides per commit must never change the bytes."""

    def _batch(self, n=12, key="k"):
        return Batch(
            tuple(
                Command(CommandId(ClientId("c"), i), "set", (f"{key}{i}", i), 64)
                for i in range(1, n + 1)
            )
        )

    def _cold(self, payload):
        codec._PAYLOAD_MEMO.clear()
        encoded = codec.encode_payload(payload)
        codec._PAYLOAD_MEMO.clear()
        return encoded

    def test_warm_encodes_are_byte_identical(self):
        from repro.storage.records import WalAccept, WalDecide

        batch = self._batch()
        ballot = Ballot(2, NodeId("n1"))
        envelopes = [
            m.Accept(ballot, 5, batch),
            m.Decide(5, batch),
            WalAccept("i", 5, ballot, batch),
            WalDecide("i", 5, batch),
        ]
        cold = [self._cold(e) for e in envelopes]
        codec._PAYLOAD_MEMO.clear()
        warm = [codec.encode_payload(e) for e in envelopes]
        assert warm == cold
        # The memo really was active for the later encodes.
        assert Batch in codec._PAYLOAD_MEMO

    def test_decoded_batch_reencodes_identically(self):
        from repro.storage.records import WalAccept

        batch = self._batch()
        ballot = Ballot(2, NodeId("n1"))
        wire = self._cold(m.Accept(ballot, 5, batch))
        codec._PAYLOAD_MEMO.clear()
        decoded = codec.decode_payload(wire)
        # Decode memoized the batch's source bytes; the WAL record encode
        # that follows on a real acceptor must splice, not diverge.
        assert Batch in codec._PAYLOAD_MEMO
        warm = codec.encode_payload(
            WalAccept("i", 5, decoded.ballot, decoded.value)
        )
        assert warm == self._cold(WalAccept("i", 5, ballot, batch))

    def test_memo_misses_on_different_object(self):
        batch_a, batch_b = self._batch(key="a"), self._batch(key="b")
        cold_b = self._cold(m.Decide(5, batch_b))
        codec._PAYLOAD_MEMO.clear()
        codec.encode_payload(m.Decide(5, batch_a))  # memoizes a
        assert codec.encode_payload(m.Decide(5, batch_b)) == cold_b


class TestWireFormats:
    def test_unknown_format_rejected(self):
        # Bytes in any other format (here: the retired tagged-JSON payload
        # and envelope, and JSON that never was a frame) raise CodecError,
        # the one exception the transport treats as a poison frame.
        with pytest.raises(codec.CodecError):
            codec.decode_payload(b'{"~t":[1]}')
        for body in (
            b'{"s":"a","d":"b","p":{"~t":[1]}}', b"{}", b'{"~t":5}', b"[1]", b"",
        ):
            with pytest.raises(codec.CodecError):
                codec.decode_frame_body(body)

    def test_type_validation_failure_is_codec_error(self):
        # A registered type whose __post_init__ refuses its decoded fields
        # is malformed input like any other, not a ShardError in the reader.
        bad = object.__new__(KeyRange)  # lo > hi: the constructor would raise
        object.__setattr__(bad, "lo", 5)
        object.__setattr__(bad, "hi", 1)
        with pytest.raises(codec.CodecError):
            codec.decode_payload(codec.encode_payload(bad))
        frame = codec.encode_frame(NodeId("n1"), NodeId("n2"), bad)
        with pytest.raises(codec.CodecError):
            codec.decode_frame_body(frame[4:])

    def test_frame_overhead_matches_real_envelope(self):
        # The overhead is derived from an actual encoded frame, not
        # hardcoded: envelope bytes == frame - payload.
        frame = codec.encode_frame(NodeId("n1"), NodeId("n2"), None)
        assert codec.frame_overhead() == len(frame) - len(codec.encode_payload(None))

    def test_wire_size_matches_frame_bytes(self):
        payload = Command(CommandId(ClientId("c"), 1), "set", ("k", 1), 64)
        frame = codec.encode_frame(NodeId("n1"), NodeId("n2"), payload)
        assert codec.wire_size(payload) == len(frame)

    def test_truncated_binary_rejected(self):
        blob = codec.encode_payload(
            Command(CommandId(ClientId("c"), 1), "set", ("k", 1), 64)
        )
        with pytest.raises(codec.CodecError):
            codec.decode_payload(blob[:-1])
        with pytest.raises(codec.CodecError):
            codec.decode_payload(blob + b"\x00")
        with pytest.raises(codec.CodecError):  # a type id past the registry
            codec.decode_payload(bytes([blob[0], len(codec.registered_names())]))


class TestEstimator:
    def test_estimate_matches_wire_size_for_protocol(self):
        payload = Command(CommandId(ClientId("c"), 1), "set", ("k", 1), 64)
        assert codec.estimate_size(payload) == codec.wire_size(payload)
        assert codec.estimate_size(payload) > 0

    def test_estimate_falls_back_for_unencodable(self):
        class Opaque:
            pass

        assert codec.estimate_size(Opaque()) == codec.DEFAULT_ESTIMATE
        assert codec.estimate_size(Opaque(), fallback=99) == 99

    def test_oversized_frame_rejected(self):
        with pytest.raises(codec.CodecError):
            codec.frame_length((codec.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
