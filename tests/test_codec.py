"""Property tests: the wire codec round-trips every protocol dataclass.

A hypothesis strategy exists for each registered wire type; a completeness
test pins the strategy table to the registry, so adding a protocol message
without a round-trip strategy fails loudly here.
"""

import struct

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
from repro.core.observer import ObserverBootstrap, ObserverSubscribe, ObserverUpdate
from repro.core.reconfig import EpochAnnounce
from repro.core.state_transfer import SnapshotReply, SnapshotRequest, SnapshotUnavailable
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
        # The two seams split out of the replica: every message each
        # module defines is on the wire under the class's own name.
        from repro.core import observer, state_transfer

        for module, messages in (
            (observer, observer.OBSERVER_MESSAGES),
            (state_transfer, state_transfer.TRANSFER_MESSAGES),
        ):
            for cls in messages:
                assert cls.__module__ == module.__name__
                assert codec.registered_type(cls.__name__) is cls

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


# ---------------------------------------------------------------------------
# Column blocks: runs of one registered dataclass, written column by column
# ---------------------------------------------------------------------------

CROSSOVER = codec.COLUMN_CROSSOVER
T_TUPLE, T_LIST, T_DATACLASS, T_COLUMNS = 0x07, 0x06, 0x0B, 0x0C


class Label(str):
    """A str subclass: it must encode as plain ``str``, in rows or columns."""


class Count(int):
    """An int subclass: it must encode as plain ``int``, in rows or columns."""


#: what one column may hold: every column kind (strings with few or many
#: distinct values, ints of every width, tuples, nested runs) and every
#: any-value fallback (mixes, bools, floats, ints past 64 bits, subclasses).
column_fills = st.sampled_from([
    st.text(max_size=6),  # non-ASCII included
    st.sampled_from(["set", "get", "ä"]),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=-(2**15), max_value=2**15),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.integers(min_value=-(2**63), max_value=2**31),
    st.one_of(
        st.integers(min_value=2**64, max_value=2**70),
        st.integers(min_value=-(2**70), max_value=-(2**63) - 1),
    ),
    st.one_of(st.none(), st.text(max_size=4)),
    st.booleans(),
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=3), max_size=3).map(tuple),  # empty and ragged
    st.lists(st.integers(-3, 300), max_size=2).map(tuple),
    st.text(max_size=4).map(Label),
    st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(Count)),
    values,
])
run_lengths = st.sampled_from([CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])


@st.composite
def runs(draw):
    """A tuple or list of one registered dataclass at the crossover or one
    row either side of it, each field column drawn from one fill."""
    n = draw(run_lengths)
    kind = draw(st.sampled_from(["command", "reply", "decision", "assignment"]))
    fill = draw(column_fills)
    column = st.lists(fill, min_size=n, max_size=n)
    if kind == "command":
        clients = draw(st.lists(st.one_of(client_ids, names.map(Label)),
                                min_size=n, max_size=n))
        rows = [
            Command(CommandId(c, seq), op, args, size)
            for c, seq, op, args, size in zip(
                clients,
                draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
                draw(st.lists(names, min_size=n, max_size=n)),
                draw(st.lists(st.lists(fill, max_size=3).map(tuple),
                              min_size=n, max_size=n)),
                draw(st.lists(sizes, min_size=n, max_size=n)),
            )
        ]
    elif kind == "reply":
        rows = [
            ClientReply(cid, value, 0, slot)
            for cid, value, slot in zip(
                draw(st.lists(command_ids, min_size=n, max_size=n)),
                draw(column),
                draw(st.lists(slots, min_size=n, max_size=n)),
            )
        ]
    elif kind == "decision":
        # a value column that nests a whole run inside each row
        inner = draw(st.sampled_from([fill, st.lists(
            commands, min_size=CROSSOVER, max_size=CROSSOVER + 1).map(tuple)]))
        rows = [
            Decision(slot, value, 0.5)
            for slot, value in zip(
                draw(st.lists(slots, min_size=n, max_size=n)),
                draw(st.lists(inner, min_size=n, max_size=n)),
            )
        ]
    else:
        rows = [
            ShardAssignment(KeyRange(lo, lo + 1), group)
            for lo, group in zip(
                draw(st.lists(hash_points, min_size=n, max_size=n)),
                draw(st.lists(names, min_size=n, max_size=n)),
            )
        ]
    return tuple(rows) if draw(st.booleans()) else rows


def _base(value):
    """``value`` with the builtin subclasses the tests draw taken as their
    base type, which is what decoding gives back."""
    if type(value) is Label:
        return str(value)
    if type(value) is Count:
        return int(value)
    if type(value) is tuple:
        return tuple(map(_base, value))
    if type(value) is list:
        return list(map(_base, value))
    if type(value) in (Command, CommandId, ClientReply, Decision):
        return type(value)(*(_base(getattr(value, f)) for f in value.__slots__))
    return value


class TestColumnBlocks:
    @settings(max_examples=150, deadline=None)
    @given(run=runs())
    def test_run_round_trips_and_reencodes(self, run):
        encoded = codec.encode_payload(run)
        assert encoded[0] == (T_COLUMNS if len(run) >= CROSSOVER else
                              T_TUPLE if type(run) is tuple else T_LIST)
        decoded = codec.decode_payload(encoded)
        assert type(decoded) is type(run)
        assert decoded == run
        assert codec.encode_payload(decoded) == encoded
        # builtin subclasses encode as their base type, as rows do
        assert codec.encode_payload(_base(run)) == encoded

    @settings(max_examples=40, deadline=None)
    @given(run=runs(), reply_to=node_ids)
    def test_batched_frames_round_trip(self, run, reply_to):
        rows = tuple(run)
        for payload in self._frames_for(rows, reply_to):
            body = codec.encode_frame(NodeId("a"), NodeId("b"), payload)[4:]
            decoded = codec.decode_frame_body(body)[2]
            assert decoded == payload
            assert codec.encode_frame(NodeId("a"), NodeId("b"), decoded)[4:] == body

    @staticmethod
    def _frames_for(rows, reply_to):
        if type(rows[0]) is Command:
            ballot = Ballot(1, NodeId("n1"))
            batch = Batch(rows)
            return [RequestBatch(rows, reply_to),
                    InstanceMessage("e0", m.Accept(ballot, 3, batch)),
                    WalAccept("e0", 3, ballot, batch), WalDecide("e0", 3, batch)]
        if type(rows[0]) is ClientReply:
            return [ReplyBatch(rows)]
        return [rows]

    @pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])
    def test_long_shard_map_round_trips(self, n):
        groups = [GroupInfo(f"g{i}", ("n1",), {"n1": ("127.0.0.1", 9000 + i)})
                  for i in range(n)]
        shard_map = ShardMap.initial(groups)
        encoded = codec.encode_payload(shard_map)
        assert (bytes([T_COLUMNS, T_TUPLE]) in encoded) == (n >= CROSSOVER)
        assert codec.decode_payload(encoded) == shard_map

    def test_mixed_rows_stay_row_encoded(self):
        rows = [Command(CommandId(ClientId("c"), i), "set", ("k",), 64)
                for i in range(CROSSOVER + 1)]
        for odd in (CommandId(ClientId("c"), 0), "text", None):
            encoded = codec.encode_payload(tuple(rows + [odd]))
            assert encoded[0] == T_TUPLE
            assert codec.decode_payload(encoded) == tuple(rows + [odd])

    def test_batches_and_fieldless_types_stay_row_encoded(self):
        batch = Batch((Command(CommandId(ClientId("c"), 1), "set", ("k",), 64),))
        for rows in ((batch,) * CROSSOVER, (ObserverSubscribe(),) * CROSSOVER):
            encoded = codec.encode_payload(rows)
            assert encoded[0] == T_TUPLE
            assert codec.decode_payload(encoded) == rows

    def test_decoded_strings_share_the_intern_table(self):
        run = tuple(Command(CommandId(ClientId("client-7"), i), "set", (f"k{i}",), 64)
                    for i in range(CROSSOVER))
        first = codec.decode_payload(codec.encode_payload(run))
        second = codec.decode_payload(codec.encode_payload(run))
        assert first[0].op is second[-1].op
        assert first[0].cid.client is second[0].cid.client


def _varint(n: int) -> bytes:
    out = bytearray()
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _tid(cls) -> int:
    return codec.wire_tables()[2][cls]


def _ints(code: str, values) -> bytes:
    return code.encode() + struct.pack(f"<{len(values)}{code}", *values)


def _str_column(table, index, *, index_code="B", length_code="B") -> bytes:
    raws = [s.encode() for s in table]
    lengths = _ints(length_code, [len(r) for r in raws])
    return (bytes([0x01]) + _varint(len(table)) + lengths + b"".join(raws)
            + _ints(index_code, index))


def _int_column(values, code="B") -> bytes:
    return bytes([0x02]) + _ints(code, values)


def _block(cls, n, *columns, container=T_TUPLE) -> bytes:
    return (bytes([T_COLUMNS, container]) + _varint(n) + bytes([0x04])
            + _varint(_tid(cls)) + b"".join(columns))


def _cid_block(n=CROSSOVER, client=None, seqs=None) -> bytes:
    """A hand-built run of ``n`` ``CommandId("a", i)``."""
    return _block(
        CommandId, n,
        client if client is not None else _str_column(["a"], [0] * n),
        seqs if seqs is not None else _int_column(list(range(n))),
    )


def _command_block(args: bytes) -> bytes:
    n = CROSSOVER
    cid = bytes([0x04]) + _varint(_tid(CommandId)) + _str_column(["a"], [0] * n) \
        + _int_column(list(range(n)))
    return _block(Command, n, cid, _str_column(["set"], [0] * n), args,
                  _int_column([64] * n))


def _bad_shard_map() -> ShardMap:
    """A long map whose one assignment range ``KeyRange`` refuses."""
    bad = object.__new__(KeyRange)
    object.__setattr__(bad, "lo", 5)
    object.__setattr__(bad, "hi", 1)
    assignments = [ShardAssignment(KeyRange(i, i + 1), "g") for i in range(CROSSOVER)]
    assignments.append(ShardAssignment(bad, "g"))
    return ShardMap(1, tuple(assignments), (GroupInfo("g", ("n1",), {}),))


#: malformed column blocks, each of which must decode to CodecError.
MALFORMED_BLOCKS = {
    "index-past-table": lambda: _cid_block(
        client=_str_column(["a"], [0] * (CROSSOVER - 1) + [1])),
    "negative-index": lambda: _cid_block(
        client=_str_column(["a"], [0] * (CROSSOVER - 1) + [-1], index_code="b")),
    "negative-string-length": lambda: _cid_block(
        client=bytes([0x01, 1]) + _ints("b", [-1]) + _ints("B", [0] * CROSSOVER)),
    "oversized-string-length": lambda: _cid_block(
        client=bytes([0x01, 1]) + _ints("I", [10**6]) + b"a"
        + _ints("B", [0] * CROSSOVER)),
    "empty-string-table": lambda: _cid_block(
        client=bytes([0x01, 0]) + _ints("B", []) + _ints("B", [0] * CROSSOVER)),
    "negative-tuple-length": lambda: _command_block(
        bytes([0x03]) + _ints("b", [-1] * CROSSOVER) + bytes([0x00, T_LIST, 0])),
    "oversized-tuple-length": lambda: _command_block(
        bytes([0x03]) + _ints("I", [2**31] * CROSSOVER) + bytes([0x00, T_LIST, 0])),
    "any-column-wrong-count": lambda: _cid_block(
        seqs=bytes([0x00, T_LIST, 1, 0x03, 2])),
    "oversized-row-count": lambda: _block(
        CommandId, 2**40, _str_column(["a"], [0] * CROSSOVER),
        _int_column(list(range(CROSSOVER)))),
    "unknown-column-kind": lambda: _cid_block(seqs=bytes([0x09]) + bytes(CROSSOVER)),
    "unknown-int-width": lambda: _cid_block(
        seqs=bytes([0x02]) + b"x" + bytes(CROSSOVER)),
    "below-crossover": lambda: _cid_block(
        n=CROSSOVER - 1, client=_str_column(["a"], [0] * (CROSSOVER - 1)),
        seqs=_int_column(list(range(CROSSOVER - 1)))),
    "unknown-container": lambda: _block(
        CommandId, CROSSOVER, _str_column(["a"], [0] * CROSSOVER),
        _int_column(list(range(CROSSOVER))), container=0x08),
    "batch-rows": lambda: _block(
        Batch, CROSSOVER,
        bytes([0x00, T_LIST, CROSSOVER]) + bytes([T_TUPLE, 0]) * CROSSOVER),
    "rejected-key-range": lambda: codec.encode_payload(_bad_shard_map()),
}


class TestMalformedColumnBlocks:
    def test_hand_built_block_matches_the_encoder(self):
        """The helpers below build what the encoder writes, so each
        malformed case differs from a good block only where it says."""
        run = tuple(CommandId(ClientId("a"), i) for i in range(CROSSOVER))
        assert codec.encode_payload(run) == _cid_block()
        assert codec.decode_payload(_cid_block()) == run

    @pytest.mark.parametrize("kind", sorted(MALFORMED_BLOCKS))
    def test_malformed_block_is_codec_error(self, kind):
        blob = MALFORMED_BLOCKS[kind]()
        with pytest.raises(codec.CodecError):
            codec.decode_payload(blob)
        frame = codec.encode_frame_precoded(NodeId("n1"), NodeId("n2"), blob)
        with pytest.raises(codec.CodecError):
            codec.decode_frame_body(frame[4:])

    def test_every_truncation_is_codec_error(self):
        rows = tuple(
            Command(CommandId(ClientId(f"c{i % 3}"), i), "set", (f"k{i}", "v" * i), 64)
            for i in range(CROSSOVER + 1)
        )
        blob = codec.encode_payload(RequestBatch(rows, NodeId("cli")))
        for cut in range(1, len(blob)):
            with pytest.raises(codec.CodecError):
                codec.decode_payload(blob[:cut])


def _row_bytes(value) -> bytes:
    """The row encoding, assembled from the row tags alone: the bytes
    every release before column blocks wrote for any run length."""
    _, _, ids, field_table, _ = codec.wire_tables()
    out = bytearray()

    def put(v):
        t = type(v)
        if t in ids:
            out.append(T_DATACLASS)
            out.extend(_varint(ids[t]))
            for name in field_table[ids[t]]:
                put(getattr(v, name))
        elif t is str:
            raw = v.encode()
            out.append(0x05)
            out.extend(_varint(len(raw)) + raw)
        elif t is int:
            out.append(0x03)
            out.extend(_varint(v << 1 if v >= 0 else (-v << 1) - 1))
        elif t is tuple:
            out.append(T_TUPLE)
            out.extend(_varint(len(v)))
            for item in v:
                put(item)
        else:
            raise TypeError(t)

    put(value)
    return bytes(out)


def _old_batch(n=256) -> Batch:
    return Batch(tuple(
        Command(CommandId(ClientId(f"perf-{i % 64}"), i + 1), "set",
                (f"key-{i}", f"{i:064d}"), 64)
        for i in range(n)
    ))


class TestRowEncodedDataStillReads:
    def test_row_helper_matches_short_runs(self):
        """Below the crossover the encoder still writes rows, so the
        test's hand-assembled row bytes are the codec's own there."""
        batch = _old_batch(CROSSOVER - 1)
        assert _row_bytes(batch) == codec.encode_payload(batch)

    def test_row_encoded_256_command_batch_decodes(self):
        batch = _old_batch()
        old = _row_bytes(m.Accept(Ballot(2, NodeId("n1")), 9, batch))
        decoded = codec.decode_payload(old)
        assert decoded == m.Accept(Ballot(2, NodeId("n1")), 9, batch)
        # the batch memo splices the bytes it was decoded from ...
        assert codec.encode_payload(decoded) == old
        # ... and a fresh encode writes columns
        codec._PAYLOAD_MEMO.clear()
        assert len(codec.encode_payload(decoded)) < len(old)

    def test_row_encoded_wal_recovers_to_the_same_state(self, tmp_path):
        from repro.storage.store import ReplicaStore
        from repro.storage.wal import frame_record

        ballot = Ballot(2, NodeId("n1"))
        records = [
            WalAccept("e0", 0, ballot, _old_batch()),
            WalDecide("e0", 0, _old_batch()),
            WalAccept("e0", 1, ballot, _old_batch(CROSSOVER)),
        ]
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "wal-000001.log").write_bytes(
            b"".join(frame_record(_row_bytes(r)) for r in records)
        )
        fresh = ReplicaStore(tmp_path / "new", fsync=False)
        for record in records:
            fresh.append(record)
        fresh.close()
        old = ReplicaStore(tmp_path / "old", fsync=False).recovered
        new = ReplicaStore(tmp_path / "new", fsync=False).recovered
        assert old.records == new.records == 3
        assert old.torn_bytes == 0
        assert old.instances["e0"].accepted == new.instances["e0"].accepted
        assert old.instances["e0"].decided == new.instances["e0"].decided
        assert old.instances["e0"].decided[0] == _old_batch()
        assert (tmp_path / "new" / "wal-000001.log").read_bytes() != (
            tmp_path / "old" / "wal-000001.log").read_bytes()

    def test_column_bytes_are_pinned(self):
        """A format change must show up as an edit here."""
        rows = tuple(
            Command(CommandId(ClientId(f"c{i % 2}"), i + 1), "set", (f"k{i}", i), 64)
            for i in range(10)
        )
        encoded = codec.encode_payload(RequestBatch(rows, NodeId("cli")))
        assert encoded.hex() == PINNED_REQUEST_BATCH
        assert codec.decode_payload(encoded) == RequestBatch(rows, NodeId("cli"))


#: ``RequestBatch`` of 10 commands, hex: the type ids are the positions of
#: the wire names in the sorted registry.
PINNED_REQUEST_BATCH = "".join([
    "0b27",  # RequestBatch
    "0c070a",  # column block: tuple of 10 rows
    "040c",  # rows are Command, one column per field:
    "040d",  # cid: CommandId, one column per field:
    "0102" "42" "0202" "63306331" "42" "00010001000100010001",  # client: table, index
    "02" "42" "0102030405060708090a",  # seq: one-byte ints
    "0101" "42" "03" "736574" "42" "00000000000000000000",  # op: "set" x 10
    "03" "42" "02020202020202020202",  # args: lengths, then the 20 items
    "000614",  # any-value column: one row-encoded list of 20 values
    "".join(f"05026b3{i}03{2 * i:02x}" for i in range(10)),  # "k<i>", <i>
    "02" "42" "40404040404040404040",  # size
    "0503636c69",  # reply_to "cli"
])
