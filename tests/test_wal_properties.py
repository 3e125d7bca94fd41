"""Property tests for WAL record framing and torn-tail recovery.

The framing layer is pure (bytes in, records out), so Hypothesis can
exercise every possible torn-write prefix of a valid log without touching
a filesystem: whatever prefix of the byte stream a crash leaves behind,
the scan must return an intact prefix of the original records and a
truncation point that re-reads to exactly those records.
"""

from __future__ import annotations

import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.ballot import Ballot
from repro.net import codec
from repro.storage.records import WalAccept, WalDecide, WalEpochOpen, WalPromise
from repro.storage.wal import (
    MAX_RECORD_BYTES,
    frame_record,
    read_wal_bytes,
    scan_frames,
)
from repro.types import Command, CommandId, Configuration, Membership, client_id, node_id

# -- strategies ---------------------------------------------------------------

node_names = st.sampled_from(["n1", "n2", "n3", "n9"])
ballots = st.builds(
    Ballot, st.integers(min_value=0, max_value=100), node_names.map(node_id)
)
commands = st.builds(
    Command,
    st.builds(CommandId, node_names.map(client_id), st.integers(0, 50)),
    st.sampled_from(["set", "get"]),
    st.tuples(st.text(max_size=5), st.integers(0, 9)),
)
instances = st.sampled_from(["static", "e0", "e1", "e7"])
slots = st.integers(min_value=0, max_value=1000)
configurations = st.builds(
    Configuration,
    st.integers(0, 5),
    st.lists(node_names, min_size=1, max_size=3, unique=True).map(Membership.from_iter),
)

wal_records = st.one_of(
    st.builds(WalPromise, instances, ballots),
    st.builds(WalAccept, instances, slots, ballots, commands),
    st.builds(WalDecide, instances, slots, commands),
    st.builds(WalEpochOpen, configurations, st.none()),
)
record_lists = st.lists(wal_records, max_size=8)


def encode_log(records):
    return b"".join(
        frame_record(codec.encode_payload(r)) for r in records
    )


# -- round-trip ---------------------------------------------------------------

class TestFramingRoundTrip:
    @given(payload=st.binary(max_size=200))
    def test_single_frame_roundtrips(self, payload):
        frame = frame_record(payload)
        payloads, valid = scan_frames(frame)
        assert payloads == [payload]
        assert valid == len(frame)

    @given(records=record_lists)
    def test_record_log_roundtrips(self, records):
        data = encode_log(records)
        decoded, valid = read_wal_bytes(data)
        assert decoded == records
        assert valid == len(data)


# -- torn tails ---------------------------------------------------------------

class TestTornTail:
    @given(records=record_lists, data=st.data())
    @settings(max_examples=200)
    def test_every_prefix_truncates_to_record_boundary(self, records, data):
        """A crash can leave any byte prefix; recovery must never raise,
        must yield an intact prefix of the records, and must report a
        truncation point that re-reads to exactly those records."""
        log = encode_log(records)
        cut = data.draw(st.integers(min_value=0, max_value=len(log)))
        decoded, valid = read_wal_bytes(log[:cut])
        assert decoded == records[: len(decoded)]
        assert valid <= cut
        # the truncation point is self-consistent: re-reading the kept
        # prefix yields the same records and no further truncation.
        redecoded, revalid = read_wal_bytes(log[:valid])
        assert redecoded == decoded
        assert revalid == valid

    @given(records=st.lists(wal_records, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=200)
    def test_byte_flip_stops_scan_at_corrupt_frame(self, records, data):
        """Flipping any byte of frame *i* must stop the scan at or before
        frame *i* — frames behind the corruption stay readable, nothing
        after it is trusted (CRC32 catches every single-byte error)."""
        frames = [
            frame_record(codec.encode_payload(r)) for r in records
        ]
        target = data.draw(st.integers(0, len(frames) - 1))
        offset_in_frame = data.draw(
            st.integers(0, len(frames[target]) - 1)
        )
        flip = data.draw(st.integers(1, 255))
        start = sum(len(f) for f in frames[:target])
        log = bytearray(b"".join(frames))
        log[start + offset_in_frame] ^= flip
        decoded, valid = read_wal_bytes(bytes(log))
        assert len(decoded) <= target
        assert decoded == records[: len(decoded)]
        assert valid <= start


# -- non-property edge cases --------------------------------------------------

class TestFrameEdges:
    def test_oversize_record_refused_at_write_time(self):
        import pytest

        with pytest.raises(ValueError):
            frame_record(b"\0" * (MAX_RECORD_BYTES + 1))

    def test_corrupt_length_prefix_cannot_force_huge_read(self):
        # A length prefix beyond the cap ends the scan instead of
        # attempting the allocation.
        bogus = struct.Struct("!II").pack(MAX_RECORD_BYTES + 1, 0) + b"x"
        payloads, valid = scan_frames(bogus)
        assert payloads == []
        assert valid == 0

    def test_crc_valid_but_undecodable_payload_ends_scan(self):
        garbage = b"\xff\xfe\xfd not a codec payload"
        frame = struct.Struct("!II").pack(len(garbage), zlib.crc32(garbage)) + garbage
        records, valid = read_wal_bytes(frame)
        assert records == []
        assert valid == 0
