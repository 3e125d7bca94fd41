"""CRC-framed write-ahead log: byte layout, torn-tail scan, file writer.

Frame layout, repeated back to back::

    [u32 payload length][u32 crc32(payload)][payload bytes]

The payload is one codec-encoded record (binary wire format). Recovery
tolerates torn tail writes — the one corruption mode a crashed-but-honest
process can produce — by scanning frames until the first one whose length
prefix overruns the file, whose CRC mismatches, or whose payload fails to
decode, and truncating there. Everything before the tear is intact by
construction (frames are appended in order and each is flushed whole).

The framing functions are pure (bytes in, records out) so the property
tests can exercise every possible torn-write prefix without touching a
filesystem; :class:`WalWriter` and :func:`read_wal_file` are the thin
file-backed layer on top.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.errors import DurabilityError
from repro.net import codec

_HEADER = struct.Struct("!II")

#: refuse records larger than this (a corrupt length prefix must not make
#: the reader attempt a multi-gigabyte allocation).
MAX_RECORD_BYTES = 32 * 1024 * 1024


def frame_record(payload: bytes) -> bytes:
    """Wrap one encoded record payload in a length+CRC frame."""
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(f"WAL record of {len(payload)} bytes exceeds the frame cap")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_frames(data: bytes) -> tuple[list[bytes], int]:
    """Split ``data`` into intact frame payloads.

    Returns ``(payloads, valid_bytes)`` where ``valid_bytes`` is the
    offset of the first torn or corrupt frame (== ``len(data)`` for a
    clean log). Never raises on malformed input: a tear simply ends the
    scan, which is what makes truncate-at-corruption safe to automate.
    """
    payloads: list[bytes] = []
    valid = 0
    for payload, end in _iter_frames(data):
        payloads.append(payload)
        valid = end
    return payloads, valid


def read_wal_bytes(data: bytes) -> tuple[list[Any], int]:
    """Decode every intact record in ``data``; returns ``(records, valid_bytes)``.

    A CRC-valid frame whose payload fails to decode still ends the scan
    at that frame's start — decodability is part of record integrity.
    """
    records: list[Any] = []
    valid = 0
    for payload, end in _iter_frames(data):
        try:
            records.append(codec.decode_payload(payload))
        except codec.CodecError:
            break
        valid = end
    return records, valid


def _iter_frames(data: bytes):
    offset = 0
    total = len(data)
    while total - offset >= _HEADER.size:
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            return
        end = offset + _HEADER.size + length
        if end > total:
            return
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            return
        yield payload, end
        offset = end


def read_wal_file(path: Path) -> tuple[list[Any], int]:
    """Read one WAL segment, truncating any torn tail in place.

    Returns ``(records, torn_bytes)``; ``torn_bytes`` is how much trailing
    garbage was discarded (0 for a clean segment).
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    records, valid = read_wal_bytes(data)
    torn = len(data) - valid
    if torn:
        with open(path, "r+b") as handle:
            handle.truncate(valid)
    return records, torn


def fsync_dir(directory: Path) -> None:
    """Force ``directory``'s entries (creations, renames) to stable media."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalWriter:
    """Append-only writer for one WAL segment.

    Every append writes one whole frame and flushes it to the kernel, so
    a ``SIGKILL`` of the process never loses an acknowledged append; with
    ``fsync=True`` each append is also forced to stable media, extending
    the guarantee to machine crashes at a large latency cost. Appends are
    synchronous on purpose: the caller's durable-before-send contract is
    "when this call returns, the record survives us".

    Group commit amortizes the fsync: ``append(record, defer_sync=True)``
    writes and flushes the frame but leaves the media sync to a later
    :meth:`sync_deferred` / :meth:`sync`, so N records queued inside one
    commit window cost one ``os.fsync`` instead of N. The caller owns the
    window boundary (see ``ReplicaStore.group``) and must not let any
    protocol message depend on a deferred record until the window closes.

    A failed fsync poisons the writer: it raises
    :class:`~repro.errors.DurabilityError` and so does every later append
    or sync. After a failed fsync the kernel may already have dropped the
    dirty pages and cleared the error, so a retried fsync could report
    success over records that never reached media.
    """

    def __init__(
        self,
        path: Path,
        *,
        fsync: bool = True,
        on_append: Callable[[int, bool], None] | None = None,
        on_sync: Callable[[int], None] | None = None,
    ):
        self.path = Path(path)
        self.fsync = fsync
        #: observability hook: called with (frame_bytes, fsynced) per append.
        self.on_append = on_append
        #: observability hook: called with the number of frames made durable
        #: by each fsync (the group-commit size; 1 for ungrouped appends).
        self.on_sync = on_sync
        #: frames written but not yet forced to media (only grows when
        #: ``fsync=True`` appends are deferred into a group).
        self._deferred = 0
        #: the error of the fsync that failed; set once, never cleared.
        self.failed: OSError | None = None
        self._file = open(self.path, "ab")

    def append(
        self, record: Any, *, defer_sync: bool = False, lazy: bool = False
    ) -> int:
        """Durably append one record; returns the frame size in bytes.

        With ``defer_sync=True`` the frame is written and flushed but the
        fsync is left to the enclosing group window's :meth:`sync_deferred`.

        With ``lazy=True`` the frame is written and flushed but demands no
        fsync at all — not even at the group window's close. It becomes
        durable with whichever fsync next touches the file (an fsync
        always covers every byte written before it). Only for records
        whose loss is recoverable from elsewhere: decide records are a
        cache of a quorum-durable outcome, so a torn-off lazy tail merely
        forces a catch-up, never loses an acknowledged command.
        """
        if self.failed is not None:
            self._refuse()
        frame = frame_record(codec.encode_payload(record))
        self._file.write(frame)
        self._file.flush()
        synced = False
        if self.fsync and not lazy:
            if defer_sync:
                self._deferred += 1
            else:
                self._fsync()
                synced = True
                if self.on_sync is not None:
                    self.on_sync(1)
        if self.on_append is not None:
            self.on_append(len(frame), synced)
        return len(frame)

    def sync_deferred(self) -> int:
        """Close a group-commit window: one fsync for every deferred frame.

        Returns the number of frames made durable. A window in which no
        append was deferred costs nothing — no flush, no fsync — so
        wrapping every inbound network chunk in a group is free for
        traffic that never touches the WAL.
        """
        if self.failed is not None:
            self._refuse()
        if not self._deferred:
            return 0
        self._file.flush()
        self._fsync()
        count = self._deferred
        self._deferred = 0
        if self.on_sync is not None:
            self.on_sync(count)
        return count

    def sync(self) -> None:
        """Force everything written so far to stable media."""
        if self.failed is not None:
            self._refuse()
        self._file.flush()
        self._fsync()
        if self._deferred:
            count = self._deferred
            self._deferred = 0
            if self.on_sync is not None:
                self.on_sync(count)

    def _fsync(self) -> None:
        try:
            os.fsync(self._file.fileno())
        except OSError as exc:
            self.failed = exc
            raise DurabilityError(f"fsync of {self.path.name} failed: {exc}") from exc

    def _refuse(self) -> None:
        raise DurabilityError(
            f"{self.path.name}: no write or sync after a failed fsync"
        ) from self.failed

    def close(self) -> None:
        try:
            self._file.flush()
        finally:
            self._file.close()
