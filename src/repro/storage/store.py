"""Per-replica durable store: WAL segments + checkpoints + recovery.

One :class:`ReplicaStore` owns one data directory::

    <data-dir>/
        wal-000001.log      # CRC-framed record segments, append-only
        wal-000002.log      # newest segment is the active one
        ckpt-000003.bin     # checkpoints (one framed CheckpointRecord each)

Engines write through :class:`InstanceDurability` handles (one per engine
instance id, reached via ``Transport.durability``); the reconfigurable
replica logs epoch transitions and takes checkpoints directly on the
store. Handles are idempotent — re-recording state that is already
durable is a no-op — which is what makes recovery replay (and the
re-decide traffic it triggers) safe.

Garbage collection follows the paper's unit, the epoch: a checkpoint
never reads or rewrites the log. It rolls the active segment and unlinks
every older segment whose records all belong to epochs below the
execution floor of the oldest checkpoint still kept on disk (each
segment's highest epoch is tracked as records are appended). Instances of
fully-executed earlier epochs vanish with their segments: a recovered
replica simply does not rebuild those engines, and an engine that never
answers cannot violate a promise. Silence is always safe in Paxos; only
*amnesia* is dangerous. A segment that mixes epochs ``e`` and ``e + 1``
outlives the floor ``e + 1``; :meth:`ReplicaStore._load` filters what it
reads at the floor, so the survivor changes nothing a recovery sees.
Inside one epoch the log only grows: cutting it is what a
reconfiguration is for.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.consensus.ballot import Ballot
from repro.errors import DurabilityError
from repro.metrics.registry import SPAN_CHECKPOINT, MetricsRegistry
from repro.net import codec
from repro.storage.records import (
    CheckpointRecord,
    WalAccept,
    WalDecide,
    WalDirtyOverlap,
    WalEpochOpen,
    WalPromise,
)
from repro.storage.wal import (
    WalWriter,
    frame_record,
    fsync_dir,
    read_wal_bytes,
    read_wal_file,
)
from repro.types import Configuration, Membership, Slot

_SEGMENT_PREFIX = "wal-"
_CKPT_PREFIX = "ckpt-"

#: checkpoints retained on disk. Two, not one: a torn or corrupt newest
#: checkpoint must leave a loadable fallback, so segments are retired
#: against the floor of the *oldest* of them.
_CKPT_KEEP = 2

#: a segment holding a record of no parseable epoch is never retired;
#: an empty one, or one of records the fold skips, falls to any floor.
_PINNED = float("inf")
_UNPINNED = -1


@dataclass(slots=True)
class InstanceState:
    """Recovered acceptor + learner state of one engine instance."""

    promised: Ballot = Ballot.ZERO
    #: slot -> (ballot, value) of the highest-ballot accept per slot.
    accepted: dict[Slot, tuple[Ballot, Any]] = field(default_factory=dict)
    #: slot -> decided value.
    decided: dict[Slot, Any] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return (
            self.promised == Ballot.ZERO
            and not self.accepted
            and not self.decided
        )


@dataclass(slots=True)
class RecoveredState:
    """Everything a boot found on disk, folded and ready to replay."""

    checkpoint: CheckpointRecord | None
    #: epoch transitions in epoch order (oldest first).
    epochs: list[WalEpochOpen]
    #: instance id -> folded state.
    instances: dict[str, InstanceState]
    #: dirty hand-off tails not yet proven decided, in epoch order.
    dirty_overlaps: list[WalDirtyOverlap] = field(default_factory=list)
    #: intact WAL records read across all segments.
    records: int = 0
    #: trailing bytes truncated from torn segments.
    torn_bytes: int = 0
    #: wall-clock seconds the load took.
    duration: float = 0.0

    @property
    def has_state(self) -> bool:
        return self.checkpoint is not None or bool(self.epochs)


@functools.lru_cache(maxsize=64)  # asked once per appended and per loaded record
def _instance_epoch(instance: str) -> int | None:
    """Epoch number of a reconfigurable instance id, None if unparseable."""
    if instance.startswith("e"):
        try:
            return int(instance[1:])
        except ValueError:
            return None
    return None


def _record_epoch(record: Any) -> float:
    """The highest execution floor at which recovery still needs ``record``."""
    instance = getattr(record, "instance", None)
    if instance is not None:
        epoch = _instance_epoch(instance)
        return _PINNED if epoch is None else epoch
    if isinstance(record, WalEpochOpen):
        return record.config.epoch
    if isinstance(record, WalDirtyOverlap):
        # The tail of sealed epoch e feeds re-proposals into e + 1.
        return record.epoch + 1
    return _UNPINNED  # not a record the fold reads


def fold_records(records: list[Any]) -> tuple[dict[int, WalEpochOpen], dict[str, InstanceState]]:
    """Fold a record stream into per-epoch and per-instance state.

    Order-tolerant and duplicate-tolerant on purpose: a crash while
    segments are being retired leaves an arbitrary subset of them on disk,
    so the fold must be a pure max/union over whatever it reads. Promises keep
    the highest ballot (accepts imply promises); accepts keep the highest
    ballot per slot; decides are first-wins (agreement makes any
    duplicate identical).
    """
    epochs: dict[int, WalEpochOpen] = {}
    instances: dict[str, InstanceState] = {}

    def state_of(instance: str) -> InstanceState:
        state = instances.get(instance)
        if state is None:
            state = instances[instance] = InstanceState()
        return state

    for record in records:
        if isinstance(record, WalEpochOpen):
            epochs.setdefault(record.config.epoch, record)
        elif isinstance(record, WalPromise):
            state = state_of(record.instance)
            if record.ballot > state.promised:
                state.promised = record.ballot
        elif isinstance(record, WalAccept):
            state = state_of(record.instance)
            if record.ballot > state.promised:
                state.promised = record.ballot
            current = state.accepted.get(record.slot)
            if current is None or record.ballot > current[0]:
                state.accepted[record.slot] = (record.ballot, record.value)
        elif isinstance(record, WalDecide):
            state_of(record.instance).decided.setdefault(record.slot, record.value)
        # Unknown record types are skipped, not fatal: an older build must
        # be able to reopen a directory written by a newer one.
    return epochs, instances


def fold_dirty_overlaps(records: list[Any]) -> dict[int, WalDirtyOverlap]:
    """Fold dirty hand-off tail records, one per sealed epoch.

    First-wins per epoch for the same reason decides are: an epoch seals
    once, so any duplicate is identical.
    """
    overlaps: dict[int, WalDirtyOverlap] = {}
    for record in records:
        if isinstance(record, WalDirtyOverlap):
            overlaps.setdefault(record.epoch, record)
    return overlaps


class NullDurability:
    """No-op durability handle (in-memory runs, storage-less hosts)."""

    __slots__ = ()

    def recover(self) -> InstanceState | None:
        return None

    def record_promise(self, ballot: Ballot) -> None:
        pass

    def record_accept(self, slot: Slot, ballot: Ballot, value: Any) -> None:
        pass

    def record_decide(self, slot: Slot, value: Any) -> None:
        pass


NULL_DURABILITY = NullDurability()


class InstanceDurability:
    """One engine instance's write handle into the replica's WAL.

    Mirrors the durable watermarks (highest promise, highest accept
    ballot per slot, decided slots) so that re-recording already-durable
    state — which recovery replay does constantly — costs no I/O.
    """

    __slots__ = ("_store", "instance", "_promised", "_accepted", "_decided")

    def __init__(self, store: "ReplicaStore", instance: str, recovered: InstanceState | None):
        self._store = store
        self.instance = instance
        self._promised = recovered.promised if recovered else Ballot.ZERO
        self._accepted: dict[Slot, Ballot] = (
            {slot: ballot for slot, (ballot, _) in recovered.accepted.items()}
            if recovered
            else {}
        )
        self._decided: set[Slot] = set(recovered.decided) if recovered else set()

    def recover(self) -> InstanceState | None:
        """The state this instance must resume from (None = fresh)."""
        state = self._store.recovered.instances.get(self.instance)
        return None if state is None or state.empty else state

    def record_promise(self, ballot: Ballot) -> None:
        if ballot <= self._promised:
            return
        self._promised = ballot
        self._store.append(WalPromise(self.instance, ballot))

    def record_accept(self, slot: Slot, ballot: Ballot, value: Any) -> None:
        current = self._accepted.get(slot)
        if current is not None and ballot <= current:
            return
        self._accepted[slot] = ballot
        if ballot > self._promised:
            self._promised = ballot  # an accept implies the promise
        self._store.append(WalAccept(self.instance, slot, ballot, value))

    def record_decide(self, slot: Slot, value: Any) -> None:
        if slot in self._decided:
            return
        self._decided.add(slot)
        # Lazy: a decide only caches an outcome already durable at a
        # quorum of acceptors (each fsynced its accept before voting).
        # Losing the tail of decide records costs a catch-up on recovery,
        # never an acknowledged command — so it does not buy an fsync.
        self._store.append(WalDecide(self.instance, slot, value), lazy=True)


class ReplicaStore:
    """The durable state of one replica, in one directory."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        fsync: bool = True,
        metrics: MetricsRegistry | None = None,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_appends = self.metrics.counter("wal.appends")
        #: appends that never demand an fsync; the grouping an fsync
        #: really bought is (appends - lazy_appends) / fsyncs.
        self._m_lazy_appends = self.metrics.counter("wal.lazy_appends")
        self._m_fsyncs = self.metrics.counter("wal.fsyncs")
        self._m_bytes = self.metrics.counter("wal.bytes")
        self._m_checkpoints = self.metrics.counter("wal.checkpoints")
        self._m_checkpoint_duration = self.metrics.histogram("wal.checkpoint_duration")
        self._m_retired = self.metrics.counter("wal.segments_retired")
        self._m_segments = self.metrics.gauge("wal.segments")
        self._m_group_size = self.metrics.histogram("wal.group_commit_size")
        self._m_recovery = self.metrics.histogram("recovery.duration")
        #: reentrant group-commit window depth (see :meth:`group`).
        self._group_depth = 0

        #: closed segment -> highest epoch recovery needs it for, oldest
        #: first (rebuilt by :meth:`_load`, extended by every roll).
        self._sealed: dict[Path, float] = {}
        started = time.perf_counter()
        self.recovered = self._load()
        self.recovered.duration = time.perf_counter() - started
        self._m_recovery.record(self.recovered.duration)
        self.metrics.counter("recovery.runs").inc()
        self.metrics.counter("recovery.replayed_records").inc(self.recovered.records)
        self.metrics.counter("recovery.torn_bytes").inc(self.recovered.torn_bytes)

        #: epoch -> WalEpochOpen already durable (dedup for log_epoch_open).
        self._epochs_logged: dict[int, WalEpochOpen] = {
            eo.config.epoch: eo for eo in self.recovered.epochs
        }
        self._handles: dict[str, InstanceDurability] = {}
        ckpt = self.recovered.checkpoint
        self._ckpt_seq = ckpt.seq if ckpt else 0
        #: execution floors of the checkpoints kept on disk, oldest first.
        #: Only the loaded one is known after a boot, which errs low.
        self._ckpt_floors: list[int] = [ckpt.exec_epoch] if ckpt else []
        self._segment_index = max(
            (int(path.stem[len(_SEGMENT_PREFIX):]) for path in self._sealed),
            default=0,
        )
        self._open_segment()
        self._m_segments.set(len(self._sealed) + 1)
        if fsync:
            fsync_dir(self.data_dir)
        self.closed = False

    # -- loading ------------------------------------------------------------

    def _checkpoints(self) -> list[Path]:
        return sorted(self.data_dir.glob(f"{_CKPT_PREFIX}*.bin"))

    def _open_segment(self) -> None:
        """Start the next segment; it becomes the active one."""
        self._segment_index += 1
        #: highest :func:`_record_epoch` appended to the active segment.
        self._active_epoch: float = _UNPINNED
        self._writer = WalWriter(
            self.data_dir / f"{_SEGMENT_PREFIX}{self._segment_index:06d}.log",
            fsync=self.fsync,
            on_append=self._on_append,
            on_sync=self._on_sync,
        )

    def _load(self) -> RecoveredState:
        checkpoint = self._load_checkpoint()
        records: list[Any] = []
        torn = 0
        for segment in sorted(self.data_dir.glob(f"{_SEGMENT_PREFIX}*.log")):
            segment_records, segment_torn = read_wal_file(segment)
            self._sealed[segment] = max(
                map(_record_epoch, segment_records), default=_UNPINNED
            )
            records.extend(segment_records)
            torn += segment_torn
        epoch_opens, instances = fold_records(records)
        overlap_folds = fold_dirty_overlaps(records)
        floor = (
            checkpoint.exec_epoch
            if checkpoint is not None
            else min(epoch_opens, default=0)
        )
        # Drop state below the execution floor: those engines are never
        # rebuilt (see the module docstring — silence is safe, amnesia is
        # not), so carrying their state forward would only grow the log.
        epochs = [epoch_opens[e] for e in sorted(epoch_opens) if e >= floor]
        live_instances = {
            instance: state
            for instance, state in instances.items()
            if not state.empty
            and ((epoch := _instance_epoch(instance)) is None or epoch >= floor)
        }
        # A tail record for sealed epoch e feeds re-proposals into e+1; it
        # is dead weight only once execution has moved past that epoch.
        overlaps = [
            overlap_folds[e]
            for e in sorted(overlap_folds)
            if e + 1 >= floor
        ]
        return RecoveredState(
            checkpoint=checkpoint,
            epochs=epochs,
            instances=live_instances,
            dirty_overlaps=overlaps,
            records=len(records),
            torn_bytes=torn,
        )

    def _load_checkpoint(self) -> CheckpointRecord | None:
        # Newest first; fall back on a torn or corrupt newest checkpoint
        # (a crash mid-checkpoint leaves the previous one untouched).
        for path in reversed(self._checkpoints()):
            try:
                records, _ = read_wal_bytes(path.read_bytes())
            except OSError:
                continue
            if records and isinstance(records[0], CheckpointRecord):
                return records[0]
        return None

    # -- appending ----------------------------------------------------------

    def _on_append(self, frame_bytes: int, fsynced: bool) -> None:
        self._m_appends.inc()
        self._m_bytes.inc(frame_bytes)

    def _on_sync(self, frames: int) -> None:
        # One fsync made `frames` records durable: the counter tracks
        # media round trips, the histogram the amortization factor.
        self._m_fsyncs.inc()
        self._m_group_size.record(frames)

    def append(self, record: Any, *, lazy: bool = False) -> None:
        """Durably append one record to the active segment.

        Inside an open :meth:`group` window the fsync is deferred to the
        window close, so all records of one window share one media sync.
        ``lazy=True`` appends never demand an fsync of their own (see
        :meth:`WalWriter.append`) — reserved for records that are a cache
        of state recoverable from a quorum.
        """
        epoch = _record_epoch(record)
        if epoch > self._active_epoch:
            self._active_epoch = epoch
        if lazy:
            self._m_lazy_appends.inc()
        self._writer.append(record, defer_sync=self._group_depth > 0, lazy=lazy)

    # -- group commit ---------------------------------------------------------

    def group(self) -> "_GroupWindow":
        """A reentrant group-commit window, used as a context manager.

        All appends issued while at least one window is open defer their
        fsync; the outermost window close forces them to media with a
        single ``os.fsync``. ``serve`` wraps every inbound network
        chunk's dispatch in one of these, so the records written while
        processing N messages cost one sync — and crucially the sync
        happens *before* the dispatch callback returns, which is before
        the transport's writer tasks can put any resulting protocol
        message on a socket, and before the transport uncorks the
        replies the chunk produced. Durable-before-send is preserved per
        window. A window that appends nothing costs nothing.
        """
        return _GroupWindow(self)

    def begin_group(self) -> None:
        self._group_depth += 1

    def end_group(self) -> None:
        self._group_depth -= 1
        if self._group_depth == 0 and not self.closed:
            # A mid-window checkpoint may have rolled the active segment;
            # the roll fsynced every frame deferred into the old one, so
            # syncing the current writer alone is sufficient.
            self._writer.sync_deferred()

    def instance(self, instance_id: str) -> InstanceDurability:
        """The durability handle for one engine instance (cached)."""
        handle = self._handles.get(instance_id)
        if handle is None:
            handle = self._handles[instance_id] = InstanceDurability(
                self, instance_id, self.recovered.instances.get(instance_id)
            )
        return handle

    def log_epoch_open(
        self, config: Configuration, prev_members: Membership | None
    ) -> None:
        """Record an epoch transition (idempotent per epoch)."""
        if config.epoch in self._epochs_logged:
            return
        record = WalEpochOpen(config, prev_members)
        self._epochs_logged[config.epoch] = record
        self.append(record)

    def log_dirty_overlap(self, epoch: int, payloads: list[Any]) -> None:
        """Record a dirty hand-off tail about to be re-proposed.

        Must land before any re-proposal message can reach a socket
        (the caller runs inside the dispatch group window, whose close
        fsyncs before the transport writers run) — otherwise a crash
        between seal and accept silently drops the tail.
        """
        self.append(WalDirtyOverlap(epoch, tuple(payloads)))

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(
        self,
        *,
        exec_epoch: int,
        executed: int,
        virtual_index: int,
        app_state: Any,
        now: float = 0.0,
    ) -> int:
        """Write a checkpoint, then retire the WAL segments behind it.

        Returns the checkpoint sequence number. The WAL work is O(1) in
        the log's length: nothing is read back or rewritten. Crash-safe
        after every step: the checkpoint lands by write-then-rename and
        the rename is made durable before anything is deleted; a sealed
        segment is only ever unlinked whole, and only when every record
        in it is below the floor of the oldest checkpoint kept — state
        :meth:`_load` would drop anyway, whichever kept checkpoint it
        ends up loading.
        """
        started = time.perf_counter()
        self._ckpt_seq += 1
        seq = self._ckpt_seq
        self.metrics.span_event(SPAN_CHECKPOINT, seq, "begin", now)
        record = CheckpointRecord(
            seq=seq,
            exec_epoch=exec_epoch,
            executed=executed,
            virtual_index=virtual_index,
            app_state=app_state,
        )
        path = self.data_dir / f"{_CKPT_PREFIX}{seq:06d}.bin"
        tmp = path.with_suffix(".tmp")
        frame = frame_record(codec.encode_payload(record))
        with open(tmp, "wb") as handle:
            handle.write(frame)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        tmp.replace(path)
        self.metrics.span_event(SPAN_CHECKPOINT, seq, "written", now)
        self._m_checkpoints.inc()

        # Roll: the old segment is never written or fsynced again, so the
        # frames an open group window deferred into it (durable before
        # send) and its lazy tail go to media now.
        full = self._writer
        if self.fsync:
            full.sync()
        full.close()
        self._sealed[full.path] = self._active_epoch
        self._open_segment()
        if self.fsync:
            # The rename and the new segment's entry, before any unlink.
            try:
                fsync_dir(self.data_dir)
            except OSError as exc:
                # The new segment's records would sit behind a directory
                # entry that may never reach media: its writer refuses them.
                self._writer.failed = exc
                raise DurabilityError(f"fsync of {self.data_dir} failed: {exc}") from exc

        self._ckpt_floors = [*self._ckpt_floors, exec_epoch][-_CKPT_KEEP:]
        for stale in self._checkpoints()[:-_CKPT_KEEP]:
            stale.unlink(missing_ok=True)
        floor = min(self._ckpt_floors)
        for segment in [s for s, epoch in self._sealed.items() if epoch < floor]:
            segment.unlink(missing_ok=True)
            del self._sealed[segment]
            self._m_retired.inc()
        self._m_segments.set(len(self._sealed) + 1)
        self.metrics.span_event(SPAN_CHECKPOINT, seq, "retired", now)
        self._m_checkpoint_duration.record(time.perf_counter() - started)
        return seq

    # -- introspection -------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Plain-container summary for admin endpoints and logs."""
        rec = self.recovered
        return {
            "durable": True,
            "fsync": self.fsync,
            "recovered": rec.has_state,
            "wal_records": rec.records,
            "torn_bytes": rec.torn_bytes,
            "epochs": len(rec.epochs),
            "instances": len(rec.instances),
            "checkpoint_seq": rec.checkpoint.seq if rec.checkpoint else 0,
            "segments": len(self._sealed) + 1,
            "recovery_seconds": round(rec.duration, 6),
        }

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._writer.close()


class _GroupWindow:
    """Context manager for one :meth:`ReplicaStore.group` window."""

    __slots__ = ("_store",)

    def __init__(self, store: ReplicaStore):
        self._store = store

    def __enter__(self) -> ReplicaStore:
        self._store.begin_group()
        return self._store

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Close the window even on exception: records already written in
        # it must still reach media before anything else happens.
        self._store.end_group()
        return False
