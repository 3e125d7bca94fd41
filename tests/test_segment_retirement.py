"""Checkpoints retire whole WAL segments; they never read or rewrite the log.

The property at the top is the safety argument in executable form: however
appends across epochs, group windows, checkpoints and crashes interleave —
including a crash after every filesystem step of ``checkpoint`` — reopening
the directory yields exactly what folding the *never-collected* record
stream and filtering at the loaded checkpoint's floor yields. The tests
below it pin the cost (no re-read), durable-before-send across a
mid-window roll, the directory fsync that must precede any unlink, and the
phase offset that keeps a quorum from checkpointing at once.
"""

from __future__ import annotations

import itertools
import os
import stat
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import KvStateMachine
from repro.consensus.ballot import Ballot
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.core.client import ClientParams
from repro.core.reconfig import ReconfigParams
from repro.core.service import ReplicatedService
from repro.metrics.registry import SPAN_CHECKPOINT, MetricsRegistry
from repro.sim.runner import Simulator
from repro.storage import store as store_mod
from repro.storage.records import (
    WalAccept,
    WalDecide,
    WalDirtyOverlap,
    WalEpochOpen,
    WalPromise,
)
from repro.storage.store import (
    ReplicaStore,
    _instance_epoch,
    fold_dirty_overlaps,
    fold_records,
)
from repro.types import Configuration, Membership, node_id

N1 = node_id("n1")
MEMBERS = Membership.from_iter(["n1", "n2", "n3"])


# -- crash injection -----------------------------------------------------------


class _Crash(Exception):
    """The process died here: everything written so far stays on disk."""


@contextmanager
def crash_after_step(step: int | None):
    """Die once ``step`` filesystem steps of ``checkpoint()`` have happened.

    Step 0 is the snapshot written but not yet renamed, 1 the rename, 2 the
    segment roll, 3 and up each unlink (stale checkpoints, then segments).
    ``None``, or a step the checkpoint never reaches, lets it complete.
    """
    ticks = itertools.count()

    def tick() -> None:
        if next(ticks) == step:
            raise _Crash

    real_replace, real_unlink = Path.replace, Path.unlink
    real_roll = ReplicaStore._open_segment

    def replace(self, target):
        tick()
        real_replace(self, target)
        tick()

    def roll(self):
        real_roll(self)
        tick()

    def unlink(self, missing_ok=False):
        real_unlink(self, missing_ok=missing_ok)
        tick()

    with (
        mock.patch.object(Path, "replace", replace),
        mock.patch.object(Path, "unlink", unlink),
        mock.patch.object(ReplicaStore, "_open_segment", roll),
    ):
        yield


# -- the model: fold everything ever appended, filter at the floor ---------------


def expected_state(log, checkpoint):
    epoch_opens, instances = fold_records(log)
    overlaps = fold_dirty_overlaps(log)
    floor = checkpoint[0] if checkpoint is not None else min(epoch_opens, default=0)
    return (
        checkpoint,
        [epoch_opens[e] for e in sorted(epoch_opens) if e >= floor],
        {
            name: state
            for name, state in instances.items()
            if not state.empty
            and (_instance_epoch(name) is None or _instance_epoch(name) >= floor)
        },
        [overlaps[e] for e in sorted(overlaps) if e + 1 >= floor],
    )


def recovered_state(store):
    rec = store.recovered
    ckpt = rec.checkpoint
    return (
        None if ckpt is None else (ckpt.exec_epoch, ckpt.virtual_index),
        rec.epochs,
        rec.instances,
        rec.dirty_overlaps,
    )


epochs = st.integers(0, 4)
#: mostly epoch instances; "static" has no epoch and pins its segment.
instances = st.one_of(epochs.map(lambda e: f"e{e}"), st.just("static"))
ballots = st.builds(Ballot, st.integers(1, 9), st.just(N1))
slots = st.integers(0, 6)
values = st.integers(0, 99)
records = st.one_of(
    st.builds(WalPromise, instances, ballots),
    st.builds(WalAccept, instances, slots, ballots, values),
    st.builds(WalDecide, instances, slots, values),
    st.builds(WalEpochOpen, st.builds(Configuration, epochs, st.just(MEMBERS)), st.none()),
    st.builds(WalDirtyOverlap, epochs, st.tuples(values)),
)
steps = st.one_of(
    st.tuples(st.just("append"), records),
    st.tuples(st.just("group"), st.booleans()),
    st.tuples(st.just("checkpoint"), epochs, st.none() | st.integers(0, 7)),
    st.tuples(st.just("crash")),
    st.tuples(st.just("corrupt-newest")),
)


class TestRetirementNeverChangesRecovery:
    @settings(max_examples=150, deadline=None)
    @given(schedule=st.lists(steps, max_size=30))
    def test_reopen_equals_fold_of_the_uncollected_stream(self, schedule):
        with tempfile.TemporaryDirectory() as root:
            self.run_schedule(Path(root), schedule)

    def run_schedule(self, root, schedule):
        log = []  # every record ever appended, in order
        checkpoints = []  # (exec_epoch, virtual_index) of every one renamed in
        store = ReplicaStore(root, fsync=False)
        depth = 0
        #: the newest checkpoint file has an intact predecessor on disk.
        spare = False

        def reopen():
            nonlocal store, depth
            store.close()  # a SIGKILL flushes nothing more: appends already did
            store = ReplicaStore(root, fsync=False)
            depth = 0
            newest = checkpoints[-1] if checkpoints else None
            assert recovered_state(store) == expected_state(log, newest)

        for step in schedule:
            if step[0] == "append":
                store.append(step[1])
                log.append(step[1])
            elif step[0] == "group":
                if step[1]:
                    store.begin_group()
                    depth += 1
                elif depth:
                    store.end_group()
                    depth -= 1
            elif step[0] == "checkpoint":
                # Execution never moves backwards past a durable checkpoint.
                floor = max(step[1], checkpoints[-1][0] if checkpoints else 0)
                mark = (floor, len(checkpoints) + 1)
                try:
                    with crash_after_step(step[2]):
                        store.checkpoint(
                            exec_epoch=mark[0], executed=0,
                            virtual_index=mark[1], app_state={},
                        )
                except _Crash:
                    if step[2] > 0:  # the rename happened
                        checkpoints.append(mark)
                        spare = len(checkpoints) >= 2
                    reopen()
                else:
                    checkpoints.append(mark)
                    spare = len(checkpoints) >= 2
            elif step[0] == "crash":
                reopen()
            elif spare:  # corrupt-newest: recovery falls back to the previous
                sorted(root.glob("ckpt-*.bin"))[-1].write_bytes(b"\xff torn mid-write")
                checkpoints.pop()
                spare = False
                reopen()
        reopen()


# -- deterministic pins -----------------------------------------------------------


def fill(store, count, instance="e0"):
    handle = store.instance(instance)
    ballot = Ballot(1, N1)
    with store.group():
        for slot in range(count):
            handle.record_accept(slot, ballot, slot)
            handle.record_decide(slot, slot)


def segments(root):
    return sorted(p.name for p in Path(root).glob("wal-*.log"))


class TestCheckpointCost:
    def test_checkpoint_never_reads_the_log_back(self, tmp_path, monkeypatch):
        store = ReplicaStore(tmp_path, fsync=False)
        fill(store, 10_000)  # 20k records

        def refuse(*args, **kwargs):
            raise AssertionError("checkpoint() read the WAL back")

        monkeypatch.setattr(store_mod, "read_wal_file", refuse)
        monkeypatch.setattr(store_mod, "read_wal_bytes", refuse)
        store.checkpoint(exec_epoch=0, executed=10_000, virtual_index=10_000, app_state={})
        monkeypatch.undo()
        store.close()
        assert len(ReplicaStore(tmp_path, fsync=False).recovered.instances["e0"].decided) == 10_000

    def test_segments_live_and_die_whole(self, tmp_path):
        store = ReplicaStore(tmp_path, fsync=False)
        fill(store, 4, "e0")
        store.checkpoint(exec_epoch=0, executed=4, virtual_index=4, app_state={})
        assert segments(tmp_path) == ["wal-000001.log", "wal-000002.log"]
        fill(store, 4, "e1")
        store.checkpoint(exec_epoch=1, executed=0, virtual_index=4, app_state={})
        # The epoch-0 floor of the older kept checkpoint still holds e0.
        assert segments(tmp_path)[0] == "wal-000001.log"
        store.checkpoint(exec_epoch=1, executed=1, virtual_index=5, app_state={})
        assert segments(tmp_path) == ["wal-000002.log", "wal-000004.log"]
        assert store.status()["segments"] == 2
        snap = store.metrics.snapshot()
        assert snap["counters"]["wal.segments_retired"] == 2  # 000001 and the empty 000003
        assert snap["gauges"]["wal.segments"] == 2
        assert snap["histograms"]["wal.checkpoint_duration"]["count"] == 3

    def test_an_instance_without_an_epoch_pins_its_segment(self, tmp_path):
        store = ReplicaStore(tmp_path, fsync=False)
        fill(store, 2, "static")
        for seq in range(3):
            store.checkpoint(exec_epoch=5, executed=seq, virtual_index=seq, app_state={})
        assert "wal-000001.log" in segments(tmp_path)
        store.close()
        assert "static" in ReplicaStore(tmp_path, fsync=False).recovered.instances


class TestDurability:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """Every ``os.fsync``: (path, file size it covered, is a directory)."""
        seen = []
        real = os.fsync

        def recording(fd):
            real(fd)
            info = os.fstat(fd)
            seen.append(
                (Path(os.readlink(f"/proc/self/fd/{fd}")), info.st_size, stat.S_ISDIR(info.st_mode))
            )

        monkeypatch.setattr(os, "fsync", recording)
        return seen

    def test_deferred_frame_is_on_media_when_a_mid_window_checkpoint_returns(
        self, tmp_path, fsyncs
    ):
        store = ReplicaStore(tmp_path)
        ballot = Ballot(3, N1)
        store.begin_group()
        store.instance("e0").record_accept(0, ballot, "deferred")
        assert not any(path.name.startswith("wal-") for path, _, _ in fsyncs)
        store.checkpoint(exec_epoch=0, executed=0, virtual_index=0, app_state={})
        # A machine crash now keeps of each file only what an fsync covered.
        on_media = {}
        for path, size, is_dir in fsyncs:
            if not is_dir:
                on_media[path] = max(size, on_media.get(path, 0))
        for path in tmp_path.glob("wal-*.log"):
            with open(path, "r+b") as handle:
                handle.truncate(on_media.get(path, 0))
        survivor = ReplicaStore(tmp_path)
        assert survivor.recovered.instances["e0"].accepted[0] == (ballot, "deferred")
        store.end_group()

    def test_the_rename_is_durable_before_any_segment_is_unlinked(
        self, tmp_path, fsyncs, monkeypatch
    ):
        store = ReplicaStore(tmp_path)
        fill(store, 2, "e0")
        real_replace, real_unlink = Path.replace, Path.unlink

        def replace(self, target):
            real_replace(self, target)
            fsyncs.append("rename")

        def unlink(self, missing_ok=False):
            fsyncs.append(f"unlink {self.name}")
            real_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "replace", replace)
        monkeypatch.setattr(Path, "unlink", unlink)
        del fsyncs[:]
        store.checkpoint(exec_epoch=1, executed=0, virtual_index=2, app_state={})
        # One stream of events: fsyncs as (path, size, is a directory).
        first_unlink = fsyncs.index("unlink wal-000001.log")
        assert (tmp_path, tmp_path.stat().st_size, True) in fsyncs[
            fsyncs.index("rename"):first_unlink
        ]


class TestStaggeredCheckpoints:
    def test_first_periodic_checkpoints_of_the_members_never_coincide(self, tmp_path):
        sim = Simulator(seed=5)
        registries = {}

        def factory(node):
            registries[node] = MetricsRegistry()
            return ReplicaStore(tmp_path / node, fsync=False, metrics=registries[node])

        interval = 0.9
        service = ReplicatedService(
            sim, ["n1", "n2", "n3"], KvStateMachine,
            params=ReconfigParams(
                engine_factory=MultiPaxosEngine.factory(), checkpoint_interval=interval
            ),
            storage_factory=factory,
        )
        counter = itertools.count()
        service.make_client(
            "c0", lambda: ("set", ("k", next(counter)), 64),
            ClientParams(start_delay=0.1),
        )
        sim.run(until=2.0 * interval + 0.1)
        spans = [
            min(
                (phases["begin"], phases["retired"])
                for phases in registries[node].spans(SPAN_CHECKPOINT).values()
            )
            for node in ("n1", "n2", "n3")
        ]
        assert [begin for begin, _ in spans] == pytest.approx(
            [interval, interval * 4 / 3, interval * 5 / 3]
        )
        for (_, end), (begin, _) in zip(spans, spans[1:]):
            assert end < begin
