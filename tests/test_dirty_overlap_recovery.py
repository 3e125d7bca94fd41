"""Crash mid-overlap: the WAL record that keeps the sealed tail alive.

Every seal re-proposes the sealed engine's still-awaiting payloads
into the next epoch, but until some acceptor durably accepts them those
payloads exist only in the sealing replica's memory. A SIGKILL in that
gap used to drop the tail silently — the replica recovered, the chain
rebuilt, and the commands it had just promised to carry were simply
gone. :class:`~repro.storage.records.WalDirtyOverlap` closes the gap:
logged at the seal, before the re-proposals, replayed by recovery.

The headline test here is the regression for exactly that crash window;
it fails on any build that does not write (or does not replay) the
record.
"""

from __future__ import annotations

from repro.apps.kvstore import KvStateMachine
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.core.reconfig import ReconfigParams, ReconfigurableReplica
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.storage.records import WalDirtyOverlap
from repro.storage.store import ReplicaStore
from repro.types import Command, CommandId, client_id, node_id


def default_params():
    return ReconfigParams(engine_factory=MultiPaxosEngine.factory())


def cmd(key, value, client="tail", seq=1):
    return Command(CommandId(client_id(client), seq), "set", (key, value), 64)


# -- store-level round trip ---------------------------------------------------

class TestStoreRoundTrip:
    def test_overlap_record_survives_reopen(self, tmp_path):
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        tail = [cmd("stranded", 7)]
        store.log_dirty_overlap(0, tail)
        store.close()

        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        assert store2.recovered.dirty_overlaps == [
            WalDirtyOverlap(0, tuple(tail))
        ]

    def test_duplicate_records_fold_first_wins(self, tmp_path):
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        store.log_dirty_overlap(2, [cmd("a", 1)])
        # A compaction crash can leave the same record twice on disk.
        store.log_dirty_overlap(2, [cmd("a", 1)])
        store.close()
        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        assert len(store2.recovered.dirty_overlaps) == 1

    def test_checkpoint_compaction_drops_executed_overlaps(self, tmp_path):
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        store.log_dirty_overlap(0, [cmd("old", 1)])
        store.log_dirty_overlap(2, [cmd("live", 2)])
        # Execution has moved to epoch 2: the epoch-0 tail fed epoch 1,
        # which is fully behind the checkpoint; the epoch-2 tail feeds
        # epoch 3 and must survive the rewrite.
        store.checkpoint(
            exec_epoch=2, executed=0, virtual_index=10, app_state={"inner": {}}
        )
        store.close()
        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        kept = store2.recovered.dirty_overlaps
        assert [r.epoch for r in kept] == [2]


# -- the regression -----------------------------------------------------------

class TestCrashMidOverlap:
    def crashed_mid_overlap(self, tmp_path, seed=21):
        """Run a dirty hand-off and 'SIGKILL' n1 at the worst instant.

        Returns the stranded command and the per-node store directories.
        The simulator is stopped at the exact event boundary where n1 has
        sealed epoch 0 and re-proposed its awaiting tail into epoch 1,
        but no acceptor has processed the re-proposal yet — the tail is
        durable nowhere except (post-fix) n1's WalDirtyOverlap record.
        """
        sim = Simulator(seed=seed)
        stores = {}

        def factory(node):
            stores[node] = ReplicaStore(tmp_path / node, fsync=False)
            return stores[node]

        service = ReplicatedService(
            sim,
            ["n1", "n2", "n3"],
            KvStateMachine,
            params=default_params(),
            storage_factory=factory,
        )
        sim.run(until=1.0)  # settle the epoch-0 election
        replica = service.replicas[node_id("n1")]
        lost = cmd("lostkey", 42)
        replica.epoch_runtime(0).engine.awaiting[lost.cid] = lost
        service.reconfigure(["n1", "n2", "n4"])
        caught = sim.run_until(
            lambda: replica.dirty_overlaps >= 1, timeout=10.0
        )
        assert caught, "the seal never fired the overlap"
        # The whole process dies here: no shutdown, no further events.
        # (The re-proposal Accepts are still queued, undelivered.)
        del sim, service, replica
        return lost, stores

    def test_recovery_replays_the_stranded_tail(self, tmp_path):
        """Pre-fix this fails: without the WAL record the revived n1 has
        no memory of the tail, 'lostkey' never executes anywhere, and the
        dirty hand-off's carry promise is silently broken."""
        lost, stores = self.crashed_mid_overlap(tmp_path)
        for store in stores.values():
            store.close()

        sim2 = Simulator(seed=5)
        revived = {}
        # Only n1 observed the seal before the crash; n2 + n3 recover
        # still in epoch 0, re-decide the reconfiguration from their
        # durable accepts, seal, and join epoch 1 — at which point n1's
        # replayed tail finally has an epoch-1 quorum to decide it. The
        # joiner n4 was never durable and stays dead.
        for node in ("n1", "n2", "n3"):
            revived[node] = ReconfigurableReplica(
                sim2,
                node_id(node),
                KvStateMachine,
                default_params(),
                initial_config=None,
                storage=ReplicaStore(tmp_path / node, fsync=False),
            )
        n1 = revived["n1"]
        # The counter came back with the record.
        assert n1.dirty_overlaps >= 1

        def lost_applied():
            return (
                n1.state is not None
                and n1.state.snapshot()["inner"].get("lostkey") == 42
            )

        done = sim2.run_until(lost_applied, timeout=30.0)
        assert done, "recovered replica dropped the dirty-overlap tail"
        assert lost.cid in n1._replies

    def test_crashed_wal_actually_holds_the_record(self, tmp_path):
        """The mechanism check behind the behavioural test: the record
        was durable at the moment of death."""
        lost, stores = self.crashed_mid_overlap(tmp_path, seed=23)
        for store in stores.values():
            store.close()
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        overlaps = store.recovered.dirty_overlaps
        assert overlaps and overlaps[0].epoch == 0
        assert any(
            getattr(p, "cid", None) == lost.cid
            for record in overlaps
            for p in record.payloads
        )
