"""Crash recovery from WAL + checkpoints: the durability acceptance tests.

Everything here runs in the deterministic simulator (or against bare
engine objects) with a real on-disk :class:`ReplicaStore` per node —
"crash" means dropping the in-memory objects and rebuilding them from the
directory, exactly what a SIGKILLed process leaves behind.
"""

from __future__ import annotations

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.consensus import messages as m
from repro.consensus.ballot import Ballot
from repro.consensus.interface import StaticSmrHost
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.consensus.synod import SynodAccept, SynodAccepted, SynodNack, SynodPrepare, SynodAcceptor
from repro.core.client import ClientParams
from repro.core.reconfig import ReconfigParams, ReconfigurableReplica
from repro.core.service import ReplicatedService
from repro.core.statemachine import DedupStateMachine
from repro.errors import RecoveryError
from repro.net import codec
from repro.net.runtime import LiveRuntime
from repro.net.transport import TcpTransport
from repro.sim.runner import Simulator
from repro.storage.store import ReplicaStore
from repro.storage.records import WalPromise
from repro.storage.wal import WalWriter, read_wal_file
from repro.types import Command, CommandId, Configuration, Membership, client_id, node_id


def cmd(seq, client="c", op="set", args=("k", 1)):
    return Command(CommandId(client_id(client), seq), op, args)


class DurableStaticHost(StaticSmrHost):
    """StaticSmrHost with a durable store the engine discovers via
    ``transport.durability`` (set before the base constructor builds the
    engine, mirroring how ReconfigurableReplica orders it)."""

    def __init__(self, sim, node, membership, engine_factory, store):
        self.storage = store
        super().__init__(sim, node, membership, engine_factory)


def make_durable_host(tmp_path, seed=1, node="n2"):
    sim = Simulator(seed=seed)
    members = Membership.from_iter(["n1", "n2", "n3"])
    store = ReplicaStore(tmp_path / node, fsync=False)
    host = DurableStaticHost(
        sim, node_id(node), members, MultiPaxosEngine.factory(), store
    )
    return sim, host, store


# -- the headline acceptance criterion ---------------------------------------

class TestPromiseSurvivesCrash:
    def test_recovered_acceptor_never_accepts_below_its_promise(self, tmp_path):
        """SIGKILL a replica right after it sends a Promise; after restart
        with recovery it must still refuse any lower-ballot Accept."""
        high = Ballot(5, node_id("n9"))
        sim, host, store = make_durable_host(tmp_path, seed=1)
        host.engine.on_message(m.Prepare(high, 0), node_id("n9"))
        assert host.engine.promised == high  # promise sent...
        del sim, host, store  # ...and the process dies (no shutdown)

        sim2, revived, _ = make_durable_host(tmp_path, seed=2)
        assert revived.engine.promised == high
        low = Ballot(3, node_id("n8"))
        revived.engine.on_message(m.Accept(low, 0, "usurper"), node_id("n8"))
        assert 0 not in revived.engine.accepted
        assert revived.engine.promised == high

    def test_amnesiac_restart_does_accept_the_lower_ballot(self, tmp_path):
        """The control arm: without recovery the same schedule violates
        the promise — which is exactly why the WAL exists."""
        high = Ballot(5, node_id("n9"))
        sim, host, _ = make_durable_host(tmp_path, seed=1)
        host.engine.on_message(m.Prepare(high, 0), node_id("n9"))
        assert host.engine.promised == high

        sim2 = Simulator(seed=2)
        members = Membership.from_iter(["n1", "n2", "n3"])
        amnesiac = StaticSmrHost(
            sim2, node_id("n2"), members, MultiPaxosEngine.factory()
        )
        low = Ballot(3, node_id("n8"))
        amnesiac.engine.on_message(m.Accept(low, 0, "usurper"), node_id("n8"))
        assert amnesiac.engine.accepted[0] == (low, "usurper")

    def test_accepted_value_survives_and_is_reported_to_new_leader(self, tmp_path):
        ballot = Ballot(5, node_id("n9"))
        value = cmd(1)
        sim, host, _ = make_durable_host(tmp_path, seed=3)
        host.engine.on_message(m.Prepare(ballot, 0), node_id("n9"))
        host.engine.on_message(m.Accept(ballot, 7, value), node_id("n9"))
        assert host.engine.accepted[7] == (ballot, value)

        _, revived, _ = make_durable_host(tmp_path, seed=4)
        assert revived.engine.accepted[7] == (ballot, value)
        # An accept implies the promise even if the Promise record itself
        # never made it: a lower-ballot Prepare must be refused.
        revived.engine.on_message(m.Prepare(Ballot(4, node_id("n8")), 0), node_id("n8"))
        assert revived.engine.promised == ballot


class TestSynodDurability:
    def test_synod_acceptor_state_survives_rebuild(self, tmp_path):
        store = ReplicaStore(tmp_path / "a1", fsync=False)
        acceptor = SynodAcceptor(node_id("a1"), store.instance("synod"))
        assert not isinstance(
            acceptor.on_prepare(SynodPrepare(Ballot(5, node_id("n9")))), SynodNack
        )
        out = acceptor.on_accept(SynodAccept(Ballot(6, node_id("n9")), "v6"))
        assert isinstance(out, SynodAccepted)

        store2 = ReplicaStore(tmp_path / "a1", fsync=False)
        revived = SynodAcceptor(node_id("a1"), store2.instance("synod"))
        assert revived.promised == Ballot(6, node_id("n9"))
        assert revived.accepted_value == "v6"
        out = revived.on_accept(SynodAccept(Ballot(2, node_id("n8")), "low"))
        assert isinstance(out, SynodNack)
        assert revived.accepted_value == "v6"
        granted = revived.on_prepare(SynodPrepare(Ballot(9, node_id("n1"))))
        assert granted.accepted_ballot == Ballot(6, node_id("n9"))
        assert granted.accepted_value == "v6"


# -- torn tails on real files -------------------------------------------------

class TestTornFiles:
    def test_read_wal_file_truncates_torn_tail_in_place(self, tmp_path):
        path = tmp_path / "wal-000000.log"
        writer = WalWriter(path, fsync=False)
        records = [WalPromise("e0", Ballot(i + 1, node_id("n1"))) for i in range(3)]
        for record in records:
            writer.append(record)
        writer.close()
        clean_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01torn!")  # a partial frame the crash left

        got, torn = read_wal_file(path)
        assert got == records
        assert torn == 7
        assert path.stat().st_size == clean_size
        # And the store counts the damage when it loads the directory.
        store = ReplicaStore(tmp_path, fsync=False)
        assert store.recovered.torn_bytes == 0  # already repaired above
        assert [r for r in (store.recovered.instances.get("e0"),) if r][0].promised == Ballot(3, node_id("n1"))

    def test_store_reports_torn_bytes_it_repaired(self, tmp_path):
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        store.append(WalPromise("e0", Ballot(4, node_id("n2"))))
        store.close()
        wal = next((tmp_path / "n1").glob("wal-*.log"))
        with open(wal, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef")

        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        assert store2.recovered.torn_bytes == 4
        assert store2.recovered.instances["e0"].promised == Ballot(4, node_id("n2"))


# -- full-replica recovery ----------------------------------------------------

def run_durable_service(tmp_path, sim, *, n_ops=40, reconfigs=(), until=30.0):
    stores = {}

    def factory(node):
        stores[node] = ReplicaStore(tmp_path / node, fsync=False)
        return stores[node]

    service = ReplicatedService(
        sim, ["n1", "n2", "n3"], KvStateMachine, storage_factory=factory
    )
    budget = [n_ops]
    rng = sim.rng.fork("durable-client")

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        key = f"k{rng.randint(0, 9)}"
        if rng.random() < 0.4:
            return ("get", (key,), 32)
        return ("set", (key, budget[0]), 64)

    client = service.make_client(
        "c0", ops, ClientParams(start_delay=0.2, request_timeout=0.5)
    )
    for at, members in reconfigs:
        service.reconfigure_at(at, list(members))
    finished = sim.run_until(lambda: client.finished, timeout=until)
    assert finished
    if reconfigs:
        settle = max(at for at, _ in reconfigs) + 1.5
        if settle > sim.now:
            sim.run(until=settle)
    return service, stores


class TestReplicaRecovery:
    def test_recovery_is_bit_identical_to_the_surviving_replica(self, tmp_path):
        """Acceptance criterion: checkpoint+WAL recovery restores the app
        state machine bit-identically (same codec bytes) to a replica that
        never crashed, at the same commit index."""
        sim = Simulator(seed=7)
        service, _ = run_durable_service(tmp_path, sim, n_ops=40)
        survivor = service.replicas[node_id("n1")]
        assert survivor.state is not None
        reference = codec.encode_payload(survivor.state.snapshot())
        ref_vindex = survivor.virtual_index
        assert ref_vindex > 0

        sim2 = Simulator(seed=99)
        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        revived = ReconfigurableReplica(
            sim2,
            node_id("n1"),
            KvStateMachine,
            service.params,
            initial_config=None,
            storage=store2,
        )
        assert revived.state is not None
        assert revived.virtual_index == ref_vindex
        assert codec.encode_payload(revived.state.snapshot()) == reference

    def test_recovery_across_reconfigurations(self, tmp_path):
        """Epoch-open records rebuild the chain across reconfigs; the
        boundary checkpoint written at each seal pins the frontier."""
        sim = Simulator(seed=11)
        service, stores = run_durable_service(
            tmp_path, sim, n_ops=40, reconfigs=[(1.0, ("n1", "n2", "n4"))]
        )
        survivor = service.replicas[node_id("n1")]
        assert survivor.exec_epoch >= 1
        reference = codec.encode_payload(survivor.state.snapshot())

        sim2 = Simulator(seed=5)
        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        revived = ReconfigurableReplica(
            sim2,
            node_id("n1"),
            KvStateMachine,
            service.params,
            initial_config=None,
            storage=store2,
        )
        assert revived.exec_epoch == survivor.exec_epoch
        assert revived.newest_epoch == survivor.newest_epoch
        assert revived.virtual_index == survivor.virtual_index
        assert codec.encode_payload(revived.state.snapshot()) == reference
        # the recovery span recorded all three phases
        from repro.metrics.registry import SPAN_RECOVERY, metrics_of

        spans = metrics_of(sim2).spans(SPAN_RECOVERY)
        assert spans, "recovery emitted no span"
        for phases in spans.values():
            assert {"begin", "replayed", "rejoined"} <= set(phases)

    def test_boundary_checkpoint_compacts_retired_epochs(self, tmp_path):
        """After a reconfiguration seals epoch 0, the boundary checkpoint
        drops epoch-0 acceptor state from the WAL entirely — silence is
        safe, only amnesia is dangerous."""
        sim = Simulator(seed=13)
        service, stores = run_durable_service(
            tmp_path, sim, n_ops=30, reconfigs=[(1.0, ("n1", "n2", "n3", "n4"))]
        )
        assert service.replicas[node_id("n1")].exec_epoch >= 1

        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        assert store2.recovered.checkpoint is not None
        assert store2.recovered.checkpoint.exec_epoch >= 1
        assert "e0" not in store2.recovered.instances
        # epoch 1 (the live epoch) keeps its decided log from slot 0
        assert any(e.config.epoch >= 1 for e in store2.recovered.epochs)

    def test_checkpoint_retention_keeps_two(self, tmp_path):
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        for i in range(4):
            store.checkpoint(
                exec_epoch=0, executed=i, virtual_index=i, app_state={"i": i}
            )
        ckpts = sorted((tmp_path / "n1").glob("ckpt-*.bin"))
        assert len(ckpts) == 2
        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        assert store2.recovered.checkpoint.virtual_index == 3

    def test_corrupt_newest_checkpoint_falls_back_to_previous(self, tmp_path):
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        store.checkpoint(exec_epoch=0, executed=1, virtual_index=1, app_state={"i": 1})
        store.checkpoint(exec_epoch=0, executed=2, virtual_index=2, app_state={"i": 2})
        newest = sorted((tmp_path / "n1").glob("ckpt-*.bin"))[-1]
        newest.write_bytes(b"\xff corrupted mid-write")

        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        assert store2.recovered.checkpoint is not None
        assert store2.recovered.checkpoint.virtual_index == 1

    @staticmethod
    def revive(runtime, node, tmp_path, initial_config=None):
        """Boot ``node`` on ``runtime`` from its data directory."""
        return ReconfigurableReplica(
            runtime, node_id(node), KvStateMachine,
            ReconfigParams(engine_factory=MultiPaxosEngine.factory()),
            initial_config=initial_config,
            storage=ReplicaStore(tmp_path / node, fsync=False),
        )

    def cross_epoch_store(self, tmp_path):
        """A replica that checkpointed in epoch 0, then at the 0 -> 1
        boundary: the two kept checkpoints sit one epoch apart."""
        members = Membership.from_iter(["n1", "n2", "n3"])
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        store.log_epoch_open(Configuration(0, members), None)
        ballot = Ballot(1, node_id("n1"))
        store.instance("e0").record_accept(0, ballot, cmd(1))
        store.instance("e0").record_decide(0, cmd(1))
        snapshot = DedupStateMachine(KvStateMachine()).snapshot()
        store.checkpoint(exec_epoch=0, executed=0, virtual_index=0, app_state=snapshot)
        store.log_epoch_open(Configuration(1, members), members)
        store.instance("e1").record_promise(ballot)
        store.checkpoint(exec_epoch=1, executed=0, virtual_index=1, app_state=snapshot)
        store.close()
        return sorted((tmp_path / "n1").glob("ckpt-*.bin"))

    def test_corrupt_newest_checkpoint_falls_back_across_an_epoch(self, tmp_path):
        """The fallback checkpoint must still find its epoch's open record
        and acceptor state: segments are retired against the floor of the
        oldest checkpoint kept, not the newest."""
        _, newest = self.cross_epoch_store(tmp_path)
        newest.write_bytes(b"\xff corrupted mid-write")

        store2 = ReplicaStore(tmp_path / "n1", fsync=False)
        assert store2.recovered.checkpoint.exec_epoch == 0
        assert [eo.config.epoch for eo in store2.recovered.epochs] == [0, 1]
        assert store2.recovered.instances["e0"].decided == {0: cmd(1)}
        store2.close()
        revived = self.revive(Simulator(seed=1), "n1", tmp_path)
        assert revived.newest_epoch == 1
        assert revived.virtual_index == 1  # replayed epoch 0's decided slot

    def test_a_store_no_chain_can_be_built_from_refuses_to_boot(self, tmp_path):
        """Both kept checkpoints unreadable is not an empty directory: a
        cold boot over durable acceptor state would be amnesia."""
        store = ReplicaStore(tmp_path / "n1", fsync=False)
        store.checkpoint(exec_epoch=3, executed=0, virtual_index=9, app_state={})
        store.close()
        members = Membership.from_iter(["n1", "n2", "n3"])
        with pytest.raises(RecoveryError, match="epoch 3"):
            self.revive(Simulator(seed=1), "n1", tmp_path, Configuration(0, members))

    def test_recovery_with_a_pending_transfer_waits_for_the_transport(self, tmp_path):
        """The known boot crash: a replica that joined epoch 1 and died
        before its boundary snapshot landed recovers with a transfer to
        resume. The first request used to leave from the constructor,
        before the live transport had an event loop to send on."""
        store = ReplicaStore(tmp_path / "n4", fsync=False)
        store.log_epoch_open(
            Configuration(1, Membership.from_iter(["n2", "n3", "n4"])),
            Membership.from_iter(["n1", "n2", "n3"]),
        )
        store.close()
        book = {node_id(n): ("127.0.0.1", 1) for n in ("n1", "n2", "n3", "n4")}
        runtime = LiveRuntime(TcpTransport(book))
        try:
            revived = self.revive(runtime, "n4", tmp_path)
            assert revived.transfer.task is not None and revived.transfer.task.attempts == 0
        finally:
            runtime._loop.close()

        # In the simulator the resumed transfer leaves with on_start.
        sim = Simulator(seed=2)
        revived = self.revive(sim, "n4", tmp_path)
        assert revived.transfer.task.attempts == 0
        sim.run(until=0.01)
        assert revived.transfer.task.attempts == 1

    def test_empty_data_dir_falls_back_to_cold_boot(self, tmp_path):
        sim = Simulator(seed=3)
        stores = {}

        def factory(node):
            stores[node] = ReplicaStore(tmp_path / node, fsync=False)
            return stores[node]

        service = ReplicatedService(
            sim, ["n1", "n2", "n3"], KvStateMachine, storage_factory=factory
        )
        sim.run(until=0.5)
        replica = service.replicas[node_id("n1")]
        assert replica.newest_epoch == 0
        assert not replica.crashed
