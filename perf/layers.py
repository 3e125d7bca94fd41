"""The layer harness: timed calls into each layer's public functions.

Everything runs in the benchmark process, with no cluster: the numbers are
the cost of one call (or one simulated command) of each layer on this
machine, which the budget in ``perf/workloads.py`` multiplies by the call
counts the live replicas report. Each timing is the median of ``REPEATS``
repetitions of a fixed loop; counts come from the seeded simulator and
repeat exactly.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.apps.kvstore import KvStateMachine
from repro.apps.shardkv import ShardedKvStateMachine
from repro.bench.harness import run_experiment
from repro.consensus.ballot import Ballot
from repro.consensus.interface import Batch, InstanceMessage
from repro.consensus.messages import Accept, Accepted, Decide
from repro.consensus.multipaxos import PaxosParams
from repro.core.client import ClientReply, ReplyBatch, RequestBatch
from repro.core.state_transfer import SnapshotReply
from repro.core.statemachine import DedupStateMachine
from repro.net import codec
from repro.net.cluster import allocate_ports
from repro.net.transport import TcpTransport
from repro.shard.shardmap import GroupInfo, ShardMap
from repro.storage.store import ReplicaStore
from repro.types import ClientId, Command, CommandId, NodeId
from repro.workload.schedules import ReconfigStep

from perf.cluster import BATCH_DELAY_MS, BATCH_MAX, ENGINE_WINDOW
from perf.driver import value_for

REPEATS = 5

Metrics = dict[str, float]


def _median_seconds(task: Callable[[], Any], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        task()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _commands(count: int, first: int = 0) -> list[Command]:
    return [
        Command(
            CommandId(ClientId(f"perf-{i % 256}"), first + i // 256 + 1),
            "set", (f"key-{i % 256}", value_for(first + i)), 64,
        )
        for i in range(count)
    ]


# -- net.codec ----------------------------------------------------------------


def wire_mix(batch: int, first: int = 0) -> list[Any]:
    """One commit round's frames when ``batch`` commands share a slot:
    the request batch in, the accept out, two accepteds back, the decide
    out and the reply batch back to the client. Accept and Decide carry
    the same ``Batch`` object, as they do at the leader."""
    ballot = Ballot(3, NodeId("n1"))
    commands = tuple(_commands(batch, first))
    decided = Batch(commands)
    replies = tuple(ClientReply(c.cid, "ok", 0, i) for i, c in enumerate(commands))
    return [
        RequestBatch(commands, NodeId("perf")),
        InstanceMessage("e0", Accept(ballot, 7, decided)),
        InstanceMessage("e0", Accepted(ballot, 7)),
        InstanceMessage("e0", Accepted(ballot, 7)),
        InstanceMessage("e0", Decide(7, decided)),
        ReplyBatch(replies),
    ]


def codec_metrics(batch: int, loops: int) -> Metrics:
    """Encode, decode and size of a workload's wire mix, per frame.

    The codec keeps the encoded bytes of the last ``Batch`` it saw, so a
    loop over one mix would splice every batch from that memo. Two mixes
    alternate instead: each Accept encodes its batch afresh and the Decide
    after it hits the memo, which is the leader's real ratio.
    """
    sender, dest = NodeId("n1"), NodeId("n2")
    mixes = [wire_mix(batch), wire_mix(batch, first=batch)]
    frames = [[codec.encode_frame(sender, dest, p) for p in mix] for mix in mixes]
    for mix, encoded in zip(mixes, frames):
        for payload, frame in zip(mix, encoded):
            if codec.decode_frame_body(frame[4:])[2] != payload:
                raise RuntimeError(f"codec round trip changed {type(payload).__name__}")

    def encode() -> None:
        for _ in range(loops):
            for mix in mixes:
                for payload in mix:
                    codec.encode_frame(sender, dest, payload)

    def decode() -> None:
        for _ in range(loops):
            for encoded in frames:
                for frame in encoded:
                    codec.decode_frame_body(frame[4:])

    ballot = Ballot(3, sender)
    bigs = [
        InstanceMessage("e0", Accept(ballot, 7, Batch(tuple(_commands(256, first)))))
        for first in (0, 256)
    ]
    big_frames = [codec.encode_frame(sender, dest, big) for big in bigs]
    big_loops = max(1, loops // 20)

    def encode_big() -> None:
        for _ in range(big_loops):
            for big in bigs:
                codec.encode_frame(sender, dest, big)

    def decode_big() -> None:
        for _ in range(big_loops):
            for frame in big_frames:
                codec.decode_frame_body(frame[4:])

    def encode_memoised() -> None:
        for _ in range(loops):
            codec.encode_frame(sender, dest, bigs[0])

    calls = loops * 2 * len(mixes[0])
    return {
        "codec.encode_us": _median_seconds(encode) / calls * 1e6,
        "codec.decode_us": _median_seconds(decode) / calls * 1e6,
        "codec.bytes_per_msg": sum(len(f) for f in frames[0]) / len(frames[0]),
        "codec.batch256_encode_us_per_cmd":
            _median_seconds(encode_big) / (big_loops * 512) * 1e6,
        "codec.batch256_decode_us_per_cmd":
            _median_seconds(decode_big) / (big_loops * 512) * 1e6,
        "codec.memo_hit_encode_us": _median_seconds(encode_memoised) / loops * 1e6,
    }


# -- net.transport ------------------------------------------------------------


def transport_metrics(frames: int) -> Metrics:
    """Two ``TcpTransport``s in one event loop, talking over loopback."""
    return asyncio.run(_transport_loopback(frames))


async def _transport_loopback(frames: int) -> Metrics:
    a, b = NodeId("a"), NodeId("b")
    port_a, port_b = allocate_ports(2)
    book = {a: ("127.0.0.1", port_a), b: ("127.0.0.1", port_b)}
    left, right = TcpTransport(book), TcpTransport(book)
    payload = InstanceMessage("e0", Accepted(Ballot(3, a), 7))
    arrived = 0
    done = asyncio.Event()
    target = 0

    def count(_message: Any) -> None:
        nonlocal arrived
        arrived += 1
        if arrived >= target:
            done.set()

    def echo(message: Any) -> None:
        right.send(b, message.sender, message.payload)

    left.register(a, count)
    await left.start(*book[a])
    await right.start(*book[b])
    try:
        # Round trips, one frame in flight: a -> b (echo) -> a.
        right.register(b, echo)
        round_trips = max(20, frames // 20)
        target = 1
        left.send(a, b, payload)  # connects both directions
        await asyncio.wait_for(done.wait(), 10.0)
        started = time.perf_counter()
        for _ in range(round_trips):
            arrived, target = 0, 1
            done.clear()
            left.send(a, b, payload)
            await asyncio.wait_for(done.wait(), 10.0)
        rtt = (time.perf_counter() - started) / round_trips
        # One-way bursts: how many frames per second one connection moves.
        right.register(b, count)
        rates = []
        for _ in range(REPEATS):
            arrived, target = 0, frames
            done.clear()
            started = time.perf_counter()
            for _ in range(frames):
                left.send(a, b, payload)
            await asyncio.wait_for(done.wait(), 30.0)
            rates.append(frames / (time.perf_counter() - started))
    finally:
        await left.close()
        await right.close()
        # Let the accepted connections' handler tasks see the EOF and
        # return; asyncio.run would otherwise cancel them noisily.
        await asyncio.sleep(0.05)
    return {
        "transport.loopback_frames_s": statistics.median(rates),
        "transport.loopback_rtt_us": rtt * 1e6,
    }


# -- consensus.multipaxos and core.reconfig, in the simulator -------------------


def _sim_run(kind: str, ops_per_client: int, clients: int, **extra: Any) -> tuple[Any, float]:
    """One seeded simulator run; returns it and its CPU seconds per command."""
    started = time.process_time()
    run = run_experiment(
        kind, seed=7, clients=clients, ops_per_client=ops_per_client,
        read_ratio=0.0, run_for=600.0, **extra,
    )
    cpu = time.process_time() - started
    done = run.collector.count
    if done != clients * ops_per_client:
        raise RuntimeError(f"sim {kind}: {done}/{clients * ops_per_client} commands")
    return run, cpu / done


#: commands per client of the two runs whose difference is the hand-off's
#: traffic; fixed, so the exact counts compare across commits and scales.
HANDOFF_RUN_OPS = 250


def sim_metrics(ops_per_client: int) -> Metrics:
    """Three engines in ``repro.sim``: CPU per command and exact counts.

    The hand-off counts are what a seeded run of 8 x ``HANDOFF_RUN_OPS``
    commands sends beyond the same run without the one replacement.
    """
    batching = PaxosParams(
        batch_delay=BATCH_DELAY_MS / 1e3, batch_max=BATCH_MAX, window=ENGINE_WINDOW
    )
    raw, raw_cpu = _sim_run("raw-static", ops_per_client, 8)
    _, batched_cpu = _sim_run(
        "raw-static", ops_per_client // 4, 64, engine_params=batching
    )
    _, plain_cpu = _sim_run("speculative", ops_per_client, 8)
    still, _ = _sim_run("speculative", HANDOFF_RUN_OPS, 8)
    moved, _ = _sim_run(
        "speculative", HANDOFF_RUN_OPS, 8,
        schedule=[ReconfigStep(0.32, ("n2", "n3", "n4"))],  # just past warm-up
    )
    before, after = still.sim.network.stats, moved.sim.network.stats
    return {
        "paxos.sim_cpu_us_per_cmd": raw_cpu * 1e6,
        "paxos.sim_cpu_us_per_cmd_batched": batched_cpu * 1e6,
        "paxos.sim_msgs_per_cmd": raw.messages_per_op(),
        "reconfig.sim_cpu_us_per_cmd": plain_cpu * 1e6,
        "reconfig.overhead_ratio": plain_cpu / raw_cpu,
        "reconfig.sim_msgs_per_handoff": after.messages_sent - before.messages_sent,
        "reconfig.sim_bytes_per_handoff": after.bytes_sent - before.bytes_sent,
    }


# -- core.state_transfer, core.statemachine, apps, shard.shardmap ----------------


def state_metrics(applies: int, state_bytes: int = 2_000_000) -> Metrics:
    machine = DedupStateMachine(KvStateMachine())
    chunk = 1024
    for command in _commands(256):
        machine.apply(command)
    for i in range(state_bytes // chunk):
        machine.inner.apply(Command(CommandId(ClientId("fill"), i), "set",
                                    (f"state-{i}", "x" * chunk), chunk))
    encoded = b""

    def encode() -> None:
        nonlocal encoded
        snapshot = machine.snapshot()
        encoded = codec.encode_payload(
            SnapshotReply(3, snapshot, machine.snapshot_bytes())
        )

    def decode() -> None:
        reply = codec.decode_payload(encoded)
        DedupStateMachine(KvStateMachine()).restore(reply.snapshot)

    encode_s = _median_seconds(encode)
    megabytes = len(encoded) / 1e6
    decode_s = _median_seconds(decode)

    def apply_to(target: Any) -> Callable[[], None]:
        batches = [_commands(applies, first=r * applies) for r in range(REPEATS)]

        def task() -> None:
            for command in batches.pop():
                target.apply(command)
        return task

    sharded = ShardedKvStateMachine()
    shard_map = ShardMap.initial(
        GroupInfo(f"g{i}", ("n1", "n2", "n3"), {}) for i in range(8)
    )
    keys = [f"key-{i}" for i in range(256)]

    def lookups() -> None:
        for _ in range(max(1, applies // 256)):
            for key in keys:
                shard_map.group_for_key(key)

    return {
        "transfer.snapshot_encode_ms_per_mb": encode_s * 1e3 / megabytes,
        "transfer.snapshot_decode_ms_per_mb": decode_s * 1e3 / megabytes,
        "statemachine.apply_us": _median_seconds(apply_to(machine)) / applies * 1e6,
        "shardkv.apply_us": _median_seconds(apply_to(sharded)) / applies * 1e6,
        "shardmap.lookup_us":
            _median_seconds(lookups) / (max(1, applies // 256) * 256) * 1e6,
    }


# -- storage.wal and storage.store ----------------------------------------------


def _fill(store: ReplicaStore, records: int) -> None:
    """``records`` accept+decide pairs of one instance, under one fsync."""
    handle = store.instance("e0")
    ballot = Ballot(1, NodeId("n1"))
    with store.group():
        for slot, command in enumerate(_commands(records)):
            value = Batch((command,))
            handle.record_accept(slot, ballot, value)
            handle.record_decide(slot, value)


def storage_metrics(out_dir: Path, scale: float) -> Metrics:
    """A ``ReplicaStore`` with fsync on, in a temporary directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="store-", dir=out_dir))
    try:
        return _storage_metrics(root, scale)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _storage_metrics(root: Path, scale: float) -> Metrics:
    ballot = Ballot(1, NodeId("n1"))
    appends = max(64, int(2000 * scale))
    values = [Batch((command,)) for command in _commands(256)]
    store = ReplicaStore(root / "wal")
    handle = store.instance("e0")
    slot = 0

    def append_deferred() -> None:
        nonlocal slot
        with store.group():
            for _ in range(appends):
                handle.record_accept(slot, ballot, values[slot % len(values)])
                slot += 1

    def append_synced() -> None:
        nonlocal slot
        handle.record_accept(slot, ballot, values[slot % len(values)])
        slot += 1

    def group_of_64() -> None:
        nonlocal slot
        with store.group():
            for _ in range(64):
                handle.record_accept(slot, ballot, values[slot % len(values)])
                slot += 1

    fsync_s = _median_seconds(append_synced, repeats=max(REPEATS, int(40 * scale)))
    group_s = _median_seconds(group_of_64)
    # The deferred loop ends in one fsync; take it out to leave the append.
    append_s = max(0.0, _median_seconds(append_deferred) - fsync_s) / appends
    store.close()

    metrics: Metrics = {
        "wal.append_us": append_s * 1e6,
        "wal.fsync_ms": fsync_s * 1e3,
        "wal.group64_us_per_record": group_s / 64 * 1e6,
    }
    for label, records in (("10k", int(10_000 * scale)), ("100k", int(100_000 * scale))):
        directory = root / label
        store = ReplicaStore(directory)
        _fill(store, records)
        store.close()
        started = time.perf_counter()
        store = ReplicaStore(directory)
        recover_s = time.perf_counter() - started
        if store.recovered.records != 2 * records:
            raise RuntimeError(f"recovered {store.recovered.records} records")
        started = time.perf_counter()
        store.checkpoint(
            exec_epoch=0, executed=records, virtual_index=records,
            app_state={"inner": {}, "applied": {}},
        )
        metrics[f"store.checkpoint_ms_{label}"] = (time.perf_counter() - started) * 1e3
        store.close()
        if label == "100k":
            metrics["store.recover_ms_100k"] = recover_s * 1e3
    return metrics


def measure_layers(out_dir: Path, batch: int = 1, scale: float = 1.0) -> Metrics:
    """Every harness metric; ``batch`` is the workload's commands per slot
    (shapes the codec mix), ``scale`` shrinks loop counts for smoke runs."""
    loops = max(2, int(300 * scale / max(1, batch // 8)))
    metrics: Metrics = {}
    metrics.update(codec_metrics(max(1, min(batch, 256)), loops))
    metrics.update(transport_metrics(max(200, int(4000 * scale))))
    metrics.update(sim_metrics(max(100, int(250 * scale))))
    metrics.update(state_metrics(max(256, int(20_000 * scale))))
    metrics.update(storage_metrics(out_dir, scale))
    return metrics
