"""Every metric the benchmark prints: name, unit, which way is better.

``BENCHMARK.json`` lists the same names (a test holds the two together);
later issues cite them, so they are stable. A per-layer metric that has no
samples on a workload (a hand-off span on a workload that never
reconfigures) is printed as 0.
"""

from __future__ import annotations

#: printed by every workload with ``--trace 0``; each has a bound in
#: ``BENCHMARK.json``.
END_TO_END: list[tuple[str, str, str]] = [
    ("ops_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
]

#: what a user sees too, but filed per-layer (no bound) in the flat
#: contract, which wants every end-to-end metric on every workload, never
#: 0, and steady: ``p99_ms`` does not repeat within a quarter on this box
#: (perf/CALIBRATION.json), ``failed_frac`` is 0, the rest exist on one
#: workload only.
WORKLOAD_END_TO_END: list[tuple[str, str, str]] = [
    ("p99_ms", "ms", "lower"),
    ("failed_frac", "1", "lower"),
    ("handoff_gap_p50_ms", "ms", "lower"),
    ("handoff_gap_max_ms", "ms", "lower"),
    ("reconfig_ack_p50_ms", "ms", "lower"),
    ("catchup_s", "s", "lower"),
    ("paced.lateness_p99_ms", "ms", "lower"),
]

#: timed calls into each layer's public functions (``perf/layers.py``).
HARNESS: list[tuple[str, str, str]] = [
    ("codec.encode_us", "us", "lower"),
    ("codec.decode_us", "us", "lower"),
    ("codec.bytes_per_msg", "B", "lower"),
    ("codec.batch256_encode_us_per_cmd", "us", "lower"),
    ("codec.batch256_decode_us_per_cmd", "us", "lower"),
    ("codec.memo_hit_encode_us", "us", "lower"),
    ("transport.loopback_frames_s", "1/s", "higher"),
    ("transport.loopback_rtt_us", "us", "lower"),
    ("paxos.sim_cpu_us_per_cmd", "us", "lower"),
    ("paxos.sim_cpu_us_per_cmd_batched", "us", "lower"),
    ("paxos.sim_msgs_per_cmd", "count", "lower"),
    ("reconfig.sim_cpu_us_per_cmd", "us", "lower"),
    ("reconfig.overhead_ratio", "1", "lower"),
    ("reconfig.sim_msgs_per_handoff", "count", "lower"),
    ("reconfig.sim_bytes_per_handoff", "B", "lower"),
    ("transfer.snapshot_encode_ms_per_mb", "ms", "lower"),
    ("transfer.snapshot_decode_ms_per_mb", "ms", "lower"),
    ("statemachine.apply_us", "us", "lower"),
    ("shardkv.apply_us", "us", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.fsync_ms", "ms", "lower"),
    ("wal.group64_us_per_record", "us", "lower"),
    ("store.checkpoint_ms_10k", "ms", "lower"),
    ("store.checkpoint_ms_100k", "ms", "lower"),
    ("store.recover_ms_100k", "ms", "lower"),
    ("shardmap.lookup_us", "us", "lower"),
]

#: read from ``#metrics`` and ``/proc/<pid>`` around a workload's run.
OBSERVED: list[tuple[str, str, str]] = [
    ("net.frames_per_op", "count", "lower"),
    ("net.bytes_per_op", "B", "lower"),
    ("net.frames_per_flush", "count", "higher"),
    ("net.frames_dropped", "count", "lower"),
    ("net.reconnects", "count", "lower"),
    ("net.queue_depth_max", "count", "lower"),
    ("paxos.slots_per_op", "count", "lower"),
    ("paxos.accepts_per_op", "count", "lower"),
    ("paxos.batch_mean", "count", "higher"),
    ("paxos.elections", "count", "lower"),
    ("paxos.campaigns", "count", "lower"),
    ("reconfig.decided_to_cut_ms", "ms", "lower"),
    ("reconfig.cut_to_transfer_ms", "ms", "lower"),
    ("reconfig.transfer_to_first_commit_ms", "ms", "lower"),
    ("reconfig.handoff_ms", "ms", "lower"),
    ("smr.exec_lag_p50_ms", "ms", "lower"),
    ("smr.exec_lag_p99_ms", "ms", "lower"),
    ("smr.lease_read_frac", "1", "higher"),
    ("smr.orphans", "count", "lower"),
    ("wal.fsyncs_per_op", "count", "lower"),
    ("wal.appends_per_op", "count", "lower"),
    ("wal.bytes_per_op", "B", "lower"),
    ("wal.group_commit_mean", "count", "higher"),
    ("wal.checkpoints", "count", "lower"),
    ("recovery.duration_s", "s", "lower"),
    ("recovery.replayed_records", "count", "lower"),
    ("proc.leader_cpu_s_per_kop", "s", "lower"),
    ("proc.follower_cpu_s_per_kop", "s", "lower"),
    ("proc.client_cpu_s_per_kop", "s", "lower"),
    ("proc.leader_rss_mb", "MB", "lower"),
]

#: from the traced pass and the budget that joins counters to the harness.
TRACED: list[tuple[str, str, str]] = [
    ("client.encode_frac", "1", "lower"),
    ("client.send_frac", "1", "lower"),
    ("client.wait_frac", "1", "higher"),
    ("client.decode_frac", "1", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("budget.explained_frac", "1", "higher"),
]

PER_LAYER = WORKLOAD_END_TO_END + HARNESS + OBSERVED + TRACED

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
