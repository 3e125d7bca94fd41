"""T13 — sharded service: aggregate throughput and split safety
(table T13, BENCH_shard.json).

Expected shape depends on the machine. With one core per replica the
aggregate ops/s through N groups grows with N (each group is an
independent Paxos log committed in parallel); on the 1-CPU CI containers
all groups timeslice one core, so the assertion here is the *overhead*
bound — a multi-group service must not collapse below half the
single-group rate — plus the unconditional safety bar: a split under
concurrent load keeps the merged client history linearizable.
"""

from repro.bench.shardbench import _render, bench_scale, bench_split


def test_t13_shard_scale(benchmark):
    scale = benchmark.pedantic(
        lambda: bench_scale(seed=42, smoke=True, group_counts=(1, 2)),
        rounds=1, iterations=1,
    )
    _render(scale, None)
    one = scale["by_groups"]["1"]
    two = scale["by_groups"]["2"]
    # Every cell committed its full workload and routed across groups.
    assert one["ops_per_s"] > 0 and two["ops_per_s"] > 0
    assert all(count > 0 for count in two["spread"].values())
    assert two["speedup"] > 0.5  # sharding overhead bound, not scaling


def test_t13_shard_split_linearizable(benchmark):
    split = benchmark.pedantic(
        lambda: bench_split(seed=42),
        rounds=1, iterations=1,
    )
    assert not split["failed_checks"], split["failed_checks"]
    assert split["linearizable"], "split under load must stay linearizable"
    assert split["ok"]
