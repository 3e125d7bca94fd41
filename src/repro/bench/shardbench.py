"""T13 shard benchmark: aggregate throughput vs group count, plus safety.

Two measurements, written together to ``BENCH_shard.json``:

* **scale sweep** — for each group count N, a :class:`ShardedCluster` of
  N real 3-replica groups behind one shard map, driven by a single
  :class:`ShardClient` pipelining a fixed workload (the client partitions
  ops by group and drives every group from its own thread, so the groups
  commit in parallel). Reports aggregate committed ops/s, p50/p99 client
  latency, and the key spread.
* **split under load** — the ``shard`` cell of ``repro storm``: a
  drain-and-cutover split out of ``g1`` racing an add and a remove of a
  ``g1`` replica while recorded clients keep writing, with the merged
  history checked by the Wing & Gong oracle, the director's map chain
  checked for gaps and the spare checked to own a range. The benchmark
  records the verdict; a run that does not verify fails the gate
  unconditionally.

Honesty note on scaling: N groups of 3 replicas is ``3N + 1`` Python
processes (the one is the director, a single-replica metadir group) plus
the driving client. Near-linear scaling needs at least one core per
replica; on the 1- and 2-CPU containers this repo is usually built in,
every group timeslices the same cores and aggregate throughput stays
roughly flat (the sweep then measures sharding *overhead*, which has its
own floor gate). The report records ``cpus``, the headline rows of the
file it replaces as ``predecessor``, and the speedup gate arms itself
only when ``cpus >= 2 * max(group_counts)``.

Run via ``repro bench shard [--smoke] [--groups 1,2,4]``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any

from repro.metrics.report import Table
from repro.metrics.stats import percentile, summarize_throughput

#: Speedup gates only arm with enough cores to actually run groups in
#: parallel; below this the sweep degrades into an overhead measurement.
MIN_CPUS_PER_GROUP = 2


def bench_scale(
    seed: int, smoke: bool, group_counts: tuple[int, ...]
) -> dict[str, Any]:
    """Aggregate pipelined throughput through N groups, for each N."""
    from repro.shard.cluster import ShardedCluster

    ops = 240 if smoke else 1200
    warmup = 16 if smoke else 64
    window = 32
    results: dict[str, Any] = {"ops": ops, "window": window, "by_groups": {}}
    for count in group_counts:
        with ShardedCluster(count, replicas_per_group=3, seed=seed) as cluster:
            cluster.start()
            with cluster.client(f"bench-{count}") as client:
                client.submit_pipelined(
                    [("set", (f"warm-{i}", i), 64) for i in range(warmup)],
                    window=window,
                )
                workload = [
                    ("set", (f"key-{i % 256}", i), 64) for i in range(ops)
                ]
                start = time.perf_counter()
                latencies = client.submit_pipelined(workload, window=window)
                elapsed = time.perf_counter() - start
                spread = client.shard_map.spread(
                    [f"key-{i}" for i in range(256)]
                )
        ms = [lat * 1000.0 for lat in latencies]
        throughput = summarize_throughput(ops, elapsed)
        results["by_groups"][str(count)] = {
            "groups": count,
            "replicas": 3 * count,
            "elapsed_s": round(elapsed, 4),
            "ops_per_s": round(throughput.ops_per_s, 1),
            "p50_ms": round(percentile(ms, 50), 3),
            "p99_ms": round(percentile(ms, 99), 3),
            "spread": dict(sorted(spread.items())),
        }
    base = results["by_groups"][str(group_counts[0])]["ops_per_s"]
    for count in group_counts:
        row = results["by_groups"][str(count)]
        row["speedup"] = round(row["ops_per_s"] / base, 3) if base else 0.0
    return results


def bench_split(seed: int) -> dict[str, Any]:
    """Split-under-load verdict: one run of the ``shard`` storm cell."""
    from repro.net.storm import run_storm_scenario

    report = run_storm_scenario("shard", seed=seed)
    for line in report.lines():
        print(f"  {line}")
    return {
        "ok": report.ok,
        "linearizable": report.linearizable.ok,
        "checked_ops": report.linearizable.checked_ops,
        "ops_total": len(report.history),
        "ops_pending": len(report.history.pending),
        "elapsed_s": round(report.elapsed, 2),
        "errors": list(report.errors),
        "failed_checks": list(report.failed_checks),
    }


def _predecessor(out: str) -> dict[str, Any] | None:
    """Headline rows of the result file about to be replaced."""
    try:
        old = json.loads(Path(out).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    headlines = ("ops_per_s", "speedup", "p50_ms", "p99_ms")
    return {
        "cpus": old.get("cpus"),
        "by_groups": {
            count: {name: row.get(name) for name in headlines}
            for count, row in old.get("scale", {}).get("by_groups", {}).items()
        },
    }


def _render(scale: dict[str, Any], split: dict[str, Any] | None) -> None:
    table = Table(
        "T13 shard scale sweep (pipelined client, 3 replicas/group)",
        ["groups", "procs", "ops", "ops/s", "speedup", "p50 ms", "p99 ms"],
    )
    for row in scale["by_groups"].values():
        table.add_row(
            row["groups"], row["replicas"] + 1, scale["ops"],
            f"{row['ops_per_s']:.0f}", f"{row['speedup']:.2f}x",
            f"{row['p50_ms']:.2f}", f"{row['p99_ms']:.2f}",
        )
    print(table.render())
    print()
    if split is None:
        return
    verdict = "LINEARIZABLE" if split["linearizable"] else "VIOLATION"
    print(
        f"split under load: {split['checked_ops']} ops checked, {verdict}, "
        f"ok={'yes' if split['ok'] else 'NO'}"
    )
    print()


def run_shard_bench(
    smoke: bool = False,
    out: str = "BENCH_shard.json",
    seed: int = 42,
    group_counts: tuple[int, ...] | None = None,
) -> int:
    """Run the shard benchmark; returns a regression-gate exit code.

    Unconditional gates: every cell commits its full workload, the split
    stays linearizable, and sharding overhead stays bounded — aggregate
    throughput must hold a floor fraction of the single-group rate at the
    largest group count the machine can host without extreme
    oversubscription (``N <= 2 * cpus``; beyond that the cell measures
    the scheduler, so it is recorded but not gated). The *speedup* gate —
    aggregate >= half the group count — only arms when the machine has at
    least ``MIN_CPUS_PER_GROUP`` cores per group.
    """
    if group_counts is None:
        group_counts = (1, 3) if smoke else (1, 2, 4, 8)
    group_counts = tuple(sorted(set(group_counts)))
    cpus = os.cpu_count() or 1
    mode = "smoke" if smoke else "full"
    print(f"T13 shard benchmark ({mode}, seed={seed}, cpus={cpus}, "
          f"groups={','.join(map(str, group_counts))})")
    scale = bench_scale(seed, smoke, group_counts)
    split = bench_split(seed)
    _render(scale, split)

    top = max(group_counts)
    speedup_armed = cpus >= MIN_CPUS_PER_GROUP * top
    hostable = [n for n in group_counts if n <= 2 * cpus]
    gate_count = max(hostable) if hostable else min(group_counts)
    report = {
        "bench": "T13-shard",
        "mode": mode,
        "seed": seed,
        "cpus": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "group_counts": list(group_counts),
        "speedup_gate_armed": speedup_armed,
        "overhead_gate_groups": gate_count,
        "scale": scale,
        "split": split,
        "predecessor": _predecessor(out),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    overhead_floor = 0.5 if smoke else 0.8
    failures: list[str] = []
    gate_row = scale["by_groups"][str(gate_count)]
    top_row = scale["by_groups"][str(top)]
    if gate_row["speedup"] < overhead_floor:
        failures.append(
            f"{gate_count} groups run at {gate_row['speedup']:.2f}x the "
            f"single-group rate (floor {overhead_floor}x): sharding "
            f"overhead regression"
        )
    if gate_count < top:
        print(f"overhead gate applied at {gate_count} groups; counts above "
              f"2*cpus={2 * cpus} are recorded but not gated")
    if speedup_armed and top_row["speedup"] < 0.5 * top:
        failures.append(
            f"{top} groups only {top_row['speedup']:.2f}x with {cpus} cpus "
            f"(floor {0.5 * top:.1f}x)"
        )
    elif not speedup_armed:
        print(f"speedup gate not armed: {cpus} cpu(s) for {top} groups "
              f"(need >= {MIN_CPUS_PER_GROUP * top})")
    if not split["ok"]:
        failures.append(
            f"split under load did not verify (linearizable="
            f"{split['linearizable']}, failed checks {split['failed_checks']})"
        )
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0
