"""T16/T17 storm benchmark: hand-off under storms, control-plane failover.

Every cell runs one seeded storm scenario. The data-plane cells
(:mod:`repro.net.storm`: overlapping RECONFIGUREs, rolling full-cluster
replacement, joins racing SIGKILL crashes) drive a live 3-replica
cluster; the sharded cells (:mod:`repro.shard.storm`: ``shard`` races a
per-group membership storm against a concurrent range move, ``director``
SIGKILLs the replicated director's driving replica between the retire
and install steps of a move) drive a full sharded cluster with a
3-replica metadir group. Each run records the two storm headline
numbers:

* **unavailability window** — the largest gap between consecutive
  acknowledged client operations during the storm (the paper's liveness
  claim, measured from the client's chair);
* **hand-off latency** — cluster-level reconfiguration span width
  (earliest ``decided`` to earliest ``first-commit`` in the new epoch),
  from the MetricsRegistry reconfiguration spans every replica already
  exports.

Each cell is ``repeats`` fresh-cluster runs and reports, per metric, the
median, min and max of the whole-run values: on a 1-CPU container a
SIGKILL respawn can eat a scheduling quantum at random, so one run is
not a measurement and the spread is part of the result.

Gate (exit code): every run of every cell is ``ok`` — linearizable,
every admin operation acknowledged, and (sharded cells) the director's
map version chain linear and gapless.

Results land in ``BENCH_storm.json`` (with the headline numbers of the
file it replaces as ``predecessor``); ``--timeline-dir`` additionally
writes each run's fault-aligned timeline (CI uploads both).

Run via ``repro bench storm [--smoke]``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any

from repro.metrics.report import Table
from repro.metrics.stats import percentile

#: the full grid sweeps every scenario; smoke samples the join-vs-crash
#: race (the SIGKILL-at-the-seal window the seal-time tail rescue exists
#: for) and the director-failover cell, the control-plane headline.
SMOKE_SCENARIOS = ("joincrash", "director")
#: per-cell headline metrics: each is one whole-run value per repeat.
HEADLINES = ("unavailability_s", "handoff_latency_mean_s", "handoff_latency_max_s")


def _spread(values: list[float | None]) -> dict[str, float] | None:
    """Nearest-rank median, min and max: each the value of an actual run."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return {
        "median": percentile(present, 50),
        "min": min(present),
        "max": max(present),
    }


def _run_cell(
    scenario: str,
    *,
    seed: int,
    repeats: int,
    timeline_dir: str | None,
) -> dict[str, Any]:
    """``repeats`` fresh-cluster runs of one scenario."""
    from repro.net.storm import run_storm_scenario

    runs: list[dict[str, Any]] = []
    for attempt in range(max(1, repeats)):
        report = run_storm_scenario(scenario, seed=seed)
        dirty_overlaps = sum(
            node.get("smr.dirty_overlaps", 0) for node in report.counters.values()
        )
        runs.append({
            "ok": report.ok,
            "linearizable": report.linearizable.ok,
            "checked_ops": report.linearizable.checked_ops,
            "reconfigs_acked": sum(1 for s in report.reconfigs if s["ok"]),
            "reconfigs_planned": len(report.plan.steps),
            "unavailability_s": report.unavailability["max_gap_s"],
            "completed_ops": report.unavailability["completed"],
            "failed_or_pending": report.unavailability["failed_or_pending"],
            "handoff_latency_mean_s": report.handoff_latency["mean_s"],
            "handoff_latency_max_s": report.handoff_latency["max_s"],
            "dirty_overlaps": dirty_overlaps,
            "elapsed_s": round(report.chaos.elapsed, 2),
        })
        if timeline_dir is not None:
            path = Path(timeline_dir)
            path.mkdir(parents=True, exist_ok=True)
            report.write_timeline(path / f"storm-{scenario}-{attempt}.json")
        for line in report.lines():
            print(f"    {line}")
    cell: dict[str, Any] = {
        "scenario": scenario,
        "seed": seed,
        "repeats": len(runs),
        "all_ok": all(run["ok"] for run in runs),
        "dirty_overlaps": sum(run["dirty_overlaps"] for run in runs),
        "runs": runs,
    }
    for metric in HEADLINES:
        cell[metric] = _spread([run[metric] for run in runs])
    return cell


def _predecessor(out: str) -> dict[str, Any] | None:
    """Headline numbers of the result file about to be replaced."""
    try:
        old = json.loads(Path(out).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return {
        "cpus": old.get("cpus"),
        "cells": {
            key: {metric: cell.get(metric) for metric in HEADLINES}
            for key, cell in old.get("cells", {}).items()
        },
    }


def _render(cells: list[dict[str, Any]]) -> None:
    table = Table(
        "T16 reconfiguration storms (median [min..max] over the repeats)",
        ["cell", "runs", "ok", "unavail s", "hand-off mean s",
         "hand-off max s", "seal-time overlaps"],
    )

    def fmt(spread: dict[str, float] | None) -> str:
        if spread is None:
            return "-"
        return f"{spread['median']:.3f} [{spread['min']:.3f}..{spread['max']:.3f}]"

    for cell in cells:
        table.add_row(
            cell["scenario"],
            cell["repeats"],
            "yes" if cell["all_ok"] else "NO",
            *(fmt(cell[metric]) for metric in HEADLINES),
            cell["dirty_overlaps"],
        )
    print(table.render())
    print()


def run_storm_bench(
    smoke: bool = False,
    out: str = "BENCH_storm.json",
    seed: int = 42,
    repeats: int = 3,
    timeline_dir: str | None = None,
) -> int:
    """Run the storm sweep; returns a gate exit code."""
    from repro.net.storm import SHARD_STORM_SCENARIOS, STORM_SCENARIOS

    mode = "smoke" if smoke else "full"
    cpus = os.cpu_count() or 1
    scenarios = (
        SMOKE_SCENARIOS if smoke else STORM_SCENARIOS + SHARD_STORM_SCENARIOS
    )
    print(f"T16 storm benchmark ({mode}, seed={seed}, cpus={cpus})")
    cells: list[dict[str, Any]] = []
    for scenario in scenarios:
        print(f"  cell {scenario}: {repeats} runs ...", flush=True)
        cells.append(_run_cell(
            scenario, seed=seed, repeats=repeats, timeline_dir=timeline_dir,
        ))
    _render(cells)

    report = {
        "bench": "T16-storm",
        "mode": mode,
        "seed": seed,
        "cpus": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "cells": {c["scenario"]: c for c in cells},
        "predecessor": _predecessor(out),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    failures = [
        f"cell {cell['scenario']} had a run that was not ok "
        "(non-linearizable history or unacknowledged RECONFIGURE)"
        for cell in cells
        if not cell["all_ok"]
    ]
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0
