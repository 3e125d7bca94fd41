"""T16/T17 storm benchmark: hand-off modes and control-plane failover.

Every cell runs one seeded storm scenario once per ``--handoff`` mode.
The data-plane cells (:mod:`repro.net.storm`: overlapping RECONFIGUREs,
rolling full-cluster replacement, joins racing SIGKILL crashes) drive a
live 3-replica cluster; the sharded cells (:mod:`repro.shard.storm`:
``shard`` races a per-group membership storm against a concurrent range
move, ``director`` SIGKILLs the replicated director's driving replica
between the retire and install steps of a move) drive a full sharded
cluster with a 3-replica metadir group. Each run records the two storm
headline numbers:

* **unavailability window** — the largest gap between consecutive
  acknowledged client operations during the storm (the paper's liveness
  claim, measured from the client's chair);
* **hand-off latency** — cluster-level reconfiguration span width
  (earliest ``decided`` to earliest ``first-commit`` in the new epoch),
  from the MetricsRegistry reconfiguration spans every replica already
  exports.

Each cell is best-of-``repeats`` fresh-cluster runs (min unavailability,
min hand-off latency): on a 1-CPU container a SIGKILL respawn can eat a
scheduling quantum at random, and the *achievable* window is what the
modes are being compared on. Every constituent run must still pass the
Wing–Gong oracle — a fast-but-wrong run fails the whole bench.

Gates (exit code):

* every run of every cell is ``ok`` — linearizable, every admin
  operation acknowledged, and (sharded cells) the director's map
  version chain linear and gapless;
* on ``GATE_SCENARIOS`` (``joincrash``), dirty-cut unavailability must
  not exceed clean-cut by more than one failover episode
  (``GATE_TOLERANCE_S``) — the gate catches a *broken* dirty cut
  (stalled hand-offs, never-recovering transfers), not run-to-run
  scheduler noise; the measured comparison lives in the full-grid
  ``BENCH_storm.json`` and EXPERIMENTS T16. The ``director`` smoke
  cell is excluded from the delta gate: its window is dominated by the
  control-plane failover (hold + takeover), identical in both
  data-plane hand-off modes.

Results land in ``BENCH_storm.json``; ``--timeline-dir`` additionally
writes each cell's fault-aligned timeline (CI uploads both).

Run via ``repro bench storm [--smoke]``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any

from repro.metrics import Table

#: the full grid sweeps every scenario (data-plane storms plus the
#: sharded cells); smoke samples the join-vs-crash race — the cell whose
#: SIGKILL-at-the-seal window is the one the dirty hand-off exists
#: for — and the director-failover cell, the control-plane headline.
SMOKE_SCENARIOS = ("joincrash", "director")
#: the clean-vs-dirty unavailability delta gate only applies here: the
#: director cell's window is dominated by the control-plane failover
#: (hold + takeover), which is identical under both data-plane hand-off
#: modes, so a delta there measures scheduler noise, not the hand-off.
GATE_SCENARIOS = ("joincrash",)
HANDOFFS = ("clean", "dirty")
#: unavailability-gate tolerance, seconds: one client retry episode.
#: Both hand-off modes share the same noise spikes — a leader
#: re-election or a retry after a redirect to a just-killed node costs
#: up to one ``request_timeout`` (0.5s) whichever mode is active, and
#: whether a given run pays one is scheduler luck (measured spread on
#: the joincrash cell spans 0.02s..0.51s for *both* modes across
#: sessions). Best-of-repeats absorbs most of it; the tolerance absorbs
#: the rest, so the gate trips on a dirty cut that is *structurally*
#: worse — a stalled hand-off or unserved transfer parks the window at
#: seconds, far past one retry — not on which mode drew the unlucky run.
GATE_TOLERANCE_S = 0.5


def _run_cell(
    scenario: str,
    handoff: str,
    *,
    seed: int,
    repeats: int,
    timeline_dir: str | None,
) -> dict[str, Any]:
    """Best-of-``repeats`` fresh-cluster runs of one (scenario, handoff)."""
    from repro.net.storm import run_storm_scenario

    runs: list[dict[str, Any]] = []
    best = None
    for attempt in range(max(1, repeats)):
        report = run_storm_scenario(scenario, seed=seed, handoff=handoff)
        dirty_overlaps = sum(
            node.get("smr.dirty_overlaps", 0) for node in report.counters.values()
        )
        run = {
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
        }
        runs.append(run)
        if best is None or (
            run["ok"]
            and (not best["ok"]
                 or run["unavailability_s"] < best["unavailability_s"])
        ):
            best = run
        if timeline_dir is not None:
            path = Path(timeline_dir)
            path.mkdir(parents=True, exist_ok=True)
            report.write_timeline(
                path / f"storm-{scenario}-{handoff}-{attempt}.json"
            )
        for line in report.lines():
            print(f"    {line}")
    assert best is not None
    return {
        "scenario": scenario,
        "handoff": handoff,
        "seed": seed,
        "repeats": len(runs),
        "all_ok": all(run["ok"] for run in runs),
        # the cell headline: best achieved across repeats.
        "unavailability_s": min(run["unavailability_s"] for run in runs),
        "handoff_latency_mean_s": best["handoff_latency_mean_s"],
        "handoff_latency_max_s": min(
            (run["handoff_latency_max_s"] for run in runs
             if run["handoff_latency_max_s"] is not None),
            default=None,
        ),
        "dirty_overlaps": sum(run["dirty_overlaps"] for run in runs),
        "runs": runs,
    }


def _render(cells: list[dict[str, Any]]) -> None:
    table = Table(
        "T16 reconfiguration storms: clean vs dirty hand-off",
        ["cell", "runs", "ok", "unavail s", "hand-off mean s",
         "hand-off max s", "dirty overlaps"],
    )
    for cell in cells:
        hl_mean = cell["handoff_latency_mean_s"]
        hl_max = cell["handoff_latency_max_s"]
        table.add_row(
            f"{cell['scenario']}/{cell['handoff']}",
            cell["repeats"],
            "yes" if cell["all_ok"] else "NO",
            f"{cell['unavailability_s']:.3f}",
            f"{hl_mean:.3f}" if hl_mean is not None else "-",
            f"{hl_max:.3f}" if hl_max is not None else "-",
            cell["dirty_overlaps"],
        )
    print(table.render())
    print()


def run_storm_bench(
    smoke: bool = False,
    out: str = "BENCH_storm.json",
    seed: int = 42,
    repeats: int | None = None,
    timeline_dir: str | None = None,
) -> int:
    """Run the storm sweep; returns a gate exit code."""
    from repro.net.storm import SHARD_STORM_SCENARIOS, STORM_SCENARIOS

    mode = "smoke" if smoke else "full"
    cpus = os.cpu_count() or 1
    scenarios = (
        SMOKE_SCENARIOS if smoke else STORM_SCENARIOS + SHARD_STORM_SCENARIOS
    )
    if repeats is None:
        repeats = 3
    print(f"T16 storm benchmark ({mode}, seed={seed}, cpus={cpus})")
    cells: list[dict[str, Any]] = []
    for scenario in scenarios:
        for handoff in HANDOFFS:
            print(f"  cell {scenario}/{handoff}: best of {repeats} ...",
                  flush=True)
            cells.append(_run_cell(
                scenario, handoff, seed=seed, repeats=repeats,
                timeline_dir=timeline_dir,
            ))
    _render(cells)

    by_key = {(c["scenario"], c["handoff"]): c for c in cells}
    comparisons: dict[str, dict[str, Any]] = {}
    for scenario in scenarios:
        clean = by_key.get((scenario, "clean"))
        dirty = by_key.get((scenario, "dirty"))
        if clean is None or dirty is None:
            continue
        comparisons[scenario] = {
            "clean_unavailability_s": clean["unavailability_s"],
            "dirty_unavailability_s": dirty["unavailability_s"],
            "delta_s": round(
                dirty["unavailability_s"] - clean["unavailability_s"], 4
            ),
            "clean_handoff_mean_s": clean["handoff_latency_mean_s"],
            "dirty_handoff_mean_s": dirty["handoff_latency_mean_s"],
            "dirty_overlaps": dirty["dirty_overlaps"],
        }

    report = {
        "bench": "T16-storm",
        "mode": mode,
        "seed": seed,
        "cpus": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "gate_tolerance_s": GATE_TOLERANCE_S,
        "cells": {f"{c['scenario']}/{c['handoff']}": c for c in cells},
        "comparisons": comparisons,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    for scenario, cmp in comparisons.items():
        print(
            f"{scenario}: unavailability clean "
            f"{cmp['clean_unavailability_s']:.3f}s vs dirty "
            f"{cmp['dirty_unavailability_s']:.3f}s "
            f"(delta {cmp['delta_s']:+.3f}s, "
            f"{cmp['dirty_overlaps']} tail commands overlapped)"
        )

    failures: list[str] = []
    for cell in cells:
        if not cell["all_ok"]:
            failures.append(
                f"cell {cell['scenario']}/{cell['handoff']} had a run that "
                "was not ok (non-linearizable history or unacknowledged "
                "RECONFIGURE)"
            )
    for scenario in GATE_SCENARIOS:
        cmp = comparisons.get(scenario)
        if cmp is None:
            continue
        if cmp["delta_s"] > GATE_TOLERANCE_S:
            failures.append(
                f"dirty-cut unavailability on {scenario} exceeds clean-cut "
                f"by {cmp['delta_s']:.3f}s (tolerance {GATE_TOLERANCE_S}s): "
                f"dirty {cmp['dirty_unavailability_s']:.3f}s vs clean "
                f"{cmp['clean_unavailability_s']:.3f}s"
            )
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0
