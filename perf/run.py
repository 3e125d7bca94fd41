"""Run the benchmark: ``python3 perf/run.py`` from the repository root.

Three ways to call it:

* no ``--trace``: the whole suite. Every workload (or the one named by
  ``--workload``) untraced for ``--seconds``, then the layer harness, then
  a traced pass of each workload; every metric is printed by name with its
  unit and the report goes to ``--out``. ``--smoke`` runs it at 1/20 scale.
* ``--workload W --seed N --seconds S --trace 0|1``: one run, as
  ``BENCHMARK.json`` promises. The last line of standard output is one
  JSON object; with ``--trace 0`` it carries the end-to-end metrics, with
  ``--trace 1`` the per-layer ones (a traced pass of half the seconds, the
  layer harness and the budget).
* ``--calibrate N``: N end-to-end runs per workload, each with another
  seed, through the very command ``BENCHMARK.json`` names; the spread of
  every metric goes to ``perf/CALIBRATION.json`` with the bound it implies.

Exit status is non-zero when any output was wrong, any operation failed
the correctness gate, or a replica process outlived the run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: {ROOT / 'src' / 'repro'} is missing; run it from a "
             "checkout that holds the system under test")
# As a script, sys.path[0] is perf/ itself, where trace.py would shadow the
# standard library's; import the package from the root instead.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perf"]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.cluster import surviving_children  # noqa: E402
from perf.layers import measure_layers  # noqa: E402
from perf.names import END_TO_END, UNITS, WORKLOAD_END_TO_END  # noqa: E402
from perf.workloads import (  # noqa: E402
    WORKLOADS,
    RunReport,
    complete_per_layer,
    explained_fraction,
    run_workload,
)

OUT_DIR = ROOT / "perf" / "out"
#: seconds each workload measures when the suite is run by hand.
SUITE_SECONDS = 20.0
SMOKE_SCALE = 1 / 20
#: clusters set up per end-to-end run; ``setup_s`` is the median set-up time.
CLUSTERS = 3


def environment(seed: int) -> dict[str, Any]:
    cpus = os.cpu_count() or 1
    load = os.getloadavg()[0]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    if load > cpus:
        print(f"WARNING: 1-min load average {load:.2f} exceeds {cpus} cpus; "
              "expect noisy numbers")
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "loadavg_1m": load,
        "uvloop": importlib.util.find_spec("uvloop") is not None,
        "seed": seed,
    }


def print_setup(env: dict[str, Any]) -> None:
    print("set-up: 3 replica processes on loopback, no injected message "
          "delay, durable with fsync on, binary wire, suspect timeout 600 ms, "
          "256 preloaded keys, 64 B values; load from one process, one "
          "connection")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def print_metrics(title: str, values: dict[str, float]) -> None:
    print(title)
    for name, unit in UNITS.items():
        if name in values:
            print(f"  {name:40s} {values[name]:14.4f} {unit}")


def print_report(report: RunReport) -> None:
    workload = WORKLOADS[report.workload]
    state = "correct" if report.correct else "INCORRECT"
    if report.disturbed:
        state += ", disturbed (an election the workload does not cause)"
    print(f"\n== {report.workload}: {workload.loop}; {state}; "
          f"{report.attempted} attempted, {report.failed} failed, "
          f"{report.samples} latency samples, {report.wall_s:.1f} s wall")
    if report.samples < 1000:
        print("  note: fewer than 1,000 samples, p99_ms is not meaningful")
    for problem in report.problems:
        print(f"  PROBLEM: {problem}")
    print_metrics("  end to end:", report.end_to_end | {
        name: report.per_layer[name]
        for name, _, _ in WORKLOAD_END_TO_END if name in report.per_layer
    })


def with_budget(report: RunReport, harness: dict[str, float]) -> dict[str, float]:
    layer = dict(harness)
    layer.update(report.per_layer)
    layer["budget.explained_frac"] = explained_fraction(
        report.per_layer, harness, WORKLOADS[report.workload].shape.batched
    )
    return {k: v for k, v in layer.items() if not k.startswith("_")}


# -- one run, as BENCHMARK.json promises ----------------------------------------


def contract_run(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else SUITE_SECONDS
    print_setup(environment(args.seed))
    if args.trace:
        report = run_workload(workload, args.seed, seconds / 2, OUT_DIR, trace=True)
        batch = round(report.per_layer.get("paxos.batch_mean", 1.0))
        harness = measure_layers(OUT_DIR, batch, min(1.0, seconds / SUITE_SECONDS * 2))
        print_report(report)
        values = with_budget(report, harness)
        print_metrics("  per layer:", values)
        metrics = complete_per_layer(values)
    else:
        report = run_workload(workload, args.seed, seconds, OUT_DIR, clusters=CLUSTERS)
        print_report(report)
        metrics = {
            name: {"value": report.end_to_end[name], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    status = check_no_survivors()
    print(json.dumps({
        "correct": report.correct and status == 0,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": metrics,
    }))
    return status if report.correct else 1


# -- the whole suite ------------------------------------------------------------


def suite(args: argparse.Namespace) -> int:
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = (args.seconds if args.seconds is not None else SUITE_SECONDS) * scale
    env = environment(args.seed)
    print_setup(env)
    names = [args.workload] if args.workload else list(WORKLOADS)
    document: dict[str, Any] = {"environment": env, "seconds": seconds, "workloads": {}}
    reports: dict[str, RunReport] = {}
    for name in names:
        reports[name] = report = run_workload(
            WORKLOADS[name], args.seed, seconds, OUT_DIR,
            clusters=1 if args.smoke else CLUSTERS,
        )
        print_report(report)
    print("\n== layer harness (timed calls into each layer's public functions)")
    harness = measure_layers(OUT_DIR, 1, scale)
    print_metrics("  per layer:", harness)
    ok = True
    for name in names:
        report = reports[name]
        traced = run_workload(
            WORKLOADS[name], args.seed, seconds / 2, OUT_DIR, trace=True
        )
        values = with_budget(traced, harness)
        # what a user sees comes from the untraced, full-length run
        values.update({
            metric: report.per_layer[metric]
            for metric, _, _ in WORKLOAD_END_TO_END if metric in report.per_layer
        })
        print(f"\n== {name}: traced pass ({traced.trace_file})")
        for problem in traced.problems:
            print(f"  PROBLEM: {problem}")
        print_metrics("  per layer:",
                      {k: v for k, v in values.items() if k not in harness})
        ok = ok and report.correct and traced.correct
        document["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "loop": WORKLOADS[name].loop,
            "correct": report.correct and traced.correct,
            "disturbed": report.disturbed or traced.disturbed,
            "attempted": report.attempted,
            "failed": report.failed,
            "samples": report.samples,
            "wall_s": report.wall_s + traced.wall_s,
            "problems": report.problems + traced.problems,
            "end_to_end": {
                k: {"value": v, "unit": UNITS[k]} for k, v in report.end_to_end.items()
            },
            "per_layer": complete_per_layer(values),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {args.out}")
    status = check_no_survivors()
    print("\nverdict: " + ("every workload correct" if ok and status == 0 else "FAILED"))
    return status if ok else 1


def check_no_survivors() -> int:
    """No ``repro serve`` child may outlive the run."""
    alive = surviving_children()
    for pid in alive:
        print(f"PROBLEM: child process {pid} survived the run; killing it")
        os.kill(pid, signal.SIGKILL)
    return 1 if alive else 0


# -- calibration ----------------------------------------------------------------


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median,
        "range_over_median": (max(values) - min(values)) / median,
    }


def run_to_the_end(command: list[str]) -> str:
    """Standard output of a run of the benchmark. If this process is
    interrupted the child is asked to stop, not killed, so that it still
    shuts its cluster down."""
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = child.communicate()
    except BaseException:
        child.terminate()
        child.wait(timeout=60)
        raise
    if child.returncode != 0:
        sys.exit(f"{' '.join(command)} failed:\n{out}\n{err}")
    return out


def calibrate(args: argparse.Namespace) -> int:
    """N contract runs per workload, other seed each; record the spreads."""
    if args.calibrate < 5:
        sys.exit("--calibrate needs at least 5 sets")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    record: dict[str, Any] = {
        "environment": environment(args.seed),
        "sets": args.calibrate, "seconds": seconds, "workloads": {},
    }
    worst: dict[str, float] = {}
    for name in names:
        runs: dict[str, list[float]] = {}
        for i in range(args.calibrate):
            command = contract["command"] + [
                "--workload", name, "--seed", str(args.seed + i),
                "--seconds", str(seconds), "--trace", "0",
            ]
            result = json.loads(run_to_the_end(command).strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                runs.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {args.seed + i}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()),
                flush=True)
        record["workloads"][name] = {m: spread(v) | {"values": v} for m, v in runs.items()}
        for metric, values in runs.items():
            worst[metric] = max(worst.get(metric, 0.0), spread(values)["iqr_over_median"])
    # The driver accepts a spread within the bound; this benchmark wants
    # the spread below a third of it, with the issue's floor of a tenth and
    # the contract's ceiling of a quarter.
    record["bounds"] = {m: min(0.25, max(0.10, 3 * s)) for m, s in worst.items()}
    path = ROOT / "perf" / "CALIBRATION.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {path}")
    for metric, bound in record["bounds"].items():
        print(f"  {metric:10s} worst IQR/median {worst[metric]:.4f} -> bound {bound:.3f}")
    return 0


def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="one run of --workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true", help="the suite at 1/20 scale")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the suite's report as JSON")
    parser.add_argument("--calibrate", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    # SIGTERM unwinds like SIGINT, so every cluster's context manager runs.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        if args.calibrate:
            return calibrate(args)
        if args.trace is not None:
            return contract_run(args)
        return suite(args)
    finally:
        for pid in surviving_children():
            os.kill(pid, signal.SIGKILL)


if __name__ == "__main__":
    sys.exit(main())
