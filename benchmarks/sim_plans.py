"""Run the single-group storm plans in the simulator, each through the gate.

A :class:`~repro.net.storm.StormPlan` is one plan for both backends: its
initial members, reconfiguration steps and failure schedule go to
:func:`~repro.bench.harness.run_experiment` as they are, with no adapter
and no action left out. Every run is gated by
:func:`~repro.verify.suite.verify_run` - Wing-Gong, the structural
invariants, the log replay and the liveness check against the plan - and
a run that fails prints its plan's ``to_json``, which is the repro:

    PYTHONPATH=src python benchmarks/sim_plans.py FIRST_SEED LAST_SEED

runs ``chaos``, ``overlap``, ``rolling`` and ``joincrash`` for every seed
in the inclusive range and exits 1 if any run fails; the last line gives
the wall time and the plans run a minute. Seeds 1-50 took 124 s (0.62 s
a run, 97 plans a minute) on a 2-cpu x86 box, against 151 s (0.76 s a
run, 79 a minute) when a run still had a 1 s client tail and a 1 s
settle after it.
"""

from __future__ import annotations

import sys
import time

from repro.bench.harness import RunResult, run_experiment
from repro.errors import VerificationError
from repro.net.storm import STORM_SCENARIOS, StormPlan, build_storm_plan
from repro.verify.suite import VerificationReport, verify_run

#: every single-group cell (the sharded cells need the metadata group).
CELLS = ("chaos", *STORM_SCENARIOS)

#: the clients' retry interval; a stall may last two of them.
REQUEST_TIMEOUT = 0.5


def run_plan(
    cell: str, seed: int
) -> tuple[StormPlan, RunResult, VerificationReport]:
    """Build ``cell``'s plan for ``seed``, run it in the simulator with two
    clients for the plan's duration (the run returns drained), and verify
    it (raises :class:`~repro.errors.VerificationError`)."""
    plan = build_storm_plan(cell, seed=seed)
    result = run_experiment(
        "speculative",
        seed=seed,
        members=plan.initial,
        schedule=plan.steps,
        failures=plan.schedule,
        clients=2,
        run_for=plan.duration,
        request_timeout=REQUEST_TIMEOUT,
    )
    report = verify_run(
        result.service.replicas.values(),
        result.pool.clients,
        plan=plan,
        window=(result.started_at, result.ended_at),
    )
    return plan, result, report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    failed = 0
    started = time.perf_counter()
    for seed in range(first, last + 1):
        for cell in CELLS:
            try:
                _, _, report = run_plan(cell, seed)
            except VerificationError as exc:
                failed += 1
                print(f"{cell} seed {seed}: FAILED: {exc}")
                print(build_storm_plan(cell, seed=seed).to_json())
                continue
            print(
                f"{cell} seed {seed}: ok ({report.operations} ops, "
                f"{report.replayed} acks replayed, longest stall "
                f"{report.stalled_s:.3f}s)",
                flush=True,
            )
    runs = (last - first + 1) * len(CELLS)
    wall = time.perf_counter() - started
    print(
        f"{failed} of {runs} runs failed in {wall:.1f} s wall "
        f"({runs / wall * 60:.0f} plans a minute)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
