"""Reconfiguration storms: adversarial hand-off schedules, verified.

Every chaos scenario before this module fires a *single* RECONFIGURE
against a mostly-healthy cluster. The paper's liveness claim is stronger:
the service stays available while reconfigurations pile up faster than
state transfer completes, while the whole membership rolls over under
load, and while joins race fail-stop crashes. This module turns each of
those into a seeded, repeatable **storm plan** executed against a live
:class:`~repro.net.cluster.LocalCluster`:

``overlap``
    Back-to-back RECONFIGUREs issued faster than the joiners' state
    transfer can finish (their links are delayed), stressing speculative
    hand-off directly: epoch ``e+2`` starts ordering while ``e+1``'s
    boundary is still in flight.

``rolling``
    Full-cluster replacement one member at a time under sustained load —
    at the end no original member remains, and each retired member is
    SIGKILLed shortly after it leaves (decommissioning must not disturb
    the epochs that no longer contain it).

``joincrash``
    A join racing SIGKILL crashes: the outgoing epoch's leader dies right
    after the seal (stranding its in-flight tail — the exact window the
    seal-time tail rescue exists for) and the joiner itself is killed
    mid-join and later restarted with amnesia.

Every run is checked with the same Wing–Gong linearizability oracle as
the chaos suite and produces the fault-aligned hand-off timeline; on top
of that it measures the two storm headline numbers: the **unavailability
window** (largest gap between consecutive acknowledged client operations
during the storm) and the **hand-off latency** (cluster-level
reconfiguration span width, decided → first commit in the new epoch).
``repro bench storm`` reports both per scenario.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.net.chaos import (
    ChaosController,
    ChaosReport,
    HistoryRecorder,
    collect_aligned_spans,
)
from repro.net.client import LiveClient, LiveClientError
from repro.sim.failures import FailureSchedule
from repro.verify.histories import History, Operation
from repro.verify.linearizability import (
    LinearizabilityResult,
    check_kv_linearizable,
)

#: the scenario family; see the module docstring.
STORM_SCENARIOS = ("overlap", "rolling", "joincrash")

#: sharded cells living in :mod:`repro.shard.storm` — director failover
#: mid-move and the membership-churn-vs-range-move race. Dispatched from
#: :func:`run_storm_scenario` / :func:`build_storm_plan` so the CLI and
#: the storm bench treat the whole family uniformly; kept out of
#: ``STORM_SCENARIOS`` because these run a full sharded cluster, not the
#: single-group topology the data-plane plans assume.
SHARD_STORM_SCENARIOS = ("shard", "director")


@dataclass(frozen=True, slots=True)
class ReconfigStep:
    """One planned RECONFIGURE: issue at ``offset`` targeting ``members``."""

    offset: float
    members: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class StormPlan:
    """A fully-determined storm: schedule + reconfigure timings.

    Built purely from ``(scenario, seed, scale)`` — no wall clock, no
    ambient randomness — so the same seed produces a byte-identical plan
    (:meth:`to_json`), identical injection order and identical
    reconfigure timings across runs and machines.
    """

    scenario: str
    seed: int
    scale: float
    initial: tuple[str, ...]
    joiners: tuple[str, ...]
    steps: tuple[ReconfigStep, ...]
    schedule: FailureSchedule
    #: workload runs from 0 to this offset (settle margin included).
    duration: float
    #: initial members the plan never crashes or restarts — the workload
    #: client's contact view. Pinning the recorder to stable contacts
    #: keeps mode-independent reconnect noise (a SIGKILLed contact costs
    #: one client timeout regardless of hand-off mode) out of the
    #: unavailability window, so the metric measures hand-off stalls.
    contacts: tuple[str, ...]

    def final_members(self) -> tuple[str, ...]:
        return self.steps[-1].members

    def to_json(self) -> str:
        """Canonical serialisation (the determinism test compares bytes)."""
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "scale": self.scale,
            "initial": list(self.initial),
            "joiners": list(self.joiners),
            "steps": [
                {"offset": step.offset, "members": list(step.members)}
                for step in self.steps
            ],
            "schedule": [
                f"{type(action).__name__}@{action.time}:{action}"
                for action in self.schedule.sorted_actions()
            ],
            "duration": self.duration,
            "contacts": list(self.contacts),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def build_storm_plan(
    scenario: str, *, replicas: int = 3, seed: int = 42, scale: float = 1.0
) -> StormPlan:
    """Build one deterministic storm plan (see :class:`StormPlan`).

    Offsets are jittered per seed exactly like
    :func:`~repro.net.chaos.canonical_schedule` (same seed -> same plan);
    ``scale`` stretches the whole storm without changing its structure.
    """
    if scenario in SHARD_STORM_SCENARIOS:
        from repro.shard.storm import build_shard_storm_plan

        return build_shard_storm_plan(
            scenario, replicas=replicas, seed=seed, scale=scale
        )
    if scenario not in STORM_SCENARIOS:
        raise ValueError(
            f"unknown storm scenario {scenario!r}; pick from "
            f"{STORM_SCENARIOS + SHARD_STORM_SCENARIOS}"
        )
    rng = random.Random(seed)
    initial = tuple(f"n{i + 1}" for i in range(replicas))

    def jitter(offset: float) -> float:
        return round(offset * scale * rng.uniform(0.9, 1.1), 3)

    schedule = FailureSchedule()
    if scenario == "overlap":
        joiners = (f"n{replicas + 1}", f"n{replicas + 2}")
        # Slow every link toward (and from) the joiners so their boundary
        # transfer cannot finish between reconfigures: the second step
        # lands while the first join's state is still in flight.
        slow_at = jitter(0.2)
        for joiner in joiners:
            for member in initial:
                schedule.delay_link(
                    slow_at, f"slow-{member}-{joiner}", member, joiner, 0.2
                )
                schedule.delay_link(
                    slow_at, f"slow-{joiner}-{member}", joiner, member, 0.2
                )
        r1 = jitter(1.2)
        r2 = round(r1 + jitter(0.35), 3)
        steps = (
            ReconfigStep(r1, (*initial[1:], joiners[0])),
            ReconfigStep(r2, (*initial[2:], *joiners)),
        )
        heal_at = round(r2 + jitter(1.2), 3)
        for joiner in joiners:
            for member in initial:
                schedule.heal(heal_at, f"slow-{member}-{joiner}")
                schedule.heal(heal_at, f"slow-{joiner}-{member}")
        duration = round(heal_at + jitter(1.2), 3)
    elif scenario == "rolling":
        joiners = tuple(f"n{replicas + 1 + i}" for i in range(replicas))
        steps_list = []
        members = list(initial)
        at = jitter(1.0)
        for i, joiner in enumerate(joiners):
            retiree = members.pop(0)
            members.append(joiner)
            steps_list.append(ReconfigStep(at, tuple(members)))
            # Decommission the retired member shortly after it leaves;
            # epochs that no longer contain it must not notice. The last
            # retiree stays up so the workload client keeps a stable
            # contact point for the settled final reads.
            if i < len(joiners) - 1:
                schedule.crash(round(at + jitter(0.45), 3), retiree)
            at = round(at + jitter(0.9), 3)
        steps = tuple(steps_list)
        duration = round(steps[-1].offset + jitter(1.4), 3)
    else:  # joincrash
        joiners = (f"n{replicas + 1}", f"n{replicas + 2}")
        r1 = jitter(1.1)
        steps_list = [ReconfigStep(r1, (*initial[1:], joiners[0]))]
        # The outgoing epoch's leader dies right after the seal lands,
        # stranding whatever its engine still had in flight...
        schedule.crash(round(r1 + jitter(0.15), 3), initial[0])
        # ...and the joiner is SIGKILLed mid-join, then restarted with
        # total amnesia (it must re-learn the epoch and re-fetch state).
        schedule.crash(round(r1 + jitter(0.35), 3), joiners[0])
        schedule.restart(round(r1 + jitter(1.3), 3), joiners[0])
        schedule.restart(round(r1 + jitter(1.7), 3), initial[0])
        r2 = round(r1 + jitter(1.9), 3)
        steps_list.append(ReconfigStep(r2, (*initial[2:], *joiners)))
        steps = tuple(steps_list)
        duration = round(r2 + jitter(1.3), 3)
    disturbed = {
        str(action.node)
        for action in schedule.sorted_actions()
        if hasattr(action, "node")
    }
    contacts = tuple(n for n in initial if n not in disturbed) or initial
    return StormPlan(
        scenario=scenario,
        seed=seed,
        scale=scale,
        initial=initial,
        joiners=joiners,
        steps=steps,
        schedule=schedule,
        duration=duration,
        contacts=contacts,
    )


# ---------------------------------------------------------------------------
# Metrics over the recorded run
# ---------------------------------------------------------------------------


def availability_windows(
    operations: list[Operation], *, start: float = 0.0, end: float | None = None
) -> dict[str, Any]:
    """Client-observed availability over one recorded workload window.

    The headline is ``max_gap_s``: the largest stretch of the window with
    no acknowledged operation — the unavailability window a client
    actually experienced. Bounded by the window edges, so a storm that
    never recovers is charged until ``end``, not forgiven.
    """
    completions = sorted(
        op.returned_at
        for op in operations
        if op.returned_at is not None and start <= op.returned_at
    )
    if end is None:
        end = completions[-1] if completions else start
    marks = [start, *[at for at in completions if at <= end], end]
    max_gap = max(
        (later - earlier for earlier, later in zip(marks, marks[1:])),
        default=0.0,
    )
    return {
        "window_s": round(end - start, 4),
        "max_gap_s": round(max_gap, 4),
        "completed": len(completions),
        "failed_or_pending": sum(
            1 for op in operations if op.returned_at is None
        ),
    }


def handoff_latencies(
    spans: dict[str, dict[str, dict[str, float]]]
) -> dict[str, Any]:
    """Cluster-level hand-off latency per epoch from aligned spans.

    Per new epoch: earliest ``decided`` anywhere to earliest
    ``first-commit`` anywhere — the wall-clock stretch between the
    reconfiguration being agreed and the new configuration doing work.
    (A single node's span width over-counts: another member usually
    commits in the new epoch first.)
    """
    decided: dict[str, float] = {}
    first_commit: dict[str, float] = {}
    for per_epoch in spans.values():
        for epoch, phases in per_epoch.items():
            if "decided" in phases:
                at = phases["decided"]
                if epoch not in decided or at < decided[epoch]:
                    decided[epoch] = at
            if "first-commit" in phases:
                at = phases["first-commit"]
                if epoch not in first_commit or at < first_commit[epoch]:
                    first_commit[epoch] = at
    widths = {
        epoch: round(first_commit[epoch] - decided[epoch], 4)
        for epoch in decided
        if epoch in first_commit
    }
    values = list(widths.values())
    return {
        "per_epoch_s": dict(sorted(widths.items())),
        "count": len(values),
        "max_s": round(max(values), 4) if values else None,
        "mean_s": round(sum(values) / len(values), 4) if values else None,
    }


def storm_verdict(
    history: History, read_mode: str | None
) -> tuple[LinearizabilityResult, bool]:
    """The oracle gate every storm run goes through.

    Wing–Gong over the client-observed history; follower-mode runs are
    bounded-staleness by design, so they gate on progress while the raw
    verdict stays recorded for inspection (same convention as the chaos
    suite). The positive-control test feeds this a hand-constructed
    non-linearizable history and asserts the gate actually fails.
    """
    result = check_kv_linearizable(history)
    return result, result.ok or read_mode == "follower"


# ---------------------------------------------------------------------------
# The storm driver
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StormReport:
    """Outcome of one :func:`run_storm_scenario` run."""

    plan: StormPlan
    read_mode: str | None
    #: verdict, injections, history, aligned spans, errors — same shape
    #: as a chaos run so the timeline/tooling carries over unchanged.
    chaos: ChaosReport
    #: per planned step: offset, members, applied_at (None = never
    #: acknowledged), ok.
    reconfigs: list[dict] = field(default_factory=list)
    unavailability: dict = field(default_factory=dict)
    handoff_latency: dict = field(default_factory=dict)
    #: per-node smr.* counters (orphans, seal-time dirty_overlaps).
    counters: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.chaos.ok

    @property
    def linearizable(self) -> LinearizabilityResult:
        return self.chaos.linearizable

    def timeline(self) -> list[dict]:
        """The chaos timeline plus the planned RECONFIGURE issue points."""
        events = self.chaos.timeline()
        for step in self.reconfigs:
            at = step["applied_at"]
            events.append({
                "at": round(at if at is not None else step["offset"], 4),
                "kind": "reconfigure",
                "members": list(step["members"]),
                "scheduled_at": step["offset"],
                "ok": step["ok"],
            })
        events.sort(key=lambda event: event["at"])
        return events

    def write_timeline(self, path: Any) -> None:
        payload = {
            "scenario": self.plan.scenario,
            "seed": self.plan.seed,
            "linearizable": self.linearizable.ok,
            "ok": self.ok,
            "unavailability": self.unavailability,
            "handoff_latency": self.handoff_latency,
            "events": self.timeline(),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def lines(self) -> list[str]:
        out = [
            f"storm {self.plan.scenario}: "
            f"seed={self.plan.seed} elapsed={self.chaos.elapsed:.1f}s "
            f"(replica logs: {self.chaos.log_dir})",
        ]
        for step in self.reconfigs:
            at = step["applied_at"]
            out.append(
                f"  reconfigure @ {step['offset']:.2f}s -> "
                f"{','.join(step['members'])}: "
                + (f"acked at {at:.2f}s" if step["ok"] else "FAILED")
            )
        for injection in self.chaos.injections:
            during = self.chaos.span_overlaps(injection.applied_at)
            out.append(
                f"  t={injection.applied_at:6.2f}s "
                f"{type(injection.action).__name__} {injection.action}"
                + (f"  [during hand-off: {', '.join(during)}]" if during else "")
            )
        un = self.unavailability
        out.append(
            f"  unavailability: max gap {un.get('max_gap_s', 0):.3f}s over a "
            f"{un.get('window_s', 0):.1f}s window "
            f"({un.get('completed', 0)} ops acked, "
            f"{un.get('failed_or_pending', 0)} failed/pending)"
        )
        hl = self.handoff_latency
        if hl.get("count"):
            out.append(
                f"  hand-off latency: mean {hl['mean_s']:.3f}s "
                f"max {hl['max_s']:.3f}s over {hl['count']} epochs"
            )
        result = self.linearizable
        verdict = "LINEARIZABLE" if result.ok else (
            f"NOT LINEARIZABLE (key {result.failing_key!r})"
        )
        out.append(
            f"  verdict: {verdict} ({result.checked_ops} ops over "
            f"{result.checked_keys} keys); ok={'yes' if self.ok else 'NO'}"
        )
        for error in self.chaos.errors:
            out.append(f"  note: {error}")
        return out


class _ReconfigDriver(threading.Thread):
    """Issue the plan's RECONFIGUREs at their offsets, off the workload.

    A dedicated thread with its own admin client: the whole point of the
    overlap storm is that the *next* step is issued on schedule even if
    the previous hand-off is still settling, and the workload loop must
    keep recording ops while a reconfigure waits for its ack.
    """

    def __init__(
        self,
        plan: StormPlan,
        addresses: dict,
        view: list[str],
        t0: float,
        deadline: float = 20.0,
    ):
        super().__init__(name="storm-reconfig", daemon=True)
        self.plan = plan
        self.t0 = t0
        self.deadline = deadline
        self.results: list[dict] = []
        self.client = LiveClient(
            "storm-admin", addresses, view=list(view),
            request_timeout=1.0,
        )

    def run(self) -> None:
        with self.client:
            for step in self.plan.steps:
                delay = self.t0 + step.offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                entry = {
                    "offset": step.offset,
                    "members": list(step.members),
                    "applied_at": None,
                    "ok": False,
                }
                try:
                    self.client.reconfigure(
                        step.members, deadline=self.deadline
                    )
                    entry["applied_at"] = round(time.monotonic() - self.t0, 4)
                    entry["ok"] = True
                except LiveClientError as exc:
                    entry["error"] = str(exc)
                self.results.append(entry)


def run_storm_scenario(
    scenario: str = "overlap",
    *,
    seed: int = 42,
    replicas: int = 3,
    log_dir: Any = None,
    keys: int = 8,
    op_interval: float = 0.015,
    request_timeout: float = 0.5,
    scale: float = 1.0,
    read_mode: str | None = None,
    durable: bool = False,
    verbose: bool = False,
) -> StormReport:
    """Run one storm plan against a live cluster and verify it.

    The structure mirrors :func:`~repro.net.chaos.run_chaos_scenario`
    (workload in, faults in the middle, Wing–Gong verdict out) with the
    storm-specific parts on top: joiners are spawned up front, the
    reconfigure steps run on their own schedule concurrently with the
    workload, and the report carries the unavailability window and
    cluster-level hand-off latency.

    The sharded cells (``shard``, ``director``) are dispatched to
    :func:`repro.shard.storm.run_shard_storm_scenario`, which returns
    the same report type over a sharded-cluster run.
    """
    if scenario in SHARD_STORM_SCENARIOS:
        from repro.shard.storm import run_shard_storm_scenario

        return run_shard_storm_scenario(
            scenario,
            seed=seed,
            replicas=replicas,
            log_dir=log_dir,
            keys=keys,
            op_interval=op_interval,
            request_timeout=request_timeout,
            scale=scale,
            read_mode=read_mode,
            durable=durable,
            verbose=verbose,
        )
    from repro.net.cluster import LocalCluster

    plan = build_storm_plan(scenario, replicas=replicas, seed=seed, scale=scale)
    started = time.monotonic()
    cluster = LocalCluster(
        replicas=replicas,
        reserve=len(plan.joiners),
        seed=seed,
        log_dir=log_dir,
        chaos=True,
        verbose=verbose,
        durable=durable,
        read_mode=read_mode,
    )
    with cluster:
        cluster.start(timeout=20.0)
        for joiner in plan.joiners:
            cluster.spawn(joiner)
        cluster.wait_ready(list(plan.joiners), timeout=15.0)

        controller = ChaosController(cluster, plan.schedule).start()
        # One timebase for everything: the controller's t0 anchors the
        # injection log, the reconfigure driver and the recorded history.
        while controller.t0 is None:
            time.sleep(0.001)
        t0 = controller.t0
        driver = _ReconfigDriver(
            plan, cluster.addresses, list(cluster.addresses), t0
        )
        driver.start()
        client = LiveClient(
            "storm-cli", cluster.addresses, view=list(plan.contacts),
            request_timeout=request_timeout,
        )
        recorder = HistoryRecorder(client, t0=t0)
        workload_rng = random.Random(seed)
        counter = 0
        with client:
            while time.monotonic() - t0 < plan.duration:
                key = f"k{workload_rng.randrange(keys)}"
                if workload_rng.random() < 0.7:
                    counter += 1
                    recorder.submit("set", (key, counter), deadline=6.0)
                else:
                    recorder.submit("get", (key,), size=32, deadline=6.0)
                time.sleep(op_interval)
            workload_end = time.monotonic() - t0
            # Settled tail: read every key back with generous deadlines so
            # the history ends on agreed state (not counted in the
            # unavailability window).
            for i in range(keys):
                recorder.submit("get", (f"k{i}",), size=32, deadline=15.0)
        driver.join(timeout=30.0)
        controller.stop()
        controller.join(timeout=30.0)
        live = [
            name for name, proc in cluster.procs.items() if proc.poll() is None
        ]
        fetched, aligned_spans, fetch_errors = collect_aligned_spans(
            cluster.addresses, live, None, t0
        )
        counters = {
            node: {
                name: int(value)
                for name, value in sorted(snap.snapshot.counters.items())
                if name.startswith("smr.")
            }
            for node, snap in fetched.items()
        }
        read_counters = counters if read_mode is not None else {}

    history = recorder.history()
    result, lin_ok = storm_verdict(history, read_mode)
    reconfigs = list(driver.results)
    # Steps the driver never reached (e.g. it died) count as failed.
    for step in plan.steps[len(reconfigs):]:
        reconfigs.append({
            "offset": step.offset, "members": list(step.members),
            "applied_at": None, "ok": False,
        })
    reconfigured = all(step["ok"] for step in reconfigs)
    chaos_report = ChaosReport(
        ok=lin_ok and reconfigured,
        linearizable=result,
        injections=list(controller.log),
        history=history,
        reconfigured=reconfigured,
        final_members=plan.final_members(),
        elapsed=time.monotonic() - started,
        seed=seed,
        log_dir=str(cluster.log_dir),
        errors=list(controller.errors) + fetch_errors,
        spans=aligned_spans,
        read_counters=read_counters,
    )
    return StormReport(
        plan=plan,
        read_mode=read_mode,
        chaos=chaos_report,
        reconfigs=reconfigs,
        unavailability=availability_windows(
            recorder.operations, start=0.0, end=workload_end
        ),
        handoff_latency=handoff_latencies(aligned_spans),
        counters=counters,
    )
