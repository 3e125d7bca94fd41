"""Live scenarios: seeded fault and reconfiguration plans, verified.

The paper claims the service stays correct and available while its
configuration changes under crashes. Every live check of that claim is
a seeded, repeatable :class:`StormPlan` - a failure schedule plus
timed reconfiguration steps - run by :func:`run_storm_scenario`, the one
live scenario loop (``repro storm <cell>``):

``chaos``
    The canonical fault schedule (EXPERIMENTS T10): crash and restart a
    follower, partition the epoch-0 leader, and - midway through the
    partition - one RECONFIGURE that replaces the isolated leader with a
    standby joiner; then heal.

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

``shard`` / ``director``
    Sharded cells (:mod:`repro.shard.storm`): membership churn racing a
    range move, and a director replica SIGKILLed mid-move.

Every run is checked with the Wing–Gong linearizability oracle and
produces the fault-aligned hand-off timeline; on top of that it measures
the two storm headline numbers: the **unavailability window** (largest
gap between consecutive acknowledged client operations during the
storm) and the **hand-off latency** (cluster-level reconfiguration span
width, decided → first commit in the new epoch). ``repro bench storm``
reports both per scenario.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.metrics.stats import longest_gap
from repro.net.chaos import (
    ChaosController,
    HistoryRecorder,
    Injection,
    collect_aligned_spans,
)
from repro.net.client import LiveClient, LiveClientError
from repro.sim.failures import FailureSchedule
from repro.verify.histories import History, Operation
from repro.verify.linearizability import (
    LinearizabilityResult,
    check_kv_linearizable,
)

#: the single-group reconfiguration storms; see the module docstring.
STORM_SCENARIOS = ("overlap", "rolling", "joincrash")

#: sharded cells whose plans and topology live in :mod:`repro.shard.storm`
#: (they run a full sharded cluster, not one group).
SHARD_STORM_SCENARIOS = ("shard", "director")

#: every cell ``repro storm`` runs.
SCENARIOS = ("chaos", *STORM_SCENARIOS, *SHARD_STORM_SCENARIOS)


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
    #: the workload runs from 0 to at least this offset (settle margin
    #: included), and on until every step has returned.
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

    Every offset is jittered per seed by a factor in [0.9, 1.1] (same
    seed -> same plan); ``scale`` stretches the whole storm without
    changing its structure.
    """
    if scenario in SHARD_STORM_SCENARIOS:
        from repro.shard.storm import build_shard_storm_plan

        return build_shard_storm_plan(
            scenario, replicas=replicas, seed=seed, scale=scale
        )
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown storm scenario {scenario!r}; pick from {SCENARIOS}"
        )
    rng = random.Random(seed)
    initial = tuple(f"n{i + 1}" for i in range(replicas))

    def jitter(offset: float) -> float:
        return round(offset * scale * rng.uniform(0.9, 1.1), 3)

    schedule = FailureSchedule()
    if scenario == "chaos":
        # The epoch-0 leader is the lowest member id (it campaigns
        # first); the crashed follower is chosen by the seed.
        leader, others = initial[0], initial[1:]
        joiners = (f"n{replicas + 1}",)
        victim = rng.choice(others)
        schedule.crash(jitter(1.0), victim)
        schedule.restart(jitter(2.0), victim)  # amnesia unless durable
        cut_at = jitter(3.4)
        schedule.partition(cut_at, "cut-leader", [leader], [*others, *joiners])
        heal_at = jitter(5.6)
        schedule.heal(heal_at, "cut-leader")
        # Vote the unreachable leader out while it still believes it
        # leads; the heal then lets it discover its retirement.
        steps = (ReconfigStep((cut_at + heal_at) / 2, (*others, *joiners)),)
        duration = round(heal_at + 1.0, 3)
    elif scenario == "overlap":
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
    never recovers is charged until ``end``, not forgiven. The simulator's
    ``CompletionCollector.unavailability`` reads the same
    :func:`~repro.metrics.stats.longest_gap`; an empty window reads 0.
    """
    completions = sorted(
        op.returned_at
        for op in operations
        if op.returned_at is not None and start <= op.returned_at
    )
    if end is None:
        end = completions[-1] if completions else start
    max_gap = longest_gap(completions, start, end) if end > start else 0.0
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


# ---------------------------------------------------------------------------
# The report and the loop
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StormReport:
    """Outcome of one :func:`run_storm_scenario` run."""

    plan: StormPlan
    read_mode: str | None
    linearizable: LinearizabilityResult
    history: History
    injections: list[Injection]
    #: per planned step: offset, members, applied_at (None = never
    #: returned), ok, and the error of a failed step.
    reconfigs: list[dict]
    elapsed: float
    log_dir: str
    #: checks the topology adds that failed (sharded cells: the map chain).
    failed_checks: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: reconfiguration spans fetched from the replicas' #metrics
    #: endpoints, clock-aligned onto the injection log's timebase:
    #: node -> new-epoch id -> phase -> seconds from controller start.
    spans: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    unavailability: dict = field(default_factory=dict)
    handoff_latency: dict = field(default_factory=dict)
    #: per-node smr.* (orphans, seal-time overlaps, lease and follower
    #: reads), wal.* and recovery.* counters.
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    #: per-node ``recovery.duration`` summary, for nodes that recovered.
    recovery_duration: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def final_members(self) -> tuple[str, ...]:
        return self.plan.final_members()

    @property
    def reconfigured(self) -> bool:
        """Every planned step was acknowledged."""
        return len(self.reconfigs) == len(self.plan.steps) and all(
            step["ok"] for step in self.reconfigs
        )

    @property
    def faults_applied(self) -> bool:
        """Every scheduled fault was injected, and none failed."""
        return len(self.injections) == len(self.plan.schedule.actions) and not any(
            injection.error for injection in self.injections
        )

    @property
    def ok(self) -> bool:
        """The gate: linearizable, every fault and step applied, every
        topology check passed. Follower reads are bounded-staleness by
        design, so a follower-mode run gates on progress while the raw
        verdict stays recorded for inspection."""
        return (
            (self.linearizable.ok or self.read_mode == "follower")
            and self.reconfigured
            and self.faults_applied
            and not self.failed_checks
        )

    def span_overlaps(self, at: float) -> list[str]:
        """Spans in flight at offset ``at`` (``node:epoch`` labels).

        A span is "in flight" between its earliest and latest recorded
        phase — for a complete span, decided through first-commit. This
        is what annotates each injection with the hand-offs it landed in
        the middle of.
        """
        return [
            f"{node}:epoch {epoch}"
            for node, per_epoch in sorted(self.spans.items())
            for epoch, phases in sorted(per_epoch.items())
            if phases and min(phases.values()) <= at <= max(phases.values())
        ]

    def timeline(self) -> list[dict]:
        """Injections, steps and span phases merged into one ordered list."""
        events: list[dict] = []
        for node, per_epoch in sorted(self.spans.items()):
            for epoch, phases in sorted(per_epoch.items()):
                for phase, at in sorted(phases.items(), key=lambda kv: kv[1]):
                    events.append({
                        "at": round(at, 4), "kind": "span",
                        "node": node, "epoch": epoch, "phase": phase,
                    })
        for injection in self.injections:
            events.append({
                "at": round(injection.applied_at, 4), "kind": "injection",
                "action": type(injection.action).__name__,
                "detail": str(injection.action),
                "scheduled_at": injection.scheduled_at,
                "error": injection.error,
                "overlapping_spans": self.span_overlaps(injection.applied_at),
            })
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
        """Write the fault-aligned timeline and counters as JSON (a CI
        artifact)."""
        payload = {
            "scenario": self.plan.scenario,
            "seed": self.plan.seed,
            "elapsed": round(self.elapsed, 3),
            "final_members": list(self.final_members),
            "reconfigured": self.reconfigured,
            "linearizable": self.linearizable.ok,
            "ok": self.ok,
            "unavailability": self.unavailability,
            "handoff_latency": self.handoff_latency,
            "counters": self.counters,
            "recovery_duration": self.recovery_duration,
            "events": self.timeline(),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def lines(self) -> list[str]:
        """Human-readable summary (one string per line)."""
        out = [
            f"storm {self.plan.scenario}: seed={self.plan.seed} "
            f"elapsed={self.elapsed:.1f}s (replica logs: {self.log_dir})",
        ]
        for step in self.reconfigs:
            at = step["applied_at"]
            outcome = (
                f"acked at {at:.2f}s" if step["ok"]
                else f"FAILED: {step.get('error', 'never returned')}"
            )
            out.append(
                f"  reconfigure @ {step['offset']:.2f}s -> "
                f"{','.join(step['members'])}: {outcome}"
            )
        for injection in self.injections:
            during = self.span_overlaps(injection.applied_at)
            out.append(
                f"  t={injection.applied_at:6.2f}s "
                f"(scheduled {injection.scheduled_at:.2f}s) "
                f"{type(injection.action).__name__} {injection.action}"
                + (f"  FAILED: {injection.error}" if injection.error else "")
                + (f"  [during hand-off: {', '.join(during)}]" if during else "")
            )
        for node, per_epoch in sorted(self.spans.items()):
            for epoch, phases in sorted(per_epoch.items()):
                marks = " ".join(
                    f"{phase}@{phases[phase]:.2f}s"
                    for phase in ("decided", "cut", "transfer", "first-commit")
                    if phase in phases
                )
                out.append(f"  span {node} -> epoch {epoch}: {marks}")
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
        for failed in self.failed_checks:
            out.append(f"  check FAILED: {failed}")
        for error in self.errors:
            out.append(f"  note: {error}")
        return out


def wait_until(at: float) -> None:
    """Sleep until the monotonic instant ``at`` (no-op once past it)."""
    delay = at - time.monotonic()
    if delay > 0:
        time.sleep(delay)


class _GroupTopology:
    """One group: the plan's steps are RECONFIGUREs of a
    :class:`~repro.net.cluster.LocalCluster` (every cell but the sharded
    ones). :mod:`repro.shard.storm` has the sharded counterpart."""

    #: workload shape: keys, closed-loop workers, per-op deadline, and
    #: whether every key is written once before the clock starts.
    keys = 8
    workers = 1
    deadline = 6.0
    preload = False

    def __init__(
        self, plan: StormPlan, *, seed: int, log_dir: Any, durable: bool,
        verbose: bool, read_mode: str | None, batching: bool,
    ):
        from repro.net.cluster import LocalCluster

        self.plan = plan
        self.cluster = LocalCluster(
            replicas=len(plan.initial),
            reserve=len(plan.joiners),
            seed=seed,
            log_dir=log_dir,
            chaos=True,
            verbose=verbose,
            durable=durable,
            batch_delay_ms=2.0 if batching else 0.0,
            window=16 if batching else 0,
            read_mode=read_mode,
        )
        #: what the plan's failure schedule acts on.
        self.faults = self.cluster
        self.notes: list[str] = []

    def start(self) -> None:
        self.cluster.start(timeout=20.0)
        for joiner in self.plan.joiners:
            self.cluster.spawn(joiner)
        self.cluster.wait_ready(list(self.plan.joiners), timeout=15.0)

    def client(self, name: str) -> LiveClient:
        # Pinned to the plan's stable contacts: a SIGKILLed contact costs
        # one client timeout whatever the hand-off does, which is noise
        # in the unavailability window.
        return LiveClient(
            name, self.cluster.addresses, view=list(self.plan.contacts),
            request_timeout=0.5,
        )

    def run_steps(self, t0: float, finish: Callable[..., None]) -> None:
        """Issue each RECONFIGURE at its offset, whether or not the
        previous hand-off has settled (the overlap cell's whole point)."""
        addresses = self.cluster.addresses
        with LiveClient(
            "storm-admin", addresses, view=list(addresses), request_timeout=1.0
        ) as admin:
            for index, step in enumerate(self.plan.steps):
                wait_until(t0 + step.offset)
                try:
                    admin.reconfigure(step.members, deadline=20.0)
                    finish(index, True)
                except LiveClientError as exc:
                    finish(index, False, str(exc))

    def groups(self) -> list[tuple[str, Any]]:
        """``(label, LocalCluster)`` pairs whose replicas are polled."""
        return [("", self.cluster)]

    def checks(self) -> list[str]:
        return []

    def handoff_latency(self, spans: dict, reconfigs: list[dict]) -> dict:
        return handoff_latencies(spans)


def run_storm_scenario(
    scenario: str = "overlap",
    *,
    seed: int = 42,
    replicas: int = 3,
    log_dir: Any = None,
    op_interval: float = 0.015,
    scale: float = 1.0,
    read_mode: str | None = None,
    durable: bool = False,
    batching: bool = False,
    verbose: bool = False,
) -> StormReport:
    """Run one plan against a live cluster and verify it.

    Workload in, faults in the middle, Wing–Gong verdict out: the
    topology's cluster starts with every joiner spawned up front, a
    :class:`~repro.net.chaos.ChaosController` runs the plan's failure
    schedule, a driver thread runs its steps at their offsets, and
    recorded workers drive load on one timebase (the controller's t0)
    until the plan's duration has passed and every step has returned.
    Each worker then reads its keys back, so the history ends on agreed
    state (not counted in the unavailability window).

    ``durable`` gives every replica a data dir (restarts recover from
    WAL + checkpoint); ``batching`` runs every replica with
    ``--batch-delay 2 --window 16``; ``read_mode`` picks the read path.
    The sharded cells honour ``durable`` only, and raise
    :class:`ValueError` for the other two.
    """
    plan = build_storm_plan(scenario, replicas=replicas, seed=seed, scale=scale)
    options = dict(
        seed=seed, log_dir=log_dir, durable=durable, verbose=verbose,
        read_mode=read_mode, batching=batching,
    )
    if scenario in SHARD_STORM_SCENARIOS:
        from repro.shard.storm import ShardTopology

        topology: Any = ShardTopology(plan, replicas=replicas, **options)
    else:
        topology = _GroupTopology(plan, **options)
    started = time.monotonic()
    reconfigs = [
        {"offset": s.offset, "members": list(s.members), "applied_at": None,
         "ok": False}
        for s in plan.steps
    ]
    recorders: list[HistoryRecorder] = []
    with topology.cluster:
        topology.start()
        controller = ChaosController(topology.faults, plan.schedule).start()
        while controller.t0 is None:
            time.sleep(0.001)
        t0 = controller.t0

        def finish(index: int, ok: bool, error: str | None = None) -> None:
            reconfigs[index].update(
                applied_at=round(time.monotonic() - t0, 4), ok=ok
            )
            if error is not None:
                reconfigs[index]["error"] = error

        driver = threading.Thread(
            target=topology.run_steps, args=(t0, finish),
            name="storm-steps", daemon=True,
        )
        driver.start()
        if topology.preload:
            with topology.client("loader") as loader:
                preload = HistoryRecorder(loader, t0=t0)
                recorders.append(preload)
                for i in range(topology.keys):
                    preload.submit("set", (f"k{i}", f"v0-{i}"), deadline=15.0)

        stop = threading.Event()

        def worker(index: int) -> None:
            with topology.client(f"w{index}") as client:
                recorder = HistoryRecorder(client, t0=t0)
                recorders.append(recorder)
                rng = random.Random(seed * 997 + index)
                counter = 0
                while not stop.is_set():
                    key = f"k{rng.randrange(topology.keys)}"
                    if rng.random() < 0.7:
                        counter += 1
                        recorder.submit(
                            "set", (key, f"w{index}-{counter}"),
                            deadline=topology.deadline,
                        )
                    else:
                        recorder.submit(
                            "get", (key,), size=32, deadline=topology.deadline
                        )
                    time.sleep(op_interval)
                for i in range(index, topology.keys, topology.workers):
                    recorder.submit("get", (f"k{i}",), size=32, deadline=15.0)

        workers = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(topology.workers)
        ]
        for thread in workers:
            thread.start()
        wait_until(t0 + plan.duration)
        driver.join(timeout=60.0)
        stop.set()
        workload_end = time.monotonic() - t0
        for thread in workers:
            thread.join(timeout=30.0)
        controller.stop()
        controller.join(timeout=30.0)

        # While the replicas are still up, pull their #metrics snapshots
        # and align every reconfiguration span onto the run's timebase.
        spans: dict[str, dict[str, dict[str, float]]] = {}
        counters: dict[str, dict[str, int]] = {}
        recovery_duration: dict[str, dict[str, float]] = {}
        fetch_errors: list[str] = []
        for label, group in topology.groups():
            prefix = f"{label}/" if label else ""
            live = [n for n, p in group.procs.items() if p.poll() is None]
            if not live:
                continue
            fetched, group_spans, errors = collect_aligned_spans(
                group.addresses, live, None, t0
            )
            fetch_errors.extend(prefix + error for error in errors)
            for node, node_spans in group_spans.items():
                spans[prefix + node] = node_spans
            for node, snap in fetched.items():
                counters[prefix + node] = {
                    name: int(value)
                    for name, value in sorted(snap.snapshot.counters.items())
                    if name.startswith(("smr.", "wal.", "recovery."))
                }
                recovered = snap.snapshot.histograms.get("recovery.duration")
                if recovered:
                    recovery_duration[prefix + node] = recovered
        failed_checks = topology.checks()

    history = History([op for recorder in recorders for op in recorder.operations])
    return StormReport(
        plan=plan,
        read_mode=read_mode,
        linearizable=check_kv_linearizable(history),
        history=history,
        injections=list(controller.log),
        reconfigs=reconfigs,
        elapsed=time.monotonic() - started,
        log_dir=str(topology.cluster.log_dir),
        failed_checks=failed_checks,
        errors=list(controller.errors) + topology.notes + fetch_errors,
        spans=spans,
        unavailability=availability_windows(
            history.operations, start=0.0, end=workload_end
        ),
        handoff_latency=topology.handoff_latency(spans, reconfigs),
        counters=counters,
        recovery_duration=recovery_duration,
    )
