"""Sharded storm cells: control-plane failover and cross-plane races.

Two storm scenarios extend the :mod:`repro.net.storm` family onto the
sharded service — same seeded-plan discipline, same Wing–Gong verdict,
same report surface, so ``repro storm`` and ``repro bench storm`` treat
them as ordinary cells:

``director``
    The replicated control plane's headline failure: a ``split`` intent
    is committed, the driver executing it retires the range from the
    source group, and the director replica holding the claim is
    SIGKILLed *between the retire commit and the install submit* — the
    exact window where map and groups disagree. A surviving director
    replica must roll the move forward (deterministic per-step client
    identities make the replayed retire a dedup hit), after which a
    second admin operation proves the survivor is fully in charge. The
    kill is condition-triggered — fired the moment the intent's
    ``retired`` step commits — rather than scheduled by offset, because
    its whole point is landing inside a window whose absolute timing
    depends on load.

``shard``
    Cross-plane race: a per-group reconfiguration storm (grow the source
    group by one replica, then shrink it back) runs concurrently with a
    range move out of that same group. Membership publishes and the
    move's completion interleave in the director log; completion
    recomputes the move against the *committed* map, so the interleaving
    must never corrupt the chain.

Both cells gate on (a) Wing–Gong linearizability of the merged
client-observed data history and (b) linearity and gaplessness of the
map version chain the director archived — every chain entry's version
must be exactly its predecessor's plus one.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

from repro.net.chaos import HistoryRecorder, collect_aligned_spans
from repro.net.storm import (
    ChaosReport,
    ReconfigStep,
    StormPlan,
    StormReport,
    availability_windows,
    handoff_latencies,
    storm_verdict,
)
from repro.shard.cluster import ShardedCluster
from repro.sim.failures import FailureSchedule
from repro.verify.histories import History

#: the sharded members of the storm family (see module docstring).
SHARD_STORM_SCENARIOS = ("shard", "director")

#: director cell: how long the claiming driver lingers between the
#: retire commit and the install submit, and how stale a claimed intent
#: must look before a surviving replica rolls it forward. The hold keeps
#: the kill window wide enough to hit deterministically; the takeover
#: bounds how long the survivor politely waits.
DIRECTOR_HOLD_MS = 900.0
DIRECTOR_TAKEOVER_MS = 600.0


def build_shard_storm_plan(
    scenario: str, *, replicas: int = 3, seed: int = 42, scale: float = 1.0
) -> StormPlan:
    """Deterministic plan for one sharded storm cell.

    Steps carry ``(operation, *operands)`` in the ``members`` tuple —
    admin operations against the shard map rather than membership lists,
    but the same seeded-offset discipline as the data-plane plans. The
    failure schedule is empty by construction: the director kill is
    condition-triggered (see module docstring) and therefore cannot be
    expressed as a wall-clock offset without racing the thing it aims at.
    """
    if scenario not in SHARD_STORM_SCENARIOS:
        raise ValueError(
            f"unknown sharded storm scenario {scenario!r}; "
            f"pick from {SHARD_STORM_SCENARIOS}"
        )
    rng = random.Random(seed)

    def jitter(offset: float) -> float:
        return round(offset * scale * rng.uniform(0.9, 1.1), 3)

    if scenario == "director":
        r1 = jitter(0.6)
        # The failover (hold + takeover + replayed cutover) dominates the
        # gap to the second step; the runner issues it as soon as both
        # the offset has passed and the first intent is archived.
        r2 = round(r1 + jitter(3.0), 3)
        steps = (
            ReconfigStep(r1, ("split", "g1", "g2")),
            ReconfigStep(r2, ("move-back", "g2", "g1")),
        )
    else:  # shard
        r_add = jitter(0.6)
        r_split = round(r_add + jitter(0.4), 3)
        r_remove = round(r_split + jitter(0.5), 3)
        steps = (
            ReconfigStep(r_add, ("add-replica", "g1")),
            ReconfigStep(r_split, ("split", "g1", "g2")),
            ReconfigStep(r_remove, ("remove-replica", "g1")),
        )
    return StormPlan(
        scenario=scenario,
        seed=seed,
        scale=scale,
        initial=("g1",),
        joiners=("g2",),
        steps=steps,
        schedule=FailureSchedule(),
        duration=round(steps[-1].offset + jitter(1.5), 3),
        contacts=("g1",),
    )


def check_chain_linear(chain: tuple[dict[str, Any], ...]) -> str | None:
    """None iff the archived map chain is linear with no gaps."""
    if not chain:
        return "director archived an empty map chain"
    versions = [entry.get("version") for entry in chain]
    base = versions[0]
    expected = list(range(base, base + len(versions)))
    if versions != expected:
        return f"map chain not linear/gapless: {versions}"
    return None


def _admin_entry(step: ReconfigStep) -> dict[str, Any]:
    return {
        "offset": step.offset,
        "members": list(step.members),
        "applied_at": None,
        "ok": False,
    }


def run_shard_storm_scenario(
    scenario: str = "director",
    *,
    seed: int = 42,
    replicas: int = 3,
    log_dir: Any = None,
    keys: int = 12,
    op_interval: float = 0.015,
    request_timeout: float = 0.5,
    scale: float = 1.0,
    read_mode: str | None = None,
    durable: bool = False,
    verbose: bool = False,
) -> StormReport:
    """Run one sharded storm cell and return the usual storm report.

    ``read_mode`` is accepted for signature parity with the data-plane
    runner but not plumbed into the groups; a note is recorded when it
    is set so a misconfigured sweep is visible.
    """
    plan = build_shard_storm_plan(
        scenario, replicas=replicas, seed=seed, scale=scale
    )
    started = time.monotonic()
    notes: list[str] = []
    if read_mode is not None:
        notes.append(f"read_mode={read_mode!r} ignored by sharded cells")
    entries = [_admin_entry(step) for step in plan.steps]
    key_names = [f"k{i}" for i in range(keys)]
    hold = DIRECTOR_HOLD_MS if scenario == "director" else 0.0

    with ShardedCluster(
        1,
        replicas_per_group=replicas,
        spare_groups=1,
        seed=seed,
        log_dir=log_dir,
        verbose=verbose,
        durable=durable,
        director_replicas=3,
        director_hold_ms=hold,
        director_takeover_ms=DIRECTOR_TAKEOVER_MS,
    ) as cluster:
        cluster.start()
        t0 = time.monotonic()
        recorders: list[HistoryRecorder] = []
        with cluster.client("loader") as loader:
            preload = HistoryRecorder(loader, t0=t0)
            recorders.append(preload)
            for i, key in enumerate(key_names):
                preload.submit("set", (key, f"v0-{i}"), deadline=15.0)

        stop = threading.Event()

        def worker(index: int) -> None:
            client = cluster.client(f"w{index}")
            recorder = HistoryRecorder(client, t0=t0)
            recorders.append(recorder)
            rng = random.Random(seed * 997 + index)
            counter = 0
            try:
                while not stop.is_set():
                    key = key_names[rng.randrange(keys)]
                    if rng.random() < 0.7:
                        counter += 1
                        recorder.submit(
                            "set", (key, f"w{index}-{counter}"), deadline=10.0
                        )
                    else:
                        recorder.submit("get", (key,), size=32, deadline=10.0)
                    time.sleep(op_interval)
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(2)
        ]
        for thread in threads:
            thread.start()

        def wait_for(offset: float) -> None:
            delay = t0 + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)

        def finish(index: int, ok: bool, error: str | None = None) -> None:
            entries[index]["applied_at"] = round(time.monotonic() - t0, 4)
            entries[index]["ok"] = ok
            if error is not None:
                entries[index]["error"] = error
                notes.append(error)

        if scenario == "director":
            _run_director_steps(cluster, plan, entries, t0, wait_for,
                                finish, notes)
        else:
            _run_shard_steps(cluster, plan, entries, t0, wait_for, finish)

        time.sleep(0.5)  # load after the last admin op
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        workload_end = time.monotonic() - t0

        # Settled tail: every key readable wherever it now lives.
        with cluster.client("checker") as checker:
            tail = HistoryRecorder(checker, t0=t0)
            recorders.append(tail)
            for key in key_names:
                tail.submit("get", (key,), size=32, deadline=15.0)

        chain = cluster.director.history()
        chain_error = check_chain_linear(chain)
        if chain_error is not None:
            notes.append(chain_error)

        # Poll each sub-cluster with its *real* node names — the metrics
        # endpoint is derived from the name in the frame, so a prefixed
        # label would never be answered — then merge under prefixed keys
        # so the timeline distinguishes g1/n1 from dir/n1.
        counters: dict[str, dict[str, int]] = {}
        aligned: dict[str, dict[str, dict[str, float]]] = {}
        fetch_errors: list[str] = []
        subclusters = [*cluster.clusters.items(), ("dir", cluster.director_cluster)]
        for label, sub in subclusters:
            live = [n for n, p in sub.procs.items() if p.poll() is None]
            if not live:
                continue
            fetched, spans, errs = collect_aligned_spans(
                sub.addresses, live, None, t0
            )
            for node, snap in fetched.items():
                counters[f"{label}/{node}"] = {
                    name: int(value)
                    for name, value in sorted(snap.snapshot.counters.items())
                    if name.startswith("smr.")
                }
            for node, node_spans in spans.items():
                aligned[f"{label}/{node}"] = node_spans
            fetch_errors.extend(f"{label}/{err}" for err in errs)
        log_path = str(cluster.log_dir)

    operations = [op for recorder in recorders for op in recorder.operations]
    history = History(operations)
    result, lin_ok = storm_verdict(history, None)
    admin_ok = all(entry["ok"] for entry in entries)
    ok = lin_ok and admin_ok and chain_error is None

    latency = handoff_latencies(aligned)
    if not latency.get("count"):
        # No group reconfigured (the director cell): report the admin
        # operations' own wall-clock widths instead — issue to archive,
        # failover included — in the same dict shape.
        widths = {
            f"step-{i}": round(entry["applied_at"] - entry["offset"], 4)
            for i, entry in enumerate(entries)
            if entry["applied_at"] is not None
        }
        values = list(widths.values())
        latency = {
            "per_epoch_s": widths,
            "count": len(values),
            "max_s": round(max(values), 4) if values else None,
            "mean_s": round(sum(values) / len(values), 4) if values else None,
        }

    chaos = ChaosReport(
        ok=ok,
        linearizable=result,
        injections=[],
        history=history,
        reconfigured=admin_ok,
        final_members=plan.final_members(),
        elapsed=time.monotonic() - started,
        seed=seed,
        log_dir=log_path,
        errors=notes + fetch_errors,
        spans=aligned,
    )
    return StormReport(
        plan=plan,
        read_mode=read_mode,
        chaos=chaos,
        reconfigs=entries,
        unavailability=availability_windows(
            operations, start=0.0, end=workload_end
        ),
        handoff_latency=latency,
        counters=counters,
    )


def _run_director_steps(
    cluster: ShardedCluster,
    plan: StormPlan,
    entries: list[dict[str, Any]],
    t0: float,
    wait_for,
    finish,
    notes: list[str],
) -> None:
    """Split with a SIGKILL inside the retire/install gap, then move back."""
    director = cluster.director
    wait_for(plan.steps[0].offset)
    try:
        intent = director.begin("split", {"group": "g1", "target": "g2"})
        iid = int(intent["id"])
        claimed = _kill_claimant_at_retire(cluster, director, iid, notes, t0)
        if claimed is None:
            notes.append("never observed the retired step; kill skipped")
        director.wait(iid, deadline=30.0)
        finish(0, True)
    except Exception as exc:  # noqa: BLE001 - verdict, not crash
        finish(0, False, f"director split failed: {type(exc).__name__}: {exc}")
        return
    wait_for(plan.steps[1].offset)
    try:
        moved = cluster.shard_map.ranges_of("g2")
        if not moved:
            raise RuntimeError("g2 owns nothing after the completed split")
        director.move(moved[0].lo, moved[0].hi, "g1", deadline=30.0)
        finish(1, True)
    except Exception as exc:  # noqa: BLE001
        finish(1, False, f"post-failover move failed: "
                         f"{type(exc).__name__}: {exc}")


def _kill_claimant_at_retire(
    cluster: ShardedCluster,
    director,
    iid: int,
    notes: list[str],
    t0: float,
    deadline: float = 15.0,
) -> str | None:
    """SIGKILL whichever director replica claimed the intent, the moment
    its ``retired`` step commits — the map and the source group now
    disagree, and only the intent record can reconcile them."""
    give_up_at = time.monotonic() + deadline
    while time.monotonic() < give_up_at:
        status = director.status(iid)
        if status.get("status") in ("done", "aborted"):
            return None  # too late to kill anyone mid-move
        if "retired" in tuple(status.get("steps") or ()):
            claimed = status.get("claimed_by")
            if claimed:
                cluster.kill_director(str(claimed))
                notes.append(
                    f"SIGKILL director {claimed} at "
                    f"{time.monotonic() - t0:.2f}s "
                    "(retire committed, install not yet submitted)"
                )
                return str(claimed)
        time.sleep(0.02)
    return None


def _run_shard_steps(
    cluster: ShardedCluster,
    plan: StormPlan,
    entries: list[dict[str, Any]],
    t0: float,
    wait_for,
    finish,
) -> None:
    """Membership churn on g1 racing a split out of g1."""
    added: list[str] = []

    def churn() -> None:
        wait_for(plan.steps[0].offset)
        try:
            added.append(cluster.add_replica("g1"))
            finish(0, True)
        except Exception as exc:  # noqa: BLE001
            finish(0, False, f"add_replica failed: "
                             f"{type(exc).__name__}: {exc}")
            return
        wait_for(plan.steps[2].offset)
        try:
            cluster.remove_replica("g1", added[0])
            finish(2, True)
        except Exception as exc:  # noqa: BLE001
            finish(2, False, f"remove_replica failed: "
                             f"{type(exc).__name__}: {exc}")

    churner = threading.Thread(target=churn, daemon=True)
    churner.start()
    wait_for(plan.steps[1].offset)
    try:
        cluster.split("g1", target="g2")
        finish(1, True)
    except Exception as exc:  # noqa: BLE001
        finish(1, False, f"split failed: {type(exc).__name__}: {exc}")
    churner.join(timeout=60.0)
    if entries[2]["applied_at"] is None:
        finish(2, False, "membership churn thread never finished")
