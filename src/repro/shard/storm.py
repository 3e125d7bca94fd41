"""Sharded storm cells: control-plane failover and cross-plane races.

Two storm scenarios extend the :mod:`repro.net.storm` family onto the
sharded service. They run in the same loop as every other cell
(:func:`repro.net.storm.run_storm_scenario`); this module holds only
what is specific to sharding - the plans and the :class:`ShardTopology`
the loop calls:

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
from typing import Any, Callable

from repro.net.storm import (
    SHARD_STORM_SCENARIOS,
    ReconfigStep,
    StormPlan,
    handoff_latencies,
    wait_until,
)
from repro.shard.cluster import ShardedCluster
from repro.sim.failures import FailureSchedule

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


class ShardTopology:
    """What the storm loop needs from a sharded cell.

    One serving group ``g1``, a spare ``g2`` and a 3-replica metadir
    group as the director; the plan's steps are admin operations
    (``director``: split with a condition-triggered director kill, then
    a move back; ``shard``: grow and shrink ``g1`` racing a split out of
    it). The loop polls every group's replicas under ``<group>/<node>``
    labels, gates on the archived map chain, and - when no group
    reconfigured - times the admin operations instead of hand-offs.
    """

    #: workload shape (see the single-group topology in net.storm).
    keys = 12
    workers = 2
    deadline = 10.0
    preload = True

    def __init__(
        self, plan: StormPlan, *, replicas: int, seed: int, log_dir: Any,
        durable: bool, verbose: bool, read_mode: str | None, batching: bool,
    ):
        if read_mode is not None or batching:
            raise ValueError(
                f"the {plan.scenario} cell runs its groups on the serve "
                "defaults: it cannot honour read_mode or batching"
            )
        self.plan = plan
        self.cluster = ShardedCluster(
            1,
            replicas_per_group=replicas,
            spare_groups=1,
            seed=seed,
            log_dir=log_dir,
            verbose=verbose,
            durable=durable,
            director_replicas=3,
            director_hold_ms=(
                DIRECTOR_HOLD_MS if plan.scenario == "director" else 0.0
            ),
            director_takeover_ms=DIRECTOR_TAKEOVER_MS,
        )
        #: what the plan's (empty) failure schedule acts on.
        self.faults = self.cluster.clusters["g1"]
        self.notes: list[str] = []

    def start(self) -> None:
        self.cluster.start()

    def client(self, name: str):
        return self.cluster.client(name)

    def run_steps(self, t0: float, finish: Callable[..., None]) -> None:
        if self.plan.scenario == "director":
            self._director_steps(t0, finish)
        else:
            self._shard_steps(t0, finish)

    def groups(self) -> list[tuple[str, Any]]:
        # Polled with their real node names (the metrics endpoint is
        # derived from the name in the frame); the labels keep g1/n1
        # apart from dir/n1 in the merged timeline.
        return [
            *self.cluster.clusters.items(),
            ("dir", self.cluster.director_cluster),
        ]

    def checks(self) -> list[str]:
        error = check_chain_linear(self.cluster.director.history())
        return [] if error is None else [error]

    def handoff_latency(
        self, spans: dict, reconfigs: list[dict[str, Any]]
    ) -> dict[str, Any]:
        latency = handoff_latencies(spans)
        if latency["count"]:
            return latency
        # No group reconfigured (the director cell): report the admin
        # operations' own wall-clock widths instead - issue to archive,
        # failover included - in the same dict shape.
        widths = {
            f"step-{i}": round(step["applied_at"] - step["offset"], 4)
            for i, step in enumerate(reconfigs)
            if step["applied_at"] is not None
        }
        values = list(widths.values())
        return {
            "per_epoch_s": widths,
            "count": len(values),
            "max_s": round(max(values), 4) if values else None,
            "mean_s": round(sum(values) / len(values), 4) if values else None,
        }

    def _director_steps(self, t0: float, finish: Callable[..., None]) -> None:
        """Split with a SIGKILL inside the retire/install gap, then move
        back."""
        director = self.cluster.director
        wait_until(t0 + self.plan.steps[0].offset)
        try:
            intent = director.begin("split", {"group": "g1", "target": "g2"})
            iid = int(intent["id"])
            if self._kill_claimant_at_retire(iid, t0) is None:
                self.notes.append("never observed the retired step; kill skipped")
            director.wait(iid, deadline=30.0)
            finish(0, True)
        except Exception as exc:  # noqa: BLE001 - verdict, not crash
            finish(0, False, f"director split failed: {type(exc).__name__}: {exc}")
            return
        wait_until(t0 + self.plan.steps[1].offset)
        try:
            moved = self.cluster.shard_map.ranges_of("g2")
            if not moved:
                raise RuntimeError("g2 owns nothing after the completed split")
            director.move(moved[0].lo, moved[0].hi, "g1", deadline=30.0)
            finish(1, True)
        except Exception as exc:  # noqa: BLE001
            finish(1, False, f"post-failover move failed: "
                             f"{type(exc).__name__}: {exc}")

    def _kill_claimant_at_retire(
        self, iid: int, t0: float, deadline: float = 15.0
    ) -> str | None:
        """SIGKILL whichever director replica claimed the intent, the
        moment its ``retired`` step commits — the map and the source group
        now disagree, and only the intent record can reconcile them."""
        director = self.cluster.director
        give_up_at = time.monotonic() + deadline
        while time.monotonic() < give_up_at:
            status = director.status(iid)
            if status.get("status") in ("done", "aborted"):
                return None  # too late to kill anyone mid-move
            if "retired" in tuple(status.get("steps") or ()):
                claimed = status.get("claimed_by")
                if claimed:
                    self.cluster.kill_director(str(claimed))
                    self.notes.append(
                        f"SIGKILL director {claimed} at "
                        f"{time.monotonic() - t0:.2f}s "
                        "(retire committed, install not yet submitted)"
                    )
                    return str(claimed)
            time.sleep(0.02)
        return None

    def _shard_steps(self, t0: float, finish: Callable[..., None]) -> None:
        """Membership churn on g1 racing a split out of g1."""
        cluster, steps = self.cluster, self.plan.steps

        def churn() -> None:
            wait_until(t0 + steps[0].offset)
            try:
                added = cluster.add_replica("g1")
                finish(0, True)
            except Exception as exc:  # noqa: BLE001
                finish(0, False, f"add_replica failed: "
                                 f"{type(exc).__name__}: {exc}")
                return
            wait_until(t0 + steps[2].offset)
            try:
                cluster.remove_replica("g1", added)
                finish(2, True)
            except Exception as exc:  # noqa: BLE001
                finish(2, False, f"remove_replica failed: "
                                 f"{type(exc).__name__}: {exc}")

        churner = threading.Thread(target=churn, daemon=True)
        churner.start()
        wait_until(t0 + steps[1].offset)
        try:
            cluster.split("g1", target="g2")
            finish(1, True)
        except Exception as exc:  # noqa: BLE001
            finish(1, False, f"split failed: {type(exc).__name__}: {exc}")
        churner.join(timeout=60.0)
