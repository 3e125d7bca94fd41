"""End-to-end reconfiguration storms against live clusters.

The acceptance matrix for the storm suite: every scenario in the family
(overlapping RECONFIGUREs, rolling full-cluster replacement, joins
racing SIGKILL crashes) passes the Wing–Gong oracle on its seeded
schedule. (Test ids say "clean cut" from when a second, "dirty" hand-off
mode ran the same schedules; there is one hand-off now.) One extra cell
runs a storm with lease reads active, so the read fast path is exercised
while epochs churn underneath it.

Each run is the same closed loop as ``repro storm``: spawn a real
cluster, execute the seeded plan (faults from a ChaosController thread,
RECONFIGUREs from a driver thread, workload from the recorder), then
check the client-observed history and the fault-aligned spans.
"""

import time

import pytest

from repro.net.storm import STORM_SCENARIOS, run_storm_scenario

pytestmark = [pytest.mark.live, pytest.mark.slow]

WALL_CLOCK_BUDGET = 60.0
SEED = 42


def run_and_assert(tmp_path, scenario, **kwargs):
    started = time.monotonic()
    report = run_storm_scenario(
        scenario, seed=SEED, log_dir=tmp_path / "logs", **kwargs
    )
    elapsed = time.monotonic() - started
    assert report.ok, "\n".join(report.lines())
    # Every planned RECONFIGURE was acknowledged, in plan order.
    assert len(report.reconfigs) == len(report.plan.steps)
    for step in report.reconfigs:
        assert step["ok"], step
    # Every planned fault was injected, at or after its offset.
    assert len(report.injections) == len(
        report.plan.schedule.sorted_actions()
    )
    for injection in report.injections:
        assert injection.applied_at >= injection.scheduled_at - 0.05
    # The oracle saw a real workload, and the hand-off spans were
    # fetched and clock-aligned (at least one complete hand-off).
    assert len(report.history.completed) > 50
    assert report.handoff_latency["count"] >= 1
    assert report.unavailability["window_s"] > 0
    assert elapsed < WALL_CLOCK_BUDGET, f"storm took {elapsed:.1f}s"
    return report


class TestStormFamily:
    @pytest.mark.parametrize("scenario", STORM_SCENARIOS)
    def test_clean_cut_is_linearizable(self, tmp_path, scenario):
        report = run_and_assert(tmp_path, scenario)
        assert report.linearizable.ok
        # Every surviving replica reports its seal-time overlap count.
        assert report.counters and all(
            "smr.dirty_overlaps" in node for node in report.counters.values()
        )

    def test_final_membership_took_effect(self, tmp_path):
        report = run_and_assert(tmp_path, "rolling")
        # Rolling replacement: no founding member remains at the end.
        assert not set(report.final_members) & set(report.plan.initial)


class TestStormWithLeaseReads:
    def test_joincrash_with_lease_reads_active(self, tmp_path):
        report = run_and_assert(tmp_path, "joincrash", read_mode="lease")
        # Lease mode is held to full linearizability under the storm,
        # and the fast path actually served reads while epochs churned.
        assert report.linearizable.ok
        lease_reads = sum(
            node.get("smr.lease_reads", 0) for node in report.counters.values()
        )
        assert lease_reads > 0, report.counters
