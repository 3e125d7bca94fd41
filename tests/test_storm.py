"""Unit tests for the reconfiguration-storm suite (no live cluster).

Covers the three properties the live storm runs lean on:

* **plan determinism** — same seed, byte-identical plan (injection order
  AND reconfigure timings), so a failing storm is replayable;
* **metric correctness** — the unavailability window and hand-off
  latency are computed from recorded data by plain code; get the units
  wrong here and every BENCH_storm number is fiction;
* **gate integrity** — the report's ``ok`` every run goes through must
  actually REJECT a non-linearizable history, an unacknowledged step and
  a failed topology check (a gate that waves everything through would
  make the whole suite theatre). This is the positive control: the
  end-to-end runs only ever show it passing.
"""

import pytest

from repro.net.chaos import Injection
from repro.types import CommandId, client_id
from repro.verify.histories import History, Operation
from repro.verify.linearizability import check_kv_linearizable
from repro.net.storm import (
    STORM_SCENARIOS,
    StormReport,
    availability_windows,
    build_storm_plan,
    handoff_latencies,
)


def op(client, seq, kind, args, inv, ret, value):
    return Operation(
        cid=CommandId(client_id(client), seq),
        op=kind,
        args=args,
        invoked_at=inv,
        returned_at=ret,
        value=value,
    )


class TestPlanDeterminism:
    @pytest.mark.parametrize("scenario", STORM_SCENARIOS)
    def test_same_seed_same_bytes(self, scenario):
        a = build_storm_plan(scenario, seed=99).to_json()
        b = build_storm_plan(scenario, seed=99).to_json()
        assert a == b
        assert a.encode() == b.encode()

    @pytest.mark.parametrize("scenario", STORM_SCENARIOS)
    def test_different_seeds_differ(self, scenario):
        a = build_storm_plan(scenario, seed=1).to_json()
        b = build_storm_plan(scenario, seed=2).to_json()
        assert a != b

    def test_schedule_actions_sorted_deterministically(self):
        plan = build_storm_plan("joincrash", seed=5)
        actions = plan.schedule.sorted_actions()
        assert actions == plan.schedule.sorted_actions()
        assert [a.time for a in actions] == sorted(a.time for a in actions)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_storm_plan("thundering-herd", seed=1)


class TestPlanShapes:
    def test_overlap_issues_back_to_back_reconfigs(self):
        plan = build_storm_plan("overlap", seed=42)
        assert len(plan.steps) == 2
        gap = plan.steps[1].time - plan.steps[0].time
        # The whole point: the second RECONFIGURE lands well inside the
        # window the delayed links keep the first join's transfer open.
        assert gap < 0.6
        heals = [a for a in plan.schedule.sorted_actions()
                 if type(a).__name__ == "HealAt"]
        assert heals and all(a.time > plan.steps[1].time for a in heals)

    def test_rolling_replaces_every_member(self):
        plan = build_storm_plan("rolling", seed=42)
        assert len(plan.steps) == len(plan.initial)
        assert not set(plan.final_members()) & set(plan.initial)

    def test_joincrash_races_the_join(self):
        plan = build_storm_plan("joincrash", seed=42)
        crashes = [a for a in plan.schedule.sorted_actions()
                   if type(a).__name__ == "CrashAt"]
        assert {str(a.node) for a in crashes} == {
            plan.initial[0], plan.joiners[0]
        }
        r1 = plan.steps[0].time
        assert all(r1 < a.time < plan.steps[1].time for a in crashes)

    @pytest.mark.parametrize("scenario", STORM_SCENARIOS)
    def test_contacts_are_never_disturbed(self, scenario):
        plan = build_storm_plan(scenario, seed=42)
        disturbed = {
            str(a.node) for a in plan.schedule.sorted_actions()
            if hasattr(a, "node")
        }
        assert plan.contacts
        assert not set(plan.contacts) & disturbed

    def test_scale_stretches_offsets(self):
        base = build_storm_plan("rolling", seed=3, scale=1.0)
        wide = build_storm_plan("rolling", seed=3, scale=2.0)
        assert wide.duration > base.duration
        for narrow_step, wide_step in zip(base.steps, wide.steps):
            assert wide_step.time > narrow_step.time


class TestAvailabilityWindows:
    def test_max_gap_between_completions(self):
        ops = [
            op("c", 1, "set", ("k", 1), 0.0, 0.1, "ok"),
            op("c", 2, "set", ("k", 2), 0.1, 0.2, "ok"),
            op("c", 3, "set", ("k", 3), 1.1, 1.2, "ok"),  # 1.0s silence
        ]
        window = availability_windows(ops, start=0.0, end=1.5)
        assert window["max_gap_s"] == pytest.approx(1.0, abs=1e-6)
        assert window["completed"] == 3
        assert window["failed_or_pending"] == 0
        assert window["window_s"] == pytest.approx(1.5)

    def test_silence_until_the_window_edge_is_charged(self):
        # A storm the service never recovers from is charged up to the
        # window edge, not forgiven because nothing completed after it.
        ops = [op("c", 1, "set", ("k", 1), 0.0, 0.2, "ok")]
        window = availability_windows(ops, start=0.0, end=3.0)
        assert window["max_gap_s"] == pytest.approx(2.8)

    def test_pending_ops_counted_but_not_completions(self):
        ops = [
            op("c", 1, "set", ("k", 1), 0.0, 0.5, "ok"),
            op("c", 2, "set", ("k", 2), 0.5, None, None),
        ]
        window = availability_windows(ops, start=0.0, end=1.0)
        assert window["completed"] == 1
        assert window["failed_or_pending"] == 1

    def test_completions_after_the_window_are_ignored(self):
        ops = [
            op("c", 1, "set", ("k", 1), 0.0, 0.1, "ok"),
            op("c", 2, "set", ("k", 2), 0.1, 9.0, "ok"),  # settled tail
        ]
        window = availability_windows(ops, start=0.0, end=1.0)
        assert window["max_gap_s"] == pytest.approx(0.9)

    def test_empty_history(self):
        window = availability_windows([], start=0.0, end=2.0)
        assert window["max_gap_s"] == pytest.approx(2.0)
        assert window["completed"] == 0


class TestHandoffLatencies:
    def test_cluster_level_width_uses_earliest_phases(self):
        spans = {
            "n1": {"1": {"decided": 1.00, "first-commit": 1.40}},
            "n2": {"1": {"decided": 1.02, "first-commit": 1.10}},
        }
        latency = handoff_latencies(spans)
        # earliest first-commit (1.10, n2) minus earliest decided (1.00, n1):
        # a single node's span width would over-count the hand-off.
        assert latency["per_epoch_s"]["1"] == pytest.approx(0.1)
        assert latency["count"] == 1
        assert latency["max_s"] == pytest.approx(0.1)

    def test_incomplete_spans_are_skipped(self):
        spans = {
            "n1": {"1": {"decided": 1.0, "first-commit": 1.2},
                   "2": {"decided": 2.0}},  # aborted mid-transfer
        }
        latency = handoff_latencies(spans)
        assert list(latency["per_epoch_s"]) == ["1"]

    def test_empty_spans(self):
        latency = handoff_latencies({})
        assert latency["count"] == 0
        assert latency["max_s"] is None
        assert latency["mean_s"] is None


def make_report(**changes) -> StormReport:
    """A chaos-cell report where everything went right, then ``changes``."""
    plan = build_storm_plan("chaos", seed=42)
    fields = dict(
        plan=plan,
        read_mode=None,
        linearizable=check_kv_linearizable(History([])),
        history=History([]),
        injections=[
            Injection(a.time, a.time, a, ())
            for a in plan.schedule.sorted_actions()
        ],
        reconfigs=[
            {"offset": s.time, "members": list(s.members),
             "applied_at": s.time + 0.1, "ok": True}
            for s in plan.steps
        ],
        elapsed=7.0,
        log_dir="logs",
    )
    fields.update(changes)
    return StormReport(**fields)


def storm_verdict(history, read_mode):
    """The raw Wing–Gong verdict and the gate of a report over it."""
    result = check_kv_linearizable(history)
    report = make_report(history=history, linearizable=result, read_mode=read_mode)
    return result, report.ok


class TestStormVerdict:
    def good_history(self):
        return History([
            op("a", 1, "set", ("k", 1), 0.0, 0.1, "ok"),
            op("a", 2, "get", ("k",), 0.2, 0.3, 1),
        ])

    def bad_history(self):
        """A stale read: k=2 committed strictly before the get began."""
        return History([
            op("a", 1, "set", ("k", 1), 0.0, 0.1, "ok"),
            op("a", 2, "set", ("k", 2), 0.2, 0.3, "ok"),
            op("b", 1, "get", ("k",), 0.4, 0.5, 1),
        ])

    def test_accepts_a_linearizable_history(self):
        result, ok = storm_verdict(self.good_history(), read_mode=None)
        assert result.ok and ok

    def test_positive_control_rejects_a_stale_read(self):
        # The oracle gate must have teeth: hand it a history that is NOT
        # linearizable and watch it fail, raw verdict and gate both.
        result, ok = storm_verdict(self.bad_history(), read_mode=None)
        assert not result.ok
        assert not ok
        assert result.failing_key == "k"

    def test_follower_mode_gates_on_progress_not_linearizability(self):
        # Bounded-staleness reads are stale by design; the gate passes on
        # progress while the raw verdict still records the staleness.
        result, ok = storm_verdict(self.bad_history(), read_mode="follower")
        assert not result.ok
        assert ok

    def test_lease_mode_is_held_to_full_linearizability(self):
        result, ok = storm_verdict(self.bad_history(), read_mode="lease")
        assert not ok


class TestReportGate:
    def test_a_clean_run_passes(self):
        assert make_report().ok

    def test_an_unacknowledged_step_fails_the_run(self):
        # The standalone chaos loop passed a RECONFIGURE that raised.
        step = dict(make_report().reconfigs[0], ok=False, error="timed out")
        report = make_report(reconfigs=[step])
        assert not report.reconfigured and not report.ok
        assert "FAILED: timed out" in "\n".join(report.lines())
        # A step the driver never reached counts the same.
        assert not make_report(reconfigs=[]).ok

    def test_a_failed_topology_check_fails_the_run(self):
        report = make_report(failed_checks=["map chain not linear/gapless"])
        assert not report.ok
