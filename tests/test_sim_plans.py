"""One plan, two backends: every storm plan runs in the sim.

A single-group plan's own initial members, steps and failure schedule go
to ``run_experiment`` with no adapter and no action filtered out - the
``overlap`` cell's delayed links included - and the run is gated by
``verify_run``: Wing-Gong, the structural invariants, the log replay and
the liveness check against the plan. The sharded plans (``shard``,
``director``) run on sim shard clients over two data groups and a
metadir group, gated by Wing-Gong, each group's invariants and replay,
the map chain and an empty pending set. ``benchmarks/sim_plans.py`` runs
the same gates over a wider seed range.
"""

from types import SimpleNamespace

import pytest

from benchmarks.sim_plans import CELLS, REQUEST_TIMEOUT, run_plan
from repro.errors import VerificationError
from repro.net.storm import SHARD_STORM_SCENARIOS
from repro.faults import FailureSchedule
from repro.types import CommandId, client_id
from repro.verify.histories import History, Operation
from repro.verify.invariants import check_liveness
from repro.workload.schedules import ReconfigStep


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cell", CELLS)
def test_storm_plan_runs_verified_in_the_sim(cell, seed):
    plan, result, report = run_plan(cell, seed)
    assert report.operations > 1000 and report.kv_keys_checked > 0
    assert report.pending_operations == 0
    if cell not in SHARD_STORM_SCENARIOS:
        # On the commit before restarted replicas voted again, the chaos
        # cell stalled 2.0-2.9 s here: no quorum once the leader was cut
        # off. (A sharded stall is reported, not bounded: the director
        # cell holds its move 0.9 s by design.)
        assert report.stalled_s <= 2 * REQUEST_TIMEOUT
    # Every rule the plan installed was healed by the plan.
    assert result.sim.network.policy.active() == []
    # rolling replaces every founding member, so nothing is replayable;
    # every other cell, sharded ones included, replays acks.
    assert (report.replayed > 0) == (cell != "rolling")


def completions(*times):
    return History([
        Operation(CommandId(client_id("c"), i + 1), "set", ("k", i),
                  at - 0.001, at, "ok")
        for i, at in enumerate(times)
    ])


def plan(schedule, steps=()):
    return SimpleNamespace(initial=("n1", "n2", "n3"), steps=steps,
                           schedule=schedule)


class TestLiveness:
    def test_a_stall_with_a_connected_quorum_fails(self):
        schedule = FailureSchedule().crash(1.0, "n2")  # n1 + n3 remain
        with pytest.raises(VerificationError, match="1.000s to 3.000s"):
            check_liveness(completions(0.5, 1.0, 3.0, 4.0), plan(schedule),
                           0.0, 4.0, bound=1.0)

    def test_a_stall_without_a_quorum_is_excused(self):
        schedule = (
            FailureSchedule()
            .crash(1.0, "n2")
            .partition(1.0, "cut", ["n1"], ["n3"])
            .heal(2.8, "cut")
        )
        # Silent 1.0-3.0 s, but a quorum exists only from 2.8 s on.
        stalled = check_liveness(completions(0.5, 1.0, 3.0, 4.0),
                                 plan(schedule), 0.0, 4.0, bound=1.0)
        assert stalled == pytest.approx(1.0)

    def test_one_way_drops_and_restarts_count(self):
        schedule = (
            FailureSchedule()
            .crash(1.0, "n2")
            .drop_link(1.0, "mute", "n3", "n1")
            .restart(2.5, "n2")
        )
        # n1 -> n3 flows but n3 -> n1 does not: no connected majority
        # until n2 is back at 2.5 s, so the stall counts from there.
        with pytest.raises(VerificationError, match="2.500s to 4.000s"):
            check_liveness(completions(0.5, 1.0, 4.0), plan(schedule),
                           0.0, 4.0, bound=1.0)

    def test_the_current_configuration_follows_the_steps(self):
        # n1 is down and n2 | n3 are cut apart, but the step at 1.0 s moved
        # the service to n3, n4, n5, which stay connected: only the steps
        # decide whether the stall is excused.
        schedule = (
            FailureSchedule().crash(0.5, "n1").partition(0.5, "cut", ["n2"], ["n3"])
        )
        steps = (ReconfigStep(1.0, ("n3", "n4", "n5")),)
        history = completions(0.4, 3.0)
        stalled = check_liveness(history, plan(schedule), 0.0, 3.0, 1.0)
        assert stalled == pytest.approx(0.4)
        with pytest.raises(VerificationError, match="1.000s to 3.000s"):
            check_liveness(history, plan(schedule, steps), 0.0, 3.0, 1.0)

    def test_the_window_edge_is_charged(self):
        with pytest.raises(VerificationError):
            check_liveness(completions(0.5), plan(FailureSchedule()),
                           0.0, 2.0, bound=1.0)
