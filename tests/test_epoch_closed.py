"""A closed epoch answers its stragglers.

Members stop a sealed epoch's engine ``ENGINE_GC_GRACE`` after executing
it. A replica that missed the cut - partitioned past the grace - then
hears from nobody about that epoch again, so a closed epoch answers any
engine traffic for it with ``EpochClosed``: the successor configuration
and where its boundary lives. A retiree learns it is retired; a member
of the successor fetches the boundary and executes again. A sender that
executed the epoch fully says so by its envelope, and is not answered.
"""

from types import SimpleNamespace

import pytest

from benchmarks.sim_plans import run_plan
from repro.bench.harness import run_experiment
from repro.errors import VerificationError
from repro.faults import FailureSchedule
from repro.types import Configuration, Membership
from repro.verify.invariants import check_convergence
from repro.workload.schedules import ReconfigStep, storm


@pytest.mark.parametrize("seed", [1, 2])
def test_a_deposed_leader_learns_it_was_retired(seed):
    # The chaos plan cuts the leader n1 off and moves the service to
    # n2, n3, n4; the heal comes more than the grace after the seal.
    plan, result, _ = run_plan("chaos", seed)
    assert plan.steps[0].members == ("n2", "n3", "n4")
    deposed = result.service.replicas["n1"]
    assert deposed.is_retired
    assert deposed.newest_epoch == 1
    assert result.sim.network.stats.by_type["EpochClosed"] > 0


def partitioned_member(heal_at):
    """``n3`` stays a member of the new configuration but is cut off from
    0.5 s, before the seal, until ``heal_at``."""
    failures = (
        FailureSchedule()
        .partition(0.5, "iso", ["n3"], ["n1", "n2", "n4"])
        .heal(heal_at, "iso")
    )
    result = run_experiment(
        "speculative", seed=1, clients=2, run_for=4.0, failures=failures,
        schedule=[ReconfigStep(0.8, ("n1", "n2", "n3", "n4"))],
    )
    result.sim.run(until=result.sim.now + 2.0)
    return result.service.replicas


def test_only_a_sender_that_missed_the_cut_is_answered():
    # T5's sequencer storm: members keep a closed epoch's engine for the
    # grace, and its heartbeats reach peers that stopped theirs. Those
    # peers used to answer all of them (5 answers, none of them news).
    sequencer = run_experiment(
        "speculative", seed=42, clients=4, run_for=5.4, preload=5_000, trace=True,
        engine="sequencer", schedule=storm(["n1", "n2", "n3"], 1.0, 0.8, 3, first_fresh=4),
    )
    # n3, cut off past the grace, is a sender the answer is for.
    straggler = run_experiment(
        "speculative", seed=1, clients=2, run_for=4.0, trace=True,
        failures=FailureSchedule().partition(0.5, "iso", ["n3"], ["n1", "n2", "n4"])
        .heal(3.0, "iso"),
        schedule=[ReconfigStep(0.8, ("n1", "n2", "n3", "n4"))],
    )
    for result in (sequencer, straggler):
        sent = result.sim.network.stats.by_type.get("EpochClosed", 0)
        assert sent == result.sim.trace.count("epoch-closed")
    assert straggler.sim.trace.count("epoch-closed") > 0


@pytest.mark.parametrize("heal_at", [1.5, 3.0])
def test_a_member_cut_off_past_the_grace_executes_again(heal_at):
    # Healed at 3.0 s, long after the others stopped epoch 0's engine,
    # n3 used to stay at epoch 0 for good (virtual index 83 against 1,922).
    replicas = partitioned_member(heal_at)
    assert {r.exec_epoch for r in replicas.values()} == {1}
    assert len({r.virtual_index for r in replicas.values()}) == 1
    check_convergence(replicas.values())


def stub(node, exec_epoch, newest):
    runtime = SimpleNamespace(start_state_ready=True)
    return SimpleNamespace(
        node=node, crashed=False, exec_epoch=exec_epoch, newest_epoch=newest.epoch,
        newest_config=newest, is_retired=node not in newest.members,
        epoch_runtime=lambda epoch: runtime if epoch <= newest.epoch else None,
    )


class TestConvergenceCheck:
    OLD = Configuration(0, Membership.of("n1", "n2", "n3"))
    NEW = Configuration(1, Membership.of("n2", "n3", "n4"))

    def test_everyone_caught_up_passes(self):
        replicas = [stub("n1", 0, self.NEW)] + [
            stub(n, 1, self.NEW) for n in ("n2", "n3", "n4")
        ]
        assert check_convergence(replicas) == 4

    def test_a_member_left_in_a_closed_epoch_fails(self):
        replicas = [stub(n, 1, self.NEW) for n in ("n2", "n4")]
        replicas.append(stub("n3", 0, self.NEW))
        with pytest.raises(VerificationError, match="n3 is a member of epoch 1"):
            check_convergence(replicas)

    def test_a_retiree_that_does_not_know_it_fails(self):
        replicas = [stub(n, 1, self.NEW) for n in ("n2", "n3", "n4")]
        replicas.append(stub("n1", 0, self.OLD))
        with pytest.raises(VerificationError, match="n1 left epoch 1"):
            check_convergence(replicas)

    def test_crashed_replicas_are_not_checked(self):
        behind = stub("n3", 0, self.NEW)
        behind.crashed = True
        assert check_convergence([stub("n2", 1, self.NEW), behind]) == 1
