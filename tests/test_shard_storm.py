"""Unit tests for the sharded storm cells (no live cluster).

Mirrors ``test_storm.py`` for the sharded members of the storm family:
plan determinism and shape, the dispatch seam through the data-plane
``build_storm_plan``, and the map-chain linearity oracle the director
cell gates on — the one check that would catch a double-install (a
skipped or repeated map version) even when every individual operation
looks fine.
"""

import pytest

from repro.net.storm import STORM_SCENARIOS, build_storm_plan
from repro.shard.storm import (
    SHARD_STORM_SCENARIOS,
    build_shard_storm_plan,
    check_chain_linear,
)


class TestPlanDeterminism:
    @pytest.mark.parametrize("scenario", SHARD_STORM_SCENARIOS)
    def test_same_seed_same_bytes(self, scenario):
        a = build_shard_storm_plan(scenario, seed=99).to_json()
        b = build_shard_storm_plan(scenario, seed=99).to_json()
        assert a == b

    @pytest.mark.parametrize("scenario", SHARD_STORM_SCENARIOS)
    def test_different_seeds_differ(self, scenario):
        a = build_shard_storm_plan(scenario, seed=1).to_json()
        b = build_shard_storm_plan(scenario, seed=2).to_json()
        assert a != b

    @pytest.mark.parametrize("scenario", SHARD_STORM_SCENARIOS)
    def test_dispatched_through_the_storm_family_front_door(self, scenario):
        # `repro storm director` goes through net.storm's builder; the
        # sharded scenarios must come back byte-identical through it.
        front = build_storm_plan(scenario, seed=7).to_json()
        direct = build_shard_storm_plan(scenario, seed=7).to_json()
        assert front == direct

    def test_families_do_not_overlap(self):
        assert not set(STORM_SCENARIOS) & set(SHARD_STORM_SCENARIOS)
        with pytest.raises(ValueError):
            build_shard_storm_plan("overlap", seed=1)


class TestPlanShapes:
    def test_director_plan_is_split_then_move_back(self):
        plan = build_shard_storm_plan("director", seed=42)
        assert [step.members[0] for step in plan.steps] == [
            "split", "move-back",
        ]
        # The second step trails the first by enough for the failover
        # (hold + takeover + replayed cutover) to complete in between.
        assert plan.steps[1].time - plan.steps[0].time > 1.5
        # The kill is condition-triggered, not scheduled: the window it
        # aims at (retired, not installed) has no wall-clock address.
        assert not plan.schedule.sorted_actions()

    def test_shard_plan_races_membership_against_the_move(self):
        plan = build_shard_storm_plan("shard", seed=42)
        ops = [step.members[0] for step in plan.steps]
        assert ops == ["add-replica", "split", "remove-replica"]
        offsets = [step.time for step in plan.steps]
        assert offsets == sorted(offsets)
        assert plan.duration > offsets[-1]

    def test_scale_stretches_offsets(self):
        base = build_shard_storm_plan("shard", seed=3, scale=1.0)
        wide = build_shard_storm_plan("shard", seed=3, scale=2.0)
        assert wide.steps[0].time > base.steps[0].time


class TestChainOracle:
    def test_accepts_a_linear_chain(self):
        chain = tuple(
            {"version": v, "kind": "move", "detail": ""} for v in (1, 2, 3)
        )
        assert check_chain_linear(chain) is None

    def test_rejects_a_gap(self):
        chain = tuple(
            {"version": v, "kind": "move", "detail": ""} for v in (1, 3)
        )
        assert "not linear" in check_chain_linear(chain)

    def test_rejects_a_double_install(self):
        # The failure the intent protocol exists to prevent: two drivers
        # both completing would archive the same version twice.
        chain = tuple(
            {"version": v, "kind": "move", "detail": ""} for v in (1, 2, 2)
        )
        assert check_chain_linear(chain) is not None

    def test_rejects_an_empty_chain(self):
        assert check_chain_linear(()) is not None
