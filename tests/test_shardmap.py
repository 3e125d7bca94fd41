"""Unit tests for the shard-map algebra (pure, no I/O)."""

import pytest

from repro.shard.shardmap import (
    HASH_SPACE,
    GroupInfo,
    KeyRange,
    ShardError,
    ShardMap,
    format_ranges,
    key_point,
    parse_ranges,
)


def infos(*names: str) -> tuple[GroupInfo, ...]:
    return tuple(
        GroupInfo(name, ("n1", "n2", "n3"), {"n1": ("127.0.0.1", 9101)})
        for name in names
    )


class TestKeyPoint:
    def test_deterministic_and_in_range(self):
        for key in ("", "a", "key-001", "käse", "x" * 100):
            point = key_point(key)
            assert point == key_point(key)
            assert 0 <= point < HASH_SPACE

    def test_spreads_over_space(self):
        points = {key_point(f"key-{i}") for i in range(200)}
        # CRC-32 over 2^16 points: 200 keys should hit many distinct points
        # and span well beyond one quarter of the space.
        assert len(points) > 190
        assert max(points) - min(points) > HASH_SPACE // 2


class TestKeyRange:
    def test_bounds_validated(self):
        with pytest.raises(ShardError):
            KeyRange(5, 5)
        with pytest.raises(ShardError):
            KeyRange(-1, 5)
        with pytest.raises(ShardError):
            KeyRange(0, HASH_SPACE + 1)

    def test_contains_is_half_open(self):
        r = KeyRange(10, 20)
        assert r.contains(10) and r.contains(19)
        assert not r.contains(20) and not r.contains(9)
        assert r.width == 10 and r.midpoint == 15


class TestInitialMap:
    def test_even_partition_covers_space(self):
        shard_map = ShardMap.initial(infos("g1", "g2", "g3"))
        shard_map.validate()
        widths = [a.range.width for a in shard_map.assignments]
        assert sum(widths) == HASH_SPACE
        assert max(widths) - min(widths) <= 1
        assert [a.group for a in shard_map.assignments] == ["g1", "g2", "g3"]

    def test_spare_groups_own_nothing(self):
        shard_map = ShardMap.initial(infos("g1", "g2", "g3"), serving=["g1", "g2"])
        assert shard_map.ranges_of("g3") == ()
        # But the spare is still addressable (a future split target).
        assert shard_map.group_info("g3").name == "g3"

    def test_unknown_serving_group_rejected(self):
        with pytest.raises(ShardError):
            ShardMap.initial(infos("g1"), serving=["g9"])

    def test_every_point_routes_to_one_group(self):
        shard_map = ShardMap.initial(infos("g1", "g2", "g3"))
        for point in (0, 1, HASH_SPACE // 3, HASH_SPACE // 2, HASH_SPACE - 1):
            assert shard_map.group_for_point(point) in ("g1", "g2", "g3")
        with pytest.raises(ShardError):
            shard_map.group_for_point(HASH_SPACE)
        with pytest.raises(ShardError):
            shard_map.group_for_point(-1)


class TestWithMove:
    def test_move_carves_and_bumps_version(self):
        shard_map = ShardMap.initial(infos("g1", "g2"))
        moved = shard_map.with_move(100, 200, "g2")
        assert moved.version == shard_map.version + 1
        assert moved.group_for_point(150) == "g2"
        assert moved.group_for_point(99) == "g1"
        assert moved.group_for_point(200) == "g1"
        moved.validate()

    def test_move_coalesces_adjacent_ranges(self):
        shard_map = ShardMap.initial(infos("g1", "g2"))
        boundary = shard_map.assignments[0].range.hi
        # Move the tail of g1's range to g2: it merges with g2's range.
        moved = shard_map.with_move(boundary - 100, boundary, "g2")
        assert len(moved.assignments) == 2
        assert moved.ranges_of("g2") == (KeyRange(boundary - 100, HASH_SPACE),)

    def test_move_spanning_two_owners_rejected(self):
        shard_map = ShardMap.initial(infos("g1", "g2"))
        boundary = shard_map.assignments[0].range.hi
        with pytest.raises(ShardError):
            shard_map.with_move(boundary - 10, boundary + 10, "g1")

    def test_version_must_increase(self):
        shard_map = ShardMap.initial(infos("g1", "g2"), version=5)
        with pytest.raises(ShardError):
            shard_map.with_move(0, 10, "g2", version=5)
        assert shard_map.with_move(0, 10, "g2", version=9).version == 9

    def test_move_to_unknown_group_rejected(self):
        shard_map = ShardMap.initial(infos("g1"))
        with pytest.raises(ShardError):
            shard_map.with_move(0, 10, "nope")

    def test_repeated_splits_stay_valid(self):
        shard_map = ShardMap.initial(infos("g1", "g2", "g3"), serving=["g1"])
        for target in ("g2", "g3", "g2", "g3"):
            widest = shard_map.widest_range_of("g1")
            shard_map = shard_map.with_move(
                widest.midpoint, widest.hi, target
            )
            shard_map.validate()
        assert shard_map.version == 5
        assert {a.group for a in shard_map.assignments} == {"g1", "g2", "g3"}


class TestWithGroup:
    def test_membership_update_bumps_version(self):
        shard_map = ShardMap.initial(infos("g1", "g2"))
        grown = shard_map.with_group(
            GroupInfo("g2", ("n1", "n2", "n3", "n4"), {"n1": ("h", 1)})
        )
        assert grown.version == shard_map.version + 1
        assert grown.group_info("g2").members == ("n1", "n2", "n3", "n4")
        assert grown.assignments == shard_map.assignments

    def test_unknown_group_rejected(self):
        shard_map = ShardMap.initial(infos("g1"))
        with pytest.raises(ShardError):
            shard_map.with_group(GroupInfo("g9", ("n1",), {"n1": ("h", 1)}))


class TestValidate:
    def test_gap_rejected(self):
        shard_map = ShardMap.initial(infos("g1", "g2"))
        from repro.shard.shardmap import ShardAssignment

        broken = ShardMap(
            2,
            (ShardAssignment(KeyRange(0, 10), "g1"),
             ShardAssignment(KeyRange(20, HASH_SPACE), "g2")),
            shard_map.groups,
        )
        with pytest.raises(ShardError):
            broken.validate()

    def test_duplicate_group_names_rejected(self):
        duplicated = ShardMap.initial(infos("g1"))
        broken = ShardMap(
            1, duplicated.assignments, duplicated.groups * 2
        )
        with pytest.raises(ShardError):
            broken.validate()


class TestSpread:
    def test_counts_sum_to_keys(self):
        shard_map = ShardMap.initial(infos("g1", "g2", "g3"))
        keys = [f"key-{i}" for i in range(100)]
        spread = shard_map.spread(keys)
        assert sum(spread.values()) == 100
        assert all(count > 0 for g, count in spread.items())


class TestRangeFormat:
    def test_round_trip(self):
        ranges = ((0, 100), (200, HASH_SPACE))
        assert parse_ranges(format_ranges(ranges)) == ranges
        assert parse_ranges("") == ()
        assert format_ranges([KeyRange(5, 10)]) == "5-10"

    def test_bad_spec_rejected(self):
        with pytest.raises(ShardError):
            parse_ranges("10")
        with pytest.raises(ShardError):
            parse_ranges("20-10")
