"""The shard map: a versioned key-range → group assignment.

Keys are mapped to **hash points** in a fixed space ``[0, HASH_SPACE)``
via CRC-32 (:func:`key_point`) — deterministic across processes, unlike
Python's salted ``hash()``. A :class:`ShardMap` partitions that space
into half-open :class:`KeyRange`\\ s, each owned by one group, and names
every group's replica address book so a client holding the map can route
without any central hop.

Maps are immutable values: every change (a :meth:`ShardMap.with_move`)
produces a new map with a strictly larger ``version``. Versions are what
make stale caches safe — a replica that rejects an op for a key it no
longer owns quotes the version of the move that took the range away, and
clients only ever adopt maps/hints with larger versions than their cache.

The map algebra here is pure (no I/O): the authoritative copy lives in
:class:`~repro.shard.metadir.MetaDirStateMachine`, cached copies in
:class:`~repro.shard.client.ShardClient`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ReproError

#: number of hash points; 2^16 keeps range bounds readable in traces
#: while being far finer than any realistic group count.
HASH_SPACE = 1 << 16


class ShardError(ReproError):
    """Invalid shard map, assignment, or routing request."""


def key_point(key: str) -> int:
    """Deterministic hash point of ``key`` in ``[0, HASH_SPACE)``.

    CRC-32 rather than ``hash()``: Python string hashing is salted per
    process, and every replica, client, and director must agree on where
    a key lives.
    """
    return zlib.crc32(str(key).encode("utf-8")) % HASH_SPACE


@dataclass(frozen=True, slots=True)
class KeyRange:
    """A half-open range ``[lo, hi)`` of hash points."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi <= HASH_SPACE):
            raise ShardError(f"invalid key range [{self.lo}, {self.hi})")

    def contains(self, point: int) -> bool:
        return self.lo <= point < self.hi

    def covers(self, other: "KeyRange") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    @property
    def midpoint(self) -> int:
        return self.lo + self.width // 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo},{self.hi})"


@dataclass(frozen=True, slots=True)
class ShardAssignment:
    """One range → group edge of the map."""

    range: KeyRange
    group: str


@dataclass(frozen=True, slots=True)
class GroupInfo:
    """Everything a client needs to talk to one group.

    ``members`` are the group's *initial* epoch-0 members; the address
    book includes reserved joiner names too, so group-internal
    reconfigurations never make the group unreachable from a stale map
    (the per-group :class:`~repro.net.client.LiveClient` chases
    ``Redirect`` replies through the same book).
    """

    name: str
    members: tuple[str, ...]
    addresses: dict[str, tuple[str, int]]


@dataclass(frozen=True, slots=True)
class ShardMap:
    """A versioned, total assignment of the hash space to groups.

    ``assignments`` are sorted by range and cover ``[0, HASH_SPACE)``
    exactly; ``groups`` may include **spare** groups that currently own
    nothing (the targets of future splits). Construct with
    :meth:`initial`, evolve with :meth:`with_move`; both validate.
    """

    version: int
    assignments: tuple[ShardAssignment, ...]
    groups: tuple[GroupInfo, ...]

    # -- construction -------------------------------------------------------

    @classmethod
    def initial(
        cls,
        groups: Iterable[GroupInfo],
        serving: Iterable[str] | None = None,
        version: int = 1,
    ) -> "ShardMap":
        """An even partition of the hash space over ``serving`` groups.

        ``serving`` defaults to every group; name spare groups by passing
        a subset. Ranges differ by at most one point when the space does
        not divide evenly.
        """
        infos = tuple(groups)
        names = [g.name for g in infos]
        owners = list(serving) if serving is not None else list(names)
        if not owners:
            raise ShardError("need at least one serving group")
        for owner in owners:
            if owner not in names:
                raise ShardError(f"serving group {owner!r} has no GroupInfo")
        step, extra = divmod(HASH_SPACE, len(owners))
        assignments = []
        lo = 0
        for i, owner in enumerate(owners):
            hi = lo + step + (1 if i < extra else 0)
            assignments.append(ShardAssignment(KeyRange(lo, hi), owner))
            lo = hi
        shard_map = cls(version, tuple(assignments), infos)
        shard_map.validate()
        return shard_map

    def validate(self) -> None:
        """Raise :class:`ShardError` unless the map is a true partition."""
        if self.version < 0:
            raise ShardError(f"negative map version {self.version}")
        names = {g.name for g in self.groups}
        if len(names) != len(self.groups):
            raise ShardError("duplicate group names in shard map")
        if not self.assignments:
            raise ShardError("shard map assigns nothing")
        expected_lo = 0
        for assignment in self.assignments:
            if assignment.group not in names:
                raise ShardError(
                    f"assignment {assignment.range} names unknown group "
                    f"{assignment.group!r}"
                )
            if assignment.range.lo != expected_lo:
                raise ShardError(
                    f"gap or overlap at point {expected_lo}: next range is "
                    f"{assignment.range}"
                )
            expected_lo = assignment.range.hi
        if expected_lo != HASH_SPACE:
            raise ShardError(
                f"assignments cover [0, {expected_lo}), not the full space"
            )

    # -- routing ------------------------------------------------------------

    def assignment_at(self, point: int) -> ShardAssignment:
        """The assignment owning ``point`` (binary search)."""
        if not 0 <= point < HASH_SPACE:
            raise ShardError(f"hash point {point} outside the space")
        lo, hi = 0, len(self.assignments)
        while lo < hi:
            mid = (lo + hi) // 2
            assignment = self.assignments[mid]
            if point < assignment.range.lo:
                hi = mid
            elif point >= assignment.range.hi:
                lo = mid + 1
            else:
                return assignment
        raise ShardError(f"no assignment covers point {point}")  # pragma: no cover

    def group_for_point(self, point: int) -> str:
        return self.assignment_at(point).group

    def group_for_key(self, key: str) -> str:
        return self.group_for_point(key_point(key))

    def group_info(self, name: str) -> GroupInfo:
        for info in self.groups:
            if info.name == name:
                return info
        raise ShardError(f"unknown group {name!r}")

    def ranges_of(self, group: str) -> tuple[KeyRange, ...]:
        """Every range currently owned by ``group`` (may be empty)."""
        self.group_info(group)  # raises on unknown names
        return tuple(a.range for a in self.assignments if a.group == group)

    # -- evolution ----------------------------------------------------------

    def with_move(
        self, lo: int, hi: int, target: str, version: int | None = None
    ) -> "ShardMap":
        """A new map with ``[lo, hi)`` reassigned to ``target``.

        The moved range must lie inside a single current assignment (a
        move never merges ranges from two owners in one step). Adjacent
        same-group ranges are coalesced afterwards, so repeated splits
        and moves cannot fragment the map without bound. The new version
        is ``version`` (which must be larger) or ``self.version + 1``.
        """
        moved = KeyRange(lo, hi)
        self.group_info(target)
        new_version = self.version + 1 if version is None else version
        if new_version <= self.version:
            raise ShardError(
                f"version must increase: {self.version} -> {new_version}"
            )
        source = self.assignment_at(lo)
        if not source.range.covers(moved):
            raise ShardError(
                f"range {moved} spans beyond the single assignment "
                f"{source.range} owned by {source.group!r}"
            )
        pieces: list[ShardAssignment] = []
        for assignment in self.assignments:
            if assignment is not source:
                pieces.append(assignment)
                continue
            if source.range.lo < moved.lo:
                pieces.append(
                    ShardAssignment(
                        KeyRange(source.range.lo, moved.lo), source.group
                    )
                )
            pieces.append(ShardAssignment(moved, target))
            if moved.hi < source.range.hi:
                pieces.append(
                    ShardAssignment(
                        KeyRange(moved.hi, source.range.hi), source.group
                    )
                )
        coalesced: list[ShardAssignment] = []
        for piece in pieces:
            last = coalesced[-1] if coalesced else None
            if (
                last is not None
                and last.group == piece.group
                and last.range.hi == piece.range.lo
            ):
                coalesced[-1] = ShardAssignment(
                    KeyRange(last.range.lo, piece.range.hi), piece.group
                )
            else:
                coalesced.append(piece)
        shard_map = ShardMap(new_version, tuple(coalesced), self.groups)
        shard_map.validate()
        return shard_map

    def with_group(
        self, info: GroupInfo, version: int | None = None
    ) -> "ShardMap":
        """A new map with ``info`` replacing that group's GroupInfo.

        Used after a group-internal reconfiguration (replica added or
        removed) to publish the group's new membership; assignments are
        untouched but the version still increases so caches converge.
        """
        new_version = self.version + 1 if version is None else version
        if new_version <= self.version:
            raise ShardError(
                f"version must increase: {self.version} -> {new_version}"
            )
        if not any(g.name == info.name for g in self.groups):
            raise ShardError(f"unknown group {info.name!r}")
        groups = tuple(
            info if g.name == info.name else g for g in self.groups
        )
        shard_map = ShardMap(new_version, self.assignments, groups)
        shard_map.validate()
        return shard_map

    def widest_range_of(self, group: str) -> KeyRange:
        """The widest range ``group`` owns (the natural split candidate)."""
        ranges = self.ranges_of(group)
        if not ranges:
            raise ShardError(f"group {group!r} owns no range to split")
        return max(ranges, key=lambda r: r.width)

    def spread(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each serving group owns (routing census)."""
        counts: dict[str, int] = {info.name: 0 for info in self.groups}
        for key in keys:
            counts[self.group_for_key(key)] += 1
        return counts


def format_ranges(ranges: Iterable[tuple[int, int]] | Iterable[KeyRange]) -> str:
    """Render ranges as the ``lo-hi[,lo-hi...]`` CLI/serve argument."""
    parts = []
    for item in ranges:
        lo, hi = (item.lo, item.hi) if isinstance(item, KeyRange) else item
        parts.append(f"{lo}-{hi}")
    return ",".join(parts)


def parse_ranges(spec: str) -> tuple[tuple[int, int], ...]:
    """Parse the ``lo-hi[,lo-hi...]`` argument (empty = owns nothing)."""
    ranges: list[tuple[int, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lo_text, hi_text = part.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ShardError(f"bad range {part!r} (want lo-hi)") from None
        KeyRange(lo, hi)  # bounds check
        ranges.append((lo, hi))
    return tuple(sorted(ranges))
