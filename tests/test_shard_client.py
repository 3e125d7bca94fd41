"""ShardRouter rules and the live ShardClient loop (fake groups, no
subprocesses).

The smart client's correctness rests on three behaviours exercised here:

* a **stale-map redirect** with a usable hint patches exactly the moved
  slice of the cached map and retries at the new owner — no director hop;
* **adoption is version-gated**: a slow read returning an older map can
  never clobber a newer one, and a hint is news only past the cache;
* a placement ends **only at its deadline**: a cutover that stays
  pending longer than any redirect count is placed once it lands, a
  ping-pong that never advances a version backs off until the deadline,
  and a map read gets the time left, not a fixed budget.

The router cases call :class:`ShardRouter` directly: no threads, no
sleeps. The loop cases drive :class:`ShardClient`.

Groups are faked through ``client_factory``: each fake consults a shared
"world" map (the authoritative truth) and answers WrongShard exactly the
way a live sharded group would — with a hint when the world moved the
range away from the fake's group, without one when the fake never owned
the point.

The director handle is the real :class:`ReplicatedShardDirector` (its
read checks what the group answers), but its client is faked:
:func:`fake_director` answers each command from a bare
:class:`MetaDirStateMachine` (no consensus under it) whose map the test
swaps the way an executed command would.
"""

import time

import pytest

from repro.core.client import ClientReply
from repro.net.client import MIN_ATTEMPT_BUDGET, LiveClientError
from repro.shard.client import (
    BACKOFF,
    READ,
    RETRY,
    ShardClient,
    ShardClientError,
    ShardRouter,
)
from repro.shard.messages import WrongShard
from repro.shard.metadir import MetaDirStateMachine, ReplicatedShardDirector
from repro.shard.shardmap import (
    HASH_SPACE,
    GroupInfo,
    KeyRange,
    ShardAssignment,
    ShardMap,
    key_point,
)
from repro.types import ClientId, Command, CommandId


def make_map(*names, serving=None, version=1):
    infos = tuple(
        GroupInfo(name, ("n1", "n2"), {"n1": ("127.0.0.1", 9101)})
        for name in names
    )
    return ShardMap.initial(infos, serving=serving, version=version)


def key_in(shard_map, group):
    """A key the given map routes to ``group``."""
    for i in range(100_000):
        key = f"k{i}"
        if shard_map.group_for_key(key) == group:
            return key
    raise AssertionError("no key found for group")


class World:
    """Authoritative truth the fake groups consult.

    ``truth`` is the current real map; ``hints`` replays the move
    history, so a fake whose group lost a range answers with the same
    forwarding hint a retired live range would produce.
    """

    def __init__(self, truth: ShardMap):
        self.truth = truth
        self.data: dict[str, object] = {}
        self.hints: dict[str, list[tuple[int, int, str, int]]] = {}
        self.calls: list[tuple[str, str]] = []  # (group, op)

    def move(self, lo: int, hi: int, target: str) -> None:
        source = self.truth.assignment_at(lo).group
        self.truth = self.truth.with_move(lo, hi, target)
        self.hints.setdefault(source, []).append(
            (lo, hi, target, self.truth.version)
        )


class FakeGroupClient:
    """Answers like one sharded group: serve if owner, bounce if not."""

    def __init__(self, world: World, info: GroupInfo):
        self.world = world
        self.group = info.name
        self.seq = 0
        self.closed = False

    def submit(self, op, args, size=64, deadline=15.0):
        self.seq += 1
        self.world.calls.append((self.group, op))
        cid = CommandId(ClientId(f"fake@{self.group}"), self.seq)
        key = str(args[0])
        point = key_point(key)
        owner = self.world.truth.group_for_point(point)
        if owner != self.group:
            for lo, hi, target, version in self.world.hints.get(self.group, []):
                if lo <= point < hi:
                    value = WrongShard(
                        key, point, version, self.group, target, lo, hi
                    )
                    break
            else:
                value = WrongShard(
                    key, point, self.world.truth.version, self.group, "", 0, 0
                )
            return ClientReply(cid, value, 0, self.seq)
        if op == "set":
            self.world.data[key] = args[1]
            return ClientReply(cid, "ok", 0, self.seq)
        return ClientReply(cid, self.world.data.get(key), 0, self.seq)

    def submit_pipelined(self, ops, window=32, deadline=60.0):
        latencies = []
        for op, args, size in ops:
            self.submit(op, args, size=size, deadline=deadline)
            latencies.append(0.001)
        return latencies

    def close(self):
        self.closed = True


class MetaDirLog:
    """Stands in for the handle's client: executes each command on a
    bare state machine, as the metadir group's log would."""

    def __init__(self, machine: MetaDirStateMachine):
        self.machine = machine
        self.seq = 0
        #: ``dir_map`` commands it was handed, answered or not.
        self.reads = 0
        #: an unreachable group: every command fails.
        self.dead = False
        self.closed = False

    def submit(self, op, args=(), size=64, deadline=15.0):
        if op == "dir_map":
            self.reads += 1
        if self.dead:
            raise LiveClientError("no metadir replica answered")
        self.seq += 1
        cid = CommandId(ClientId("fake-dir"), self.seq)
        return ClientReply(cid, self.machine.apply(Command(cid, op, args)), 0, self.seq)

    def close(self):
        self.closed = True


def fake_director(shard_map=None):
    """A director handle over a :class:`MetaDirLog`; ``shard_map=None`` is
    a group that has not executed ``dir_init`` yet."""
    machine = MetaDirStateMachine()
    if shard_map is not None:
        machine._dir_init(shard_map)
    director = ReplicatedShardDirector({"d1": ("127.0.0.1", 9)})
    director._client = MetaDirLog(machine)
    return director, director._client


def make_client(world, shard_map=None, client_factory=None, **kwargs):
    return ShardClient(
        "t",
        shard_map=shard_map if shard_map is not None else world.truth,
        client_factory=client_factory or (lambda info: FakeGroupClient(world, info)),
        **kwargs,
    )


class TestStaleMapRedirect:
    def test_hint_patches_cache_and_retries_at_new_owner(self):
        world = World(make_map("g1", "g2"))
        client = make_client(world)  # caches v1
        key = key_in(world.truth, "g1")
        point = key_point(key)
        world.move(point - point % 8, min(point + 8, HASH_SPACE), "g2")
        assert world.truth.version == 2

        reply = client.submit("set", (key, "v"))
        assert reply.value == "ok"
        # One bounce off g1, then success at g2 — and the hint upgraded
        # the cache without any director involvement.
        assert [g for g, _ in world.calls] == ["g1", "g2"]
        assert client.map_version == 2
        assert client.shard_map.group_for_key(key) == "g2"

    def test_next_submit_uses_patched_cache_directly(self):
        world = World(make_map("g1", "g2"))
        client = make_client(world)
        key = key_in(world.truth, "g1")
        point = key_point(key)
        world.move(point - point % 8, min(point + 8, HASH_SPACE), "g2")
        client.submit("set", (key, "v1"))
        world.calls.clear()
        assert client.submit("get", (key,)).value == "v1"
        assert [g for g, _ in world.calls] == ["g2"]  # no second bounce

    def test_stale_hint_not_adopted(self):
        shard_map = make_map("g1", "g2")
        router = ShardRouter(shard_map)
        stale = WrongShard("k", 5, shard_map.version, "g1", "g2", 0, 8)
        assert router.redirected(stale) == BACKOFF
        assert router.shard_map is shard_map


def block(key):
    """The 8-point slice around ``key``'s hash point."""
    point = key_point(key)
    return point - point % 8, min(point - point % 8 + 8, HASH_SPACE)


class TestConcurrentRefresh:
    def test_adoption_is_version_gated(self):
        shard_map = make_map("g1", "g2")
        router = ShardRouter(shard_map)
        v3 = shard_map.with_move(0, 8, "g2", version=3)
        v2 = shard_map.with_move(0, 8, "g2", version=2)
        assert router.read(v3) == RETRY
        # A slower read delivering an older map must not clobber v3.
        assert router.read(v2) == BACKOFF
        assert router.shard_map is v3
        assert router.read(None) == BACKOFF  # a read that failed

    def test_no_hint_redirect_falls_back_to_director(self):
        # The world moved the range but the answer carries no hint (the
        # client hit the move's *target* before its install ran) while
        # naming a newer map: only a read can place the op.
        shard_map = make_map("g1", "g2")
        router = ShardRouter(shard_map)
        key = key_in(shard_map, "g1")
        truth = shard_map.with_move(*block(key), "g2")
        bounce = WrongShard(key, key_point(key), truth.version, "g1", "", 0, 0)
        assert router.redirected(bounce) == READ
        assert router.read(truth) == RETRY
        assert router.route(key)[0] == "g2"
        assert router.shard_map is truth

    def test_redirect_at_the_cached_version_reads_no_map(self):
        # The rejecting group knows no newer map than the client: an
        # install in flight, which the director's map cannot move past
        # either. The client backs off and retries without a read.
        shard_map = make_map("g1", "g2")
        world = World(shard_map)
        director, log = fake_director(shard_map)
        bounces = []

        class Installing(FakeGroupClient):
            def submit(self, op, args, size=64, deadline=15.0):
                if len(bounces) < 2:
                    bounces.append(self.group)
                    point = key_point(str(args[0]))
                    return ClientReply(
                        CommandId(ClientId("i"), len(bounces)),
                        WrongShard(str(args[0]), point, shard_map.version,
                                   self.group, "", 0, 0),
                        0, len(bounces),
                    )
                return super().submit(op, args, size=size, deadline=deadline)

        client = ShardClient(
            "t", shard_map=shard_map, director=director,
            client_factory=lambda info: Installing(world, info),
        )
        key = key_in(shard_map, "g1")
        assert client.submit("set", (key, "v")).value == "ok"
        assert bounces == ["g1", "g1"]
        assert log.reads == 0


class TestOverstatedCache:
    def test_stale_hint_below_a_patched_cache_reads_the_map(self):
        # A hint patch stamps the cache with its move's version but
        # leaves out the earlier moves: here v3 (R1 -> g2) is patched in,
        # and R2 -> g3 (v2) is not. g1 keeps answering R2 with its v2
        # hint, which the v3 cache refuses; one director read places it.
        world = World(make_map("g1", "g2", "g3"))
        router = ShardRouter(world.truth)  # caches v1
        first = key_in(world.truth, "g1")
        second = next(
            f"k{i}" for i in range(100_000)
            if world.truth.group_for_key(f"k{i}") == "g1"
            and key_point(f"k{i}") // 8 != key_point(first) // 8
        )
        world.move(*block(second), "g3")  # v2
        world.move(*block(first), "g2")  # v3

        assert router.redirected(
            WrongShard(first, key_point(first), 3, "g1", "g2", *block(first))
        ) == RETRY
        assert router.route(first)[0] == "g2"
        assert router.shard_map.version == 3
        assert router.route(second)[0] == "g1"  # the gap

        old = WrongShard(second, key_point(second), 2, "g1", "g3", *block(second))
        assert router.redirected(old) == READ
        assert router.read(world.truth) == RETRY
        assert router.route(second)[0] == "g3"
        assert router.shard_map == world.truth

    def test_old_forward_of_a_move_back_reads_no_map(self):
        # R moves g1 -> g2 (v2) and back (v3). Until g1's install runs,
        # g1 still answers R with its v2 forward to g2; the router holds
        # the v3 move of R, so the hint is old news and it backs off.
        shard_map = make_map("g1", "g2")
        router = ShardRouter(shard_map)
        key = key_in(shard_map, "g1")
        point, (lo, hi) = key_point(key), block(key)
        forward = WrongShard(key, point, 2, "g1", "g2", lo, hi)
        back = WrongShard(key, point, 3, "g2", "g1", lo, hi)
        assert router.redirected(forward) == RETRY
        assert router.route(key)[0] == "g2"
        assert router.redirected(back) == RETRY
        assert router.route(key)[0] == "g1"
        assert router.redirected(forward) == BACKOFF
        assert router.route(key)[0] == "g1"
        assert router.shard_map.version == 3


class Bouncer(FakeGroupClient):
    """Denies every key at the map version it was built with, no hint."""

    version = 1

    def submit(self, op, args, size=64, deadline=15.0):
        self.seq += 1
        self.world.calls.append((self.group, time.monotonic()))
        return ClientReply(
            CommandId(ClientId("b"), self.seq),
            WrongShard(str(args[0]), key_point(str(args[0])), self.version,
                       self.group, "", 0, 0),
            0, self.seq,
        )


class TestRedirectLoopBound:
    def test_a_ping_pong_backs_off_until_the_deadline(self):
        # Both groups deny the key at the cached version and no director
        # exists: no version ever advances, so the client backs off
        # between attempts until the deadline, and says what bounced it.
        world = World(make_map("g1", "g2"))
        client = make_client(world, client_factory=lambda info: Bouncer(world, info))
        key = key_in(world.truth, "g1")
        started = time.monotonic()
        with pytest.raises(
            ShardClientError,
            match=r"not placed in 0.5s: g1 does not own .*\(map v1, hint none\)",
        ):
            client.submit("set", (key, "v"), deadline=0.5)
        assert time.monotonic() - started < 0.5 + ShardRouter.backoff
        sent = [at for _, at in world.calls]
        assert 5 <= len(sent) <= 11
        assert min(b - a for a, b in zip(sent, sent[1:])) >= ShardRouter.backoff

    def test_deadline_bounds_the_loop_too(self):
        world = World(make_map("g1", "g2"))
        client = make_client(world, client_factory=lambda info: Bouncer(world, info))
        started = time.monotonic()
        with pytest.raises(ShardClientError):
            client.submit("set", ("k", "v"), deadline=0.3)
        assert time.monotonic() - started < 5.0

    def test_a_pending_cutover_is_placed_before_the_deadline(self):
        # g1 retired the range with a hint to g2, and g2's install lands
        # 1.0 s later: until then g2 answers with no hint. A placement
        # ends only at its deadline, so the op lands once g2 serves.
        cached = make_map("g1", "g2")
        world = World(cached)
        key = key_in(cached, "g1")
        world.move(*block(key), "g2")  # v2
        installed_at = time.monotonic() + 1.0

        class Installing(FakeGroupClient):
            def submit(self, op, args, size=64, deadline=15.0):
                if self.group == "g2" and time.monotonic() < installed_at:
                    self.seq += 1
                    self.world.calls.append((self.group, op))
                    pending = WrongShard(key, key_point(key), 1, "g2", "", 0, 0)
                    return ClientReply(CommandId(ClientId("i"), self.seq),
                                       pending, 0, self.seq)
                return super().submit(op, args, size=size, deadline=deadline)

        client = make_client(world, shard_map=cached,
                             client_factory=lambda info: Installing(world, info))
        assert client.submit("set", (key, "v"), deadline=10.0).value == "ok"
        assert time.monotonic() >= installed_at
        assert world.data[key] == "v"
        assert len(world.calls) > 13  # more than any redirect count allowed

    def test_a_map_read_gets_the_time_left(self):
        # g1 names a newer map with no hint, so the client reads the map,
        # and the director answers only at the read's deadline: the read
        # must end with the op's deadline, not a fixed budget of its own.
        world = World(make_map("g1", "g2"))
        key = key_in(world.truth, "g1")

        class SlowDirector:
            def shard_map(self, deadline):
                time.sleep(deadline)
                return world.truth

            def close(self):
                pass

        class Newer(Bouncer):
            version = 2

        client = make_client(world, director=SlowDirector(),
                             client_factory=lambda info: Newer(world, info))
        started = time.monotonic()
        with pytest.raises(ShardClientError, match="not placed in 0.3s"):
            client.submit("set", (key, "v"), deadline=0.3)
        assert time.monotonic() - started <= 0.3 + MIN_ATTEMPT_BUDGET


class TestRoutingAndPipelining:
    def test_route_matches_map(self):
        world = World(make_map("g1", "g2"))
        client = make_client(world)
        key = key_in(world.truth, "g2")
        group, point = client.route(key)
        assert group == "g2" and point == key_point(key)

    def test_pipelined_partitions_by_group_and_preserves_order(self):
        world = World(make_map("g1", "g2"))
        client = make_client(world)
        keys = [f"k{i}" for i in range(20)]
        ops = [("set", (key, i), 64) for i, key in enumerate(keys)]
        latencies = client.submit_pipelined(ops, window=4)
        assert len(latencies) == 20
        assert world.data == {key: i for i, key in enumerate(keys)}
        groups_hit = {g for g, _ in world.calls}
        assert groups_hit == {"g1", "g2"}

    def test_unkeyed_op_rejected(self):
        world = World(make_map("g1"))
        client = make_client(world)
        with pytest.raises(Exception, match="routing key"):
            client.submit("set", ())

    def test_close_closes_group_clients(self):
        world = World(make_map("g1", "g2"))
        director, log = fake_director(world.truth)
        client = make_client(world, director=director)
        client.submit("set", (key_in(world.truth, "g1"), 1))
        fakes = list(client._clients.values())
        client.close()
        assert fakes and all(fake.closed for fake in fakes)
        assert log.closed  # the director handle goes with the client


class TestHistoryRecorderCompat:
    def test_duck_type_fields_for_recorder(self):
        # HistoryRecorder reads .client/.seq and catches LiveClientError;
        # the shard client must satisfy all three to be recordable.
        from repro.net.chaos import HistoryRecorder
        from repro.net.client import LiveClientError

        world = World(make_map("g1"))
        client = make_client(world)
        recorder = HistoryRecorder(client)
        key = key_in(world.truth, "g1")
        recorder.submit("set", (key, 1))
        recorder.submit("get", (key,))
        history = recorder.history()
        assert len(history.operations) == 2
        assert history.operations[0].cid.client == ClientId("t")
        assert issubclass(ShardClientError, LiveClientError)


class TestDirectorFetchFailover:
    """A director that cannot be read costs a refresh, never a request
    the cached map or a redirect hint can place."""

    def test_dead_director_with_usable_hint_still_places_the_request(self):
        world = World(make_map("g1", "g2"))
        director, log = fake_director(world.truth)
        log.dead = True
        client = make_client(world, shard_map=world.truth, director=director)
        key = key_in(world.truth, "g1")
        point = key_point(key)
        world.move(point - point % 8, min(point + 8, HASH_SPACE), "g2")

        reply = client.submit("set", (key, "v"), deadline=5.0)
        assert reply.value == "ok"
        assert client.map_version == world.truth.version
        assert [g for g, _ in world.calls] == ["g1", "g2"]
        with pytest.raises(ShardClientError, match="no metadir replica"):
            client.refresh_map()


def gapped_map(version):
    """Decodes, but [8, 16) belongs to nobody: not a partition."""
    good = make_map("g1", "g2")
    return ShardMap(
        version,
        (
            ShardAssignment(KeyRange(0, 8), "g1"),
            ShardAssignment(KeyRange(16, HASH_SPACE), "g2"),
        ),
        good.groups,
    )


class TestBadDirectorAnswer:
    """What the director answers is checked before it reaches the cache:
    anything but a valid map is a :class:`ShardClientError`, and the
    cache stays as it was."""

    @pytest.mark.parametrize(
        "served_value, error",
        [(gapped_map(version=9), "gap or overlap"), ("not a map", "not a map")],
        ids=["not-a-partition", "not-a-shardmap"],
    )
    def test_invalid_map_is_refused(self, served_value, error):
        truth = make_map("g1", "g2")
        director, log = fake_director(truth)
        # Past dir_init's validation, as a corrupted replica would be.
        log.machine.shard_map = served_value
        client = make_client(World(truth), director=director)
        with pytest.raises(ShardClientError, match=error):
            client.refresh_map()
        assert client.shard_map is truth

    def test_director_before_dir_init_is_an_error(self):
        truth = make_map("g1", "g2")
        director, log = fake_director()
        client = make_client(World(truth), director=director)
        with pytest.raises(ShardClientError, match="no map yet"):
            client.refresh_map()
        assert client.shard_map is truth
        with pytest.raises(ShardClientError, match="no map yet"):
            ShardClient("cold", director=director)


class TestLeaseSentinelReplies:
    def test_hint_in_lease_reply_still_patches_cache(self):
        # A leaseholding leader replies to reads with the sentinel
        # virtual_index == -1 (the read occupies no log position), and a
        # drained range's lease read carries a WrongShard value. The
        # smart client's hint-patching must key off the reply *value*,
        # never the index, so the sentinel must not change routing.
        world = World(make_map("g1", "g2"))

        class LeaseFake(FakeGroupClient):
            def submit(self, op, args, size=64, deadline=15.0):
                reply = super().submit(op, args, size=size, deadline=deadline)
                return ClientReply(reply.cid, reply.value, reply.epoch, -1)

        client = ShardClient(
            "t", shard_map=world.truth,
            client_factory=lambda info: LeaseFake(world, info),
        )
        key = key_in(world.truth, "g1")
        point = key_point(key)
        world.data[key] = "fresh"
        world.move(point - point % 8, min(point + 8, HASH_SPACE), "g2")

        reply = client.submit("get", (key,))
        assert reply.value == "fresh"
        assert reply.virtual_index == -1
        # One bounce off the stale owner, then the patched cache routes
        # straight to the new owner — same as with ordered replies.
        assert [g for g, _ in world.calls] == ["g1", "g2"]
        assert client.map_version == 2
        assert client.shard_map.group_for_key(key) == "g2"
