"""ShardClient map-cache invalidation tests (fake groups, no subprocesses).

The smart client's correctness rests on three behaviours exercised here:

* a **stale-map redirect** with a usable hint patches exactly the moved
  slice of the cached map and retries at the new owner — no director hop;
* **concurrent refreshes** are convergent: adoption is version-gated, so
  a slow fetch returning an older map can never clobber a newer one;
* a **redirect loop** (groups that keep bouncing) fails crisply at the
  redirect budget / deadline instead of spinning forever, mirroring the
  MIN_ATTEMPT_BUDGET discipline of the flat LiveClient.

Groups are faked through ``client_factory``: each fake consults a shared
"world" map (the authoritative truth) and answers WrongShard exactly the
way a live sharded group would — with a hint when the world moved the
range away from the fake's group, without one when the fake never owned
the point.

The director is not faked: :func:`served_director` runs the endpoint
every metadir replica installs on a real :class:`TcpTransport` in this
process, over a bare :class:`MetaDirStateMachine` (no consensus under
it) whose map the test swaps the way an executed command would.
"""

import asyncio
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.client import ClientReply
from repro.net.transport import TcpTransport
from repro.shard.client import ShardClient, ShardClientError
from repro.shard.messages import WrongShard
from repro.shard.metadir import MetaDirStateMachine, install_director_endpoint
from repro.shard.shardmap import (
    HASH_SPACE,
    GroupInfo,
    KeyRange,
    ShardAssignment,
    ShardMap,
    key_point,
)
from repro.types import ClientId, CommandId


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


class ServedDirector:
    """What :func:`served_director` yields."""

    def __init__(self, machine: MetaDirStateMachine):
        self.machine = machine
        self.address: tuple[str, int] = ("", 0)
        #: frames the endpoint was handed, answered or not.
        self.requests = 0

    def executed_state(self) -> MetaDirStateMachine:
        self.requests += 1
        return self.machine


@contextmanager
def served_director(shard_map=None):
    """One director endpoint on a loopback port; ``shard_map=None`` is a
    replica that has not executed ``dir_init`` yet."""
    machine = MetaDirStateMachine()
    if shard_map is not None:
        machine._dir_init(shard_map)
    served = ServedDirector(machine)
    transport = TcpTransport({})
    install_director_endpoint(transport, "n1", served.executed_state)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def on_loop(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(10.0)

    on_loop(transport.start("127.0.0.1", 0))
    served.address = transport._server.sockets[0].getsockname()[:2]
    try:
        yield served
    finally:
        on_loop(transport.close())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()


def make_client(world, shard_map=None, **kwargs):
    return ShardClient(
        "t",
        shard_map=shard_map if shard_map is not None else world.truth,
        client_factory=lambda info: FakeGroupClient(world, info),
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
        world = World(make_map("g1", "g2"))
        client = make_client(world)
        stale = WrongShard("k", 5, client.map_version, "g1", "g2", 0, 8)
        assert client._apply_hint(stale) is False
        assert client.map_version == 1


class TestConcurrentRefresh:
    def test_adoption_is_version_gated(self):
        world = World(make_map("g1", "g2"))
        client = make_client(world)
        v3 = world.truth.with_move(0, 8, "g2", version=3)
        v2 = world.truth.with_move(0, 8, "g2", version=2)
        assert client._adopt(v3).version == 3
        # A slower fetch delivering an older map must not clobber v3.
        assert client._adopt(v2).version == 3
        assert client.shard_map is not v2

    def test_threads_refreshing_from_live_director_converge(self):
        shard_map = make_map("g1", "g2")
        with served_director(shard_map) as director:
            world = World(shard_map)
            client = make_client(world, director=director.address)
            moved = shard_map.with_move(0, 8, "g2")
            director.machine.shard_map = moved

            versions: list[int] = []
            errors: list[Exception] = []

            def refresh():
                try:
                    versions.append(client.refresh_map().version)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=refresh) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not errors
            # Every concurrent refresh lands on the same (newest) version.
            assert versions == [moved.version] * 8
            assert client.map_version == moved.version

    def test_no_hint_redirect_falls_back_to_director(self):
        shard_map = make_map("g1", "g2")
        world = World(shard_map)
        with served_director(shard_map) as director:
            client = make_client(world, director=director.address)
            key = key_in(world.truth, "g1")
            point = key_point(key)
            # The world moves the range but erases the hint (as if the
            # client hit the move's *target* before its install ran).
            world.move(point - point % 8, min(point + 8, HASH_SPACE), "g2")
            world.hints.clear()
            director.machine.shard_map = world.truth
            reply = client.submit("set", (key, "v"))
            assert reply.value == "ok"
            assert client.map_version == world.truth.version
            assert director.requests == 1


class TestRedirectLoopBound:
    def test_budget_exhaustion_raises(self, monkeypatch):
        from repro.shard import client as client_mod

        monkeypatch.setattr(client_mod, "MAX_REDIRECTS", 3)
        world = World(make_map("g1", "g2"))
        client = make_client(world)
        key = key_in(world.truth, "g1")
        # Truth moves away but the hint lies: it points back at a group
        # that will bounce again, and no director exists to break the tie.
        point = key_point(key)
        world.move(point - point % 8, min(point + 8, HASH_SPACE), "g2")
        world.hints["g1"] = []  # no usable hint: pure ping-pong
        world.truth = make_map("g1", "g2")  # ...and g2 bounces too

        # Both groups now deny ownership forever.
        world.hints["g2"] = []
        truth = world.truth

        class Bouncer(FakeGroupClient):
            def submit(self, op, args, size=64, deadline=15.0):
                self.seq += 1
                self.world.calls.append((self.group, op))
                cid = CommandId(ClientId("b"), self.seq)
                return ClientReply(
                    cid,
                    WrongShard(str(args[0]), key_point(str(args[0])),
                               truth.version, self.group, "", 0, 0),
                    0, self.seq,
                )

        client = ShardClient(
            "t", shard_map=truth,
            client_factory=lambda info: Bouncer(world, info),
        )
        with pytest.raises(ShardClientError, match="redirect budget"):
            client.submit("set", (key, "v"), deadline=30.0)
        # The loop is bounded: MAX_REDIRECTS + the initial attempt.
        assert len(world.calls) == 4

    def test_deadline_bounds_the_loop_too(self, monkeypatch):
        from repro.shard import client as client_mod

        monkeypatch.setattr(client_mod, "MAX_REDIRECTS", 10_000)
        world = World(make_map("g1", "g2"))
        truth = world.truth

        class Bouncer(FakeGroupClient):
            def submit(self, op, args, size=64, deadline=15.0):
                self.seq += 1
                return ClientReply(
                    CommandId(ClientId("b"), self.seq),
                    WrongShard(str(args[0]), key_point(str(args[0])),
                               truth.version, self.group, "", 0, 0),
                    0, self.seq,
                )

        client = ShardClient(
            "t", shard_map=truth,
            client_factory=lambda info: Bouncer(world, info),
        )
        started = time.monotonic()
        with pytest.raises(ShardClientError):
            client.submit("set", ("k", "v"), deadline=0.3)
        assert time.monotonic() - started < 5.0


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
        client = make_client(world)
        client.submit("set", (key_in(world.truth, "g1"), 1))
        fakes = list(client._clients.values())
        client.close()
        assert fakes and all(fake.closed for fake in fakes)


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
    """The jittered-retry fetch path (satellite of the replicated
    director): a flapping or partially-dead director costs retries and
    rotation, never an error a cached map could have absorbed."""

    def test_fetch_retries_through_a_flap_with_jittered_backoff(self, monkeypatch):
        from repro.shard import client as client_mod

        calls = []
        pauses = []
        truth = make_map("g1", "g2")

        def flaky(address, **kwargs):
            calls.append(address)
            if len(calls) < 3:
                raise ShardClientError("connection refused")
            return truth

        monkeypatch.setattr(client_mod, "_fetch_map", flaky)
        monkeypatch.setattr(client_mod.time, "sleep", pauses.append)
        fetched = client_mod.fetch_shard_map(("127.0.0.1", 9101))
        assert fetched is truth
        assert len(calls) == 3
        # Two backoffs, exponential base with jitter in [0.5x, 1.5x).
        assert len(pauses) == 2
        assert 0.5 * 0.05 <= pauses[0] < 1.5 * 0.05
        assert 0.5 * 0.10 <= pauses[1] < 1.5 * 0.10

    def test_fetch_gives_up_after_the_attempt_budget(self, monkeypatch):
        from repro.shard import client as client_mod

        calls = []

        def dead(address, **kwargs):
            calls.append(address)
            raise ShardClientError("connection refused")

        monkeypatch.setattr(client_mod, "_fetch_map", dead)
        monkeypatch.setattr(client_mod.time, "sleep", lambda _s: None)
        with pytest.raises(ShardClientError, match="after retries"):
            client_mod.fetch_shard_map(("127.0.0.1", 9101))
        assert len(calls) == 3

    def test_refresh_rotates_past_dead_endpoints(self, monkeypatch):
        from repro.shard import client as client_mod

        truth = make_map("g1", "g2")
        newer = truth.with_move(0, 8, "g2")
        live = ("127.0.0.1", 9303)
        attempted = []

        def selective(address, **kwargs):
            attempted.append(address)
            if address != live:
                raise ShardClientError("connection refused")
            return newer

        monkeypatch.setattr(client_mod, "_fetch_map", selective)
        world = World(truth)
        client = make_client(
            world,
            director=[("127.0.0.1", 9301), ("127.0.0.1", 9302), live],
        )
        refreshed = client.refresh_map(timeout=5.0)
        assert refreshed.version == newer.version
        assert client.map_version == newer.version
        # The dead endpoints cost one attempt each, not the refresh.
        assert live in attempted

    def test_dead_director_with_usable_hint_still_places_the_request(
        self, monkeypatch
    ):
        # Satellite of the warm-cache story: the director group being
        # unreachable must not fail a request the redirect hint can
        # route — refresh_map's error is swallowed on the submit path.
        from repro.shard import client as client_mod

        def dead(address, **kwargs):
            raise ShardClientError("connection refused")

        monkeypatch.setattr(client_mod, "_fetch_map", dead)
        world = World(make_map("g1", "g2"))
        client = make_client(
            world, shard_map=world.truth, director=("127.0.0.1", 9301)
        )
        key = key_in(world.truth, "g1")
        point = key_point(key)
        world.move(point - point % 8, min(point + 8, HASH_SPACE), "g2")

        reply = client.submit("set", (key, "v"), deadline=5.0)
        assert reply.value == "ok"
        assert client.map_version == world.truth.version
        assert [g for g, _ in world.calls] == ["g1", "g2"]


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


class TestBadEndpointIsOneEndpointsFailure:
    """A director endpoint that answers wrongly, or not at all, costs the
    refresh one attempt: the rotation moves on to the next replica."""

    @pytest.mark.parametrize(
        "served_value",
        [gapped_map(version=9), "not a map"],
        ids=["not-a-partition", "not-a-shardmap"],
    )
    def test_invalid_map_fails_over_to_the_next_endpoint(self, served_value):
        truth = make_map("g1", "g2")
        newer = truth.with_move(0, 8, "g2")
        with served_director(truth) as bad, served_director(newer) as good:
            # Past dir_init's validation, as a corrupted replica would be.
            bad.machine.shard_map = served_value
            client = make_client(
                World(truth), director=[good.address, bad.address]
            )
            # One refresh per rotation offset: the bad endpoint is asked
            # first in one of them, and neither may surface its answer.
            for _ in range(2):
                refreshed = client.refresh_map(timeout=5.0)
                assert refreshed.version == newer.version
            assert bad.requests >= 1 and good.requests == 2
            assert client.map_version == newer.version

    def test_all_endpoints_invalid_is_a_client_error(self):
        truth = make_map("g1", "g2")
        with served_director(truth) as bad:
            bad.machine.shard_map = gapped_map(version=9)
            client = make_client(World(truth), director=bad.address)
            with pytest.raises(ShardClientError, match="gap or overlap"):
                client.refresh_map(timeout=0.5)
            assert client.map_version == truth.version

    def test_endpoint_before_dir_init_is_silent_and_skipped(self):
        truth = make_map("g1", "g2")
        newer = truth.with_move(0, 8, "g2")
        with served_director() as booting, served_director(newer) as live:
            client = make_client(
                World(truth), director=[live.address, booting.address]
            )
            for _ in range(2):
                assert client.refresh_map(timeout=2.0).version == newer.version
            # It was asked, said nothing, and the refresh went elsewhere.
            assert booting.requests >= 1 and live.requests == 2


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


class TestSeededJitter:
    def test_first_draw_ignores_the_interpreters_hash_seed(self):
        """A seeded storm's map-fetch jitter must not change run to run:
        the RNG is seeded from the name itself, not its salted hash."""
        import os
        import subprocess
        import sys

        probe = (
            "from repro.shard.client import ShardClient\n"
            "from repro.shard.shardmap import GroupInfo, ShardMap\n"
            "m = ShardMap.initial([GroupInfo('g1', ('n1',), {})])\n"
            "print(ShardClient('storm-w0', shard_map=m)._rng.random())\n"
        )
        draws = {
            subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(draws) == 1, draws
