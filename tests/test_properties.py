"""Hypothesis property tests over whole-system runs.

Each example generates a random scenario — seed, reconfiguration schedule,
failure pattern — runs the full service, and checks the complete oracle
stack. These are the tests most likely to find schedule-dependent bugs.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.kvstore import KvStateMachine
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.core.client import ClientParams
from repro.core.reconfig import ReconfigParams
from repro.core.service import ReplicatedService
from repro.faults import FailureSchedule
from repro.sim.failures import FailureInjector
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.verify.histories import History
from repro.verify.invariants import run_all_invariants
from repro.verify.linearizability import check_kv_linearizable

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run_random_scenario(
    seed: int,
    reconfig_times: list[float],
    crash_follower: bool,
    depth: int | None,
    drop: float,
):
    sim = Simulator(seed=seed, latency=LatencyModel(drop_probability=drop))
    service = ReplicatedService(
        sim, ["n1", "n2", "n3"], KvStateMachine,
        params=ReconfigParams(
            engine_factory=MultiPaxosEngine.factory(), pipeline_depth=depth
        ),
    )
    clients = []
    for i in range(2):
        budget = [30]
        rng = sim.rng.fork(f"pc{i}")

        def ops(budget=budget, rng=rng):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            key = f"k{rng.randint(0, 3)}"
            roll = rng.random()
            if roll < 0.4:
                return ("get", (key,), 32)
            if roll < 0.6:
                return ("cas", (key, rng.randint(0, 3), budget[0]), 48)
            return ("set", (key, budget[0]), 48)

        clients.append(
            service.make_client(
                f"c{i}", ops, ClientParams(start_delay=0.2, request_timeout=0.3)
            )
        )
    # Random rolling replacements at the generated times.
    pool = ["n1", "n2", "n3"]
    fresh = 4
    for t in sorted(reconfig_times):
        pool = pool[1:] + [f"n{fresh}"]
        fresh += 1
        service.reconfigure_at(0.3 + t, list(pool))
    if crash_follower:
        FailureInjector(sim, FailureSchedule().crash(0.45, "n3")).arm()
    done = sim.run_until(lambda: all(c.finished for c in clients), timeout=90.0)
    assert done, "clients failed to finish"
    sim.run(until=sim.now + 1.0)
    history = History.from_clients(clients)
    result = check_kv_linearizable(history)
    assert result.ok, f"not linearizable at {result.failing_key} (seed={seed})"
    run_all_invariants(service.replicas.values())


class TestRandomScenarios:
    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        reconfig_times=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=3
        ),
        crash_follower=st.booleans(),
    )
    def test_speculative_random_schedules(self, seed, reconfig_times, crash_follower):
        run_random_scenario(seed, reconfig_times, crash_follower, depth=None, drop=0.0)

    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        reconfig_times=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=2
        ),
    )
    def test_stop_the_world_random_schedules(self, seed, reconfig_times):
        run_random_scenario(seed, reconfig_times, False, depth=1, drop=0.0)

    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        reconfig_times=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=2
        ),
        drop=st.floats(0.0, 0.08),
    )
    def test_lossy_network_random_schedules(self, seed, reconfig_times, drop):
        run_random_scenario(seed, reconfig_times, False, depth=None, drop=drop)
