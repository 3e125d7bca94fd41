"""Nemesis tests: long runs under randomized combined fault schedules.

A nemesis process interleaves crashes, partitions, heals, and
reconfigurations over several simulated seconds while clients hammer the
service; afterwards the complete oracle stack must pass. This is the
closest thing to a Jepsen run the simulator supports — and being
deterministic per seed, any failure it ever finds is perfectly
reproducible.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.kvstore import KvStateMachine
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.sim.rng import SeededRng
from repro.sim.runner import Simulator
from repro.types import node_id
from repro.verify.histories import History
from repro.verify.invariants import run_all_invariants
from repro.verify.linearizability import check_kv_linearizable


class Nemesis:
    """Applies a random sequence of faults to a running service."""

    def __init__(self, sim: Simulator, service: ReplicatedService, seed: int,
                 allow_crashes: bool = True):
        self.sim = sim
        self.service = service
        self.rng = SeededRng(seed, "nemesis")
        self.allow_crashes = allow_crashes
        self.fresh = 10
        self.actions: list[str] = []
        self._partition_active = False

    def arm(self, start: float, end: float, period: float) -> None:
        t = start
        while t < end:
            self.sim.at(t, self._act)
            t += period
        self.sim.at(end, self._heal_everything)

    def _live_members(self):
        return [
            r for r in self.service.live_members() if not r.crashed
        ]

    def _act(self) -> None:
        roll = self.rng.random()
        members = self._live_members()
        if not members:
            return
        if roll < 0.40:
            # Rolling replacement: drop one live member, add a fresh node.
            target = [str(r.node) for r in members]
            if len(target) >= 2:
                victim = self.rng.choice(target)
                target.remove(victim)
                target.append(f"n{self.fresh}")
                self.fresh += 1
                self.actions.append(f"reconfig->{sorted(target)}")
                self.service.reconfigure(target)
        elif roll < 0.60 and self.allow_crashes and len(members) >= 3:
            victim = self.rng.choice(members)
            self.actions.append(f"crash {victim.node}")
            victim.crash()
            # Repair it by replacement shortly after.
            survivors = [str(r.node) for r in members if r is not victim]
            replacement = survivors + [f"n{self.fresh}"]
            self.fresh += 1
            self.sim.schedule(0.15, lambda m=replacement: self.service.reconfigure(m))
        elif roll < 0.80 and not self._partition_active and len(members) >= 3:
            isolated = self.rng.choice(members)
            rest = [str(r.node) for r in members if r is not isolated]
            self.actions.append(f"partition {isolated.node}")
            self.sim.network.policy.partition("nemesis", [str(isolated.node)], rest)
            self._partition_active = True
            self.sim.schedule(0.4, self._heal)
        else:
            self.actions.append("noop")

    def _heal(self) -> None:
        self.sim.network.policy.heal("nemesis")
        self._partition_active = False

    def _heal_everything(self) -> None:
        self.sim.network.policy.heal_all()
        self._partition_active = False


def run_nemesis_scenario(seed: int, duration: float = 3.0, clients: int = 3):
    sim = Simulator(seed=seed)
    service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
    client_list = []
    for i in range(clients):
        budget = [70]
        rng = sim.rng.fork(f"nem-c{i}")

        def ops(budget=budget, rng=rng):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            key = f"k{rng.randint(0, 4)}"
            roll = rng.random()
            if roll < 0.4:
                return ("get", (key,), 32)
            if roll < 0.55:
                return ("cas", (key, rng.randint(0, 3), budget[0]), 48)
            return ("set", (key, budget[0]), 48)

        client_list.append(
            service.make_client(
                f"c{i}", ops, ClientParams(start_delay=0.3, request_timeout=0.3)
            )
        )
    nemesis = Nemesis(sim, service, seed)
    nemesis.arm(start=0.5, end=0.5 + duration, period=0.35)
    done = sim.run_until(
        lambda: all(c.finished for c in client_list), timeout=duration + 60.0
    )
    assert done, f"clients starved under nemesis (seed={seed}): {nemesis.actions}"
    sim.run(until=sim.now + 2.0)

    history = History.from_clients(client_list)
    result = check_kv_linearizable(history)
    assert result.ok, (
        f"linearizability violated at {result.failing_key} "
        f"(seed={seed}, nemesis={nemesis.actions})"
    )
    run_all_invariants(r for r in service.replicas.values())
    return service, nemesis


class TestNemesis:
    def test_fixed_seeds(self):
        for seed in (7001, 7002, 7003, 7004, 7005):
            service, nemesis = run_nemesis_scenario(seed)
            assert len(nemesis.actions) >= 4

    def test_reconfig_heavy(self):
        # Crash-free nemesis: pure reconfiguration churn.
        sim = Simulator(seed=7100)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        budget = [120]

        def ops():
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            return ("set", (f"k{budget[0] % 5}", budget[0]), 48)

        client = service.make_client(
            "c0", ops, ClientParams(start_delay=0.3, request_timeout=0.3)
        )
        nemesis = Nemesis(sim, service, 7100, allow_crashes=False)
        nemesis.arm(start=0.5, end=3.0, period=0.2)
        done = sim.run_until(lambda: client.finished, timeout=60.0)
        assert done
        sim.run(until=sim.now + 2.0)
        assert check_kv_linearizable(History.from_clients([client])).ok
        run_all_invariants(service.replicas.values())

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 100_000))
    def test_random_seeds(self, seed):
        run_nemesis_scenario(seed, duration=2.0, clients=2)
