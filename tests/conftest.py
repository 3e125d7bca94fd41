"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.core.client import ClientParams
from repro.core.reconfig import ReconfigParams
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.types import Command, CommandId, client_id


def pytest_configure(config: pytest.Config) -> None:
    # Registered in pyproject.toml too; duplicated here so running a test
    # file directly (pytest tests/test_x.py -p no:cacheprovider from an
    # odd cwd) still knows the markers.
    config.addinivalue_line(
        "markers",
        "live: spawns real replica subprocesses over TCP "
        "(deselect with -m 'not live')",
    )
    config.addinivalue_line(
        "markers", "slow: takes multiple seconds of wall-clock time"
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1234)


def stop_at(sim: Simulator, at: float, source):
    """``source`` until simulated time ``at``, then dry: an open loop's end."""
    return lambda: source() if sim.now < at else None


def make_command(seq: int, op: str = "set", args: tuple = ("k", 1), client: str = "c") -> Command:
    return Command(CommandId(client_id(client), seq), op, args)


def run_kv_service(
    sim: Simulator,
    members=("n1", "n2", "n3"),
    n_ops: int = 100,
    pipeline_depth=None,
    engine_factory=None,
    reconfigs=(),
    client_count: int = 1,
    until: float = 30.0,
    request_timeout: float = 0.5,
    keyspace: int = 10,
):
    """Spin up a KV service, run clients to completion, return (svc, clients)."""
    service = ReplicatedService(
        sim,
        list(members),
        KvStateMachine,
        params=ReconfigParams(
            engine_factory=engine_factory or MultiPaxosEngine.factory(),
            pipeline_depth=pipeline_depth,
        ),
    )
    clients = []
    for c in range(client_count):
        budget = [n_ops]
        rng = sim.rng.fork(f"test-client-{c}")

        def ops(budget=budget, rng=rng):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            key = f"k{rng.randint(0, keyspace - 1)}"
            if rng.random() < 0.5:
                return ("get", (key,), 32)
            return ("set", (key, budget[0]), 64)

        clients.append(
            service.make_client(
                f"c{c}",
                ops,
                ClientParams(start_delay=0.2, request_timeout=request_timeout),
            )
        )
    for at, members_step in reconfigs:
        service.reconfigure_at(at, list(members_step))
    finished = sim.run_until(lambda: all(cl.finished for cl in clients), timeout=until)
    if reconfigs:
        # Let scheduled reconfigurations that fire after the clients finish
        # still take effect and settle.
        settle_until = max(at for at, _ in reconfigs) + 1.5
        if settle_until > sim.now:
            sim.run(until=settle_until)
    return service, clients, finished
