#!/usr/bin/env python3
"""Quickstart: a replicated KV store that survives reconfiguration.

Builds a 3-node reconfigurable service, runs a client against it, swaps a
replica mid-run, and shows that nothing was lost: every acknowledged write
is still readable afterwards and all replicas agree on the virtual log.

Run:  python examples/quickstart.py
"""

from repro.apps.kvstore import KvStateMachine
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.types import node_id
from repro.verify.suite import verify_run


def main() -> None:
    sim = Simulator(seed=7)
    service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)

    # A closed-loop client writing 100 keys, then reading them back.
    plan = [("set", (f"key-{i}", i), 64) for i in range(100)]
    plan += [("get", (f"key-{i}",), 32) for i in range(100)]
    plan_iter = iter(plan)
    client = service.make_client(
        "alice",
        lambda: next(plan_iter, None),
        ClientParams(start_delay=0.1),
    )

    # Mid-run, replace n3 with a fresh node n4 — one call, no downtime.
    service.reconfigure_at(0.35, ["n1", "n2", "n4"])

    sim.run_until(lambda: client.finished, timeout=30.0)
    sim.run(until=sim.now + 1.0)

    writes = [r for r in client.records if r.op == "set"]
    reads = [r for r in client.records if r.op == "get"]
    correct = sum(1 for r in reads if r.value == int(str(r.args[0]).split("-")[1]))

    print(f"acknowledged writes : {len(writes)}")
    print(f"reads after reconfig: {len(reads)}  (correct: {correct})")
    print(f"final epoch         : {service.newest_epoch()}")
    print(f"n3 retired          : {service.replicas[node_id('n3')].is_retired}")
    joiner = service.replicas[node_id("n4")]
    print(f"n4 joined with      : {joiner.virtual_index} entries of state")

    report = verify_run(service.replicas.values(), [client])
    print(f"oracles             : {report}")
    assert correct == len(reads), "a committed write was lost!"
    print("OK — the service reconfigured without losing a single write.")


if __name__ == "__main__":
    main()
