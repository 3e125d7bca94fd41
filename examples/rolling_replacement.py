#!/usr/bin/env python3
"""Failure repair: a replica crashes and is replaced by reconfiguration.

The paper's composition has no notion of "recovering" a crashed member —
and does not need one: repair *is* reconfiguration. A replica dies, the
admin reconfigures a fresh node in, state transfers, service continues.
The exactly-once counter proves no acknowledged increment was lost or
doubled through the repair.

Run:  python examples/rolling_replacement.py
"""

from repro.apps.counter import CounterStateMachine
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.faults import FailureSchedule
from repro.sim.failures import FailureInjector
from repro.sim.runner import Simulator
from repro.types import node_id
from repro.workload.generators import counter_increments


def main() -> None:
    sim = Simulator(seed=23)
    service = ReplicatedService(sim, ["n1", "n2", "n3"], CounterStateMachine)

    increments = 400
    client = service.make_client(
        "payer",
        counter_increments("payer", increments),
        ClientParams(start_delay=0.2, request_timeout=0.3),
    )

    # n1 (the likely leader) crashes at t=1s; at t=1.3s the admin swaps in n4.
    FailureInjector(sim, FailureSchedule().crash(1.0, "n1")).arm()
    service.reconfigure_at(1.3, ["n2", "n3", "n4"])

    done = sim.run_until(lambda: client.finished, timeout=60.0)
    sim.run(until=sim.now + 1.0)

    print(f"client finished     : {done} ({len(client.records)} acks)")
    print(f"final epoch         : {service.newest_epoch()}")
    for name in ("n1", "n2", "n3", "n4"):
        replica = service.replicas[node_id(name)]
        status = "crashed" if replica.crashed else (
            "retired" if replica.is_retired else "serving"
        )
        counter = replica.state.inner.value("c") if replica.state else "-"
        print(f"  {name}: {status:<8} counter={counter}")

    values = {
        r.state.inner.value("c") for r in service.live_members() if r.state is not None
    }
    print(f"\nexactly-once check  : counter == acknowledged increments? "
          f"{values == {increments}} (counter={values})")
    last_values = [r.value for r in client.records[-3:]]
    print(f"last three ack values: {last_values}")
    assert values == {increments}
    print("OK — crash repaired by reconfiguration; arithmetic exact.")


if __name__ == "__main__":
    main()
