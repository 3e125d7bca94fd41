"""repro — reconfigurable SMR from non-reconfigurable building blocks.

Reproduction of Bortnikov, Chockler, Perelman, Roytman, Shachor,
Shnayderman: *"Brief announcement: reconfigurable state machine
replication from non-reconfigurable building blocks"* (PODC 2012).

Import what you use from its submodule (a package ``__init__`` re-exports
nothing, so a ``repro serve`` process loads only the serving stack)::

    from repro.apps.kvstore import KvStateMachine
    from repro.core.service import ReplicatedService
    from repro.sim.runner import Simulator

    sim = Simulator(seed=7)
    service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)

See README.md for a tour, DESIGN.md for the system inventory, and
PROTOCOL.md for the protocol itself.
"""

__version__ = "1.0.0"
