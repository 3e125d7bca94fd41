"""Replicated applications used as workloads and correctness probes.

Each application is a deterministic :class:`repro.core.statemachine.StateMachine`:

* :mod:`repro.apps.kvstore` — a string key/value store (get/set/delete/cas),
  the primary workload and the one the linearizability checker understands.
* :mod:`repro.apps.counter` — commutative counters; cheap sanity workload.
* :mod:`repro.apps.bank` — accounts with transfers; conservation-of-money
  is a strong whole-history invariant.
* :mod:`repro.apps.lockservice` — a lease-free lock table; mutual exclusion
  per key is directly checkable from replies.
"""
