"""Correctness oracles: histories, linearizability, structural invariants.

Replication bugs rarely announce themselves; these oracles make them loud:

* :mod:`repro.verify.histories` — client-observed operation histories.
* :mod:`repro.verify.linearizability` — a Wing–Gong/Lowe-style checker for
  per-key KV histories (the service-level safety property).
* :mod:`repro.verify.invariants` — replica-internal structural checks:
  virtual-log prefix consistency, configuration-chain agreement, cut
  determinism, reply consistency.
"""
