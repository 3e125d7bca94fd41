"""Durable replica state: write-ahead log, checkpoints, crash recovery.

The paper's composition assumes each static SMR instance keeps its
promises across restarts. This package supplies that guarantee for the
live runtime: a CRC-framed write-ahead log records acceptor state
(promises, accepts), decided entries and epoch transitions *before* the
corresponding protocol message leaves the process, and periodic
state-machine checkpoints bound replay work and retire whole WAL segments.

Layering:

* :mod:`repro.storage.wal` — byte-level record framing and torn-tail
  truncation (pure functions plus a thin file writer);
* :mod:`repro.storage.records` — the record dataclasses (wire codec types);
* :mod:`repro.storage.store` — :class:`ReplicaStore`, the per-replica
  directory of WAL segments + checkpoints, recovery folding, and the
  per-instance durability handles engines write through.
"""
