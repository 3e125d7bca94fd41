"""Baselines the paper's composition is measured against.

* :mod:`repro.baselines.stoptheworld` — the same composition with
  speculation disabled: a new instance may not order anything until the
  previous epoch's state has been fully transferred and executed locally.
  This is what a naive "wedge, copy, restart" reconfiguration does.
* :mod:`repro.baselines.raft` — a monolithic, natively-reconfigurable SMR
  in the Raft style (terms, randomized elections, log replication,
  single-server membership changes, snapshot-based catch-up). This is the
  design that dominates open-source systems and the natural "why not just
  build reconfiguration in?" comparator.
"""
