"""Baselines the paper's composition is measured against.

* the stop-the-world baseline is no module of its own: it is the same
  composition with speculation disabled (``pipeline_depth=1``: a new
  instance may not order anything until the previous epoch's state has
  been fully transferred and executed locally), which
  :func:`repro.bench.harness.build_service` builds for the ``"stw"``
  kind. This is what a naive "wedge, copy, restart" reconfiguration does.
* :mod:`repro.baselines.raft` — a monolithic, natively-reconfigurable SMR
  in the Raft style (terms, randomized elections, log replication,
  single-server membership changes, snapshot-based catch-up). This is the
  design that dominates open-source systems and the natural "why not just
  build reconfiguration in?" comparator.
"""
