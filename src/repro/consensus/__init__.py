"""Non-reconfigurable (static-membership) SMR building blocks.

This package provides the black boxes the paper composes:

* :mod:`repro.consensus.synod` — single-decree Paxos, the agreement kernel.
* :mod:`repro.consensus.multipaxos` — a static Multi-Paxos replicated log
  with heartbeat-based leader election, the primary building block.
* :mod:`repro.consensus.sequencer` — a trivial single-orderer log, a second
  (non-fault-tolerant) block proving the composition is block-agnostic.
* :mod:`repro.consensus.interface` — the narrow API the composition layer
  relies on: ``propose`` in, ordered gap-free ``Decision`` stream out.

Nothing in here knows anything about reconfiguration.
"""
