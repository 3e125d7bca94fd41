"""Reconfigurable SMR composed from non-reconfigurable building blocks.

This package is the paper's contribution. The composition:

* runs one static SMR instance per configuration *epoch* (any engine
  implementing :class:`repro.consensus.interface.SmrEngine`),
* orders ``ReconfigCommand``s inside the current instance and cuts the
  epoch's *effective log* at the first one decided,
* re-proposes orphaned decisions (those ordered after the cut) into the
  next instance,
* transfers boundary snapshots to joining members, and
* **speculatively pipelines** epochs: a new instance orders commands before
  the previous epoch's state has been transferred/executed, so the service
  never stops ordering during reconfiguration — the paper's liveness claim.

See :mod:`repro.core.reconfig` for the replica, :mod:`repro.core.client`
for the client library and :mod:`repro.core.service` for cluster builders.
"""
