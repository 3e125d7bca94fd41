"""Live networked runtime: the second execution backend.

The :mod:`repro.sim` package runs the whole system inside one process on a
virtual clock; this package runs the *same* replica implementation as real
operating-system processes talking length-prefixed binary frames over TCP:

* :mod:`repro.net.codec` — wire encoding for every protocol dataclass,
  plus the payload-size estimator the simulator's byte accounting shares;
* :mod:`repro.net.transport` — asyncio TCP transport with the same
  ``send``/``register`` surface as :class:`repro.sim.network.Network`;
* :mod:`repro.net.runtime` — wall-clock implementation of the
  :class:`repro.core.runtime.Runtime` protocol;
* :mod:`repro.net.client` — blocking client/admin library for driving a
  live cluster;
* :mod:`repro.net.cluster` — localhost multi-process cluster launcher
  (used by the storm loop, ``perf/`` and the loopback integration tests);
* :mod:`repro.net.admin` — the replica side of the ``#chaos`` and
  ``#metrics`` admin endpoints, whose controllers are
  :mod:`repro.net.chaos` and :mod:`repro.net.observe`.
"""
