"""Workload generation: operation mixes, client pools, reconfig schedules.

Experiments compose three orthogonal pieces:

* an operation mix (:mod:`repro.workload.generators`) — what clients do,
* a client pool (:mod:`repro.workload.clients`) — how many, what pacing,
* a schedule (:mod:`repro.workload.schedules`) — when the membership
  changes (single replacement, rolling migration, storms).
"""
