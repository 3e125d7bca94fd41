"""Deterministic discrete-event simulation substrate.

The simulator provides everything the replication protocols need from an
"operating system": a virtual clock, timers, a message-passing network with
configurable latency/bandwidth/loss/partitions, process lifecycle
(crash/restart), failure-injection schedules, and structured tracing.

Every run is a pure function of its seed and parameters, which makes
protocol schedules — including adversarial ones — reproducible in tests and
benchmarks.
"""
