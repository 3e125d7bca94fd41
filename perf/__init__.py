"""The repository's benchmark: workloads, load drivers, layer harness, tracing.

Everything here measures the system from outside, through public calls of
``repro``; see ``perf/README.md`` for the metric glossary and the contract
``BENCHMARK.json`` states.
"""
