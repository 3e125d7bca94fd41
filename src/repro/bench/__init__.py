"""Benchmark harness: experiment definitions behind every table/figure.

Each experiment in DESIGN.md has one function in
:mod:`repro.bench.experiments` that declares its parameter grid, runs it
through the module's one sweep loop and returns renderable
:class:`repro.metrics.report.Table` / ``Series`` objects. The
``benchmarks/`` directory wraps these in pytest-benchmark targets; the
examples reuse the same harness for smaller interactive runs.
"""
