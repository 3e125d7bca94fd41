"""Benchmark harness: experiment definitions behind every table/figure.

Each experiment in DESIGN.md has one function in
:mod:`repro.bench.experiments` that runs the workload sweep and returns
renderable :class:`repro.metrics.report.Table` / ``Series`` objects. The
``benchmarks/`` directory wraps these in pytest-benchmark targets; the
examples reuse the same harness for smaller interactive runs.
"""
