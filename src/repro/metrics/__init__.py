"""Measurement: latency distributions, throughput timelines, gaps, traffic.

The harness records client-observed completions (the honest service-level
signal) and, optionally, replica-side commits. Reporting helpers render the
paper-style tables and text "figures" (series) the benchmark suite prints.
"""
