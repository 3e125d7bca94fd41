"""T8 — leader-side batching ablation (table T8).

Expected shape: messages per operation fall with the batch window, and the
price in median latency is at most the round trip a command waits behind —
the window only bounds how long commands are held *behind a slot in
flight*, an idle pipeline never waits on it — so widening the window past
a round trip costs next to nothing (EXPERIMENTS T8 keeps the table of the
earlier rule, where a batched command paid roughly the whole window, as a
dated result).
"""

from benchmarks.conftest import run_once
from repro.bench.experiments import exp_t8_batching


def test_t8_batching(benchmark):
    delays = (0.0, 2.0, 5.0)
    out = run_once(benchmark, exp_t8_batching, delays_ms=delays)
    off = out.data[0.0]
    on = out.data[2.0]
    wide = out.data[5.0]
    assert on["msgs_per_op"] < off["msgs_per_op"] * 0.6
    assert wide["msgs_per_op"] <= on["msgs_per_op"]
    # a batched command waits behind the slot in flight: about a round
    # trip, whatever the window
    assert on["p50_ms"] > off["p50_ms"]
    assert wide["p50_ms"] < off["p50_ms"] + 0.5 * 5.0
    assert wide["p50_ms"] < on["p50_ms"] * 1.1
    assert wide["throughput"] > off["throughput"] * 0.75
    # ...and with CPU-bound replicas batching wins on BOTH axes, at every
    # window:
    cpu_off = out.data[("cpu", 0.0)]
    for delay in (2.0, 5.0):
        cpu_on = out.data[("cpu", delay)]
        assert cpu_on["throughput"] > cpu_off["throughput"] * 1.2
        assert cpu_on["p50_ms"] < cpu_off["p50_ms"]
