"""Structural tests for the experiment definitions (tiny parameters).

Each experiment function must produce well-formed output — tables with
rows, series with points, raw data keyed as documented — so the benchmark
layer and CLI can rely on the shape. Parameters here are minimal: these
tests check structure, not the performance shape (the benchmarks do that).
"""

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    QUICK_ARGS,
    exp_f2_storm,
    exp_f4_ablation,
    exp_f5_warmjoin,
    exp_t1_overhead,
    exp_t2_statesize,
    exp_t4_msgcost,
    exp_t5_blocks,
    exp_t6_detector,
    exp_t7_leases,
    exp_t8_batching,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "T1", "F1", "T2", "F2", "T3", "F3", "T4", "F4",
            "T5", "F5", "T6", "T7", "T8",
        }

    def test_quick_args_match_signatures(self):
        # Every quick-arg key must be a real parameter of its experiment.
        import inspect

        for name, kwargs in QUICK_ARGS.items():
            signature = inspect.signature(ALL_EXPERIMENTS[name])
            for key in kwargs:
                assert key in signature.parameters, (name, key)


class TestOutputs:
    def test_t1_structure(self):
        out = exp_t1_overhead(sizes=(3,), run_for=0.8)
        assert out.name == "T1"
        assert len(out.tables) == 1
        assert len(out.tables[0].rows) == 4  # four protocols, one size
        assert ("speculative", 3) in out.data
        assert out.data[("speculative", 3)]["throughput"] > 0

    def test_f2_structure(self):
        out = exp_f2_storm(intervals=(0.5,), rounds=2, preload=1_000)
        assert len(out.series) == 3  # one per protocol
        assert all(s.points for s in out.series)
        assert ("raft", 0.5) in out.data

    def test_f4_structure(self):
        out = exp_f4_ablation(depths=(1, None), rounds=2, preload=1_000)
        assert len(out.tables) == 1 and len(out.series) == 1
        assert set(out.data) == {1, None}

    def test_t5_structure(self):
        out = exp_t5_blocks(preload=500)
        assert set(out.data) == {"paxos", "sequencer"}
        for entry in out.data.values():
            assert entry["throughput"] > 0

    def test_t6_structure(self):
        out = exp_t6_detector(timeouts=(0.1,))
        assert 0.1 in out.data
        assert out.data[0.1]["gap"] >= 0

    def test_t7_structure(self):
        out = exp_t7_leases(read_ratios=(0.9,))
        assert (0.9, "log") in out.data and (0.9, "lease") in out.data
        assert out.data[(0.9, "lease")]["lease_reads"] > 0

    def test_t2_structure(self):
        out = exp_t2_statesize(preloads=(1_000,))
        assert len(out.tables[0].rows) == 2  # two protocols, one state size
        assert out.tables[0].rows[0][2] == "0.09"  # snapshot MB of 1k entries
        assert set(out.data) == {("speculative", 1_000), ("stw", 1_000)}
        for entry in out.data.values():
            assert set(entry) == {"order_resume", "first_reply", "gap"}
            assert entry["order_resume"] > 0

    def test_t4_structure(self):
        out = exp_t4_msgcost(ops=40)
        assert len(out.tables[0].rows) == 3  # one row per protocol
        assert set(out.data) == {"speculative", "stw", "raft"}
        for entry in out.data.values():
            assert set(entry) == {
                "steady_msgs_per_op", "steady_bytes_per_op",
                "reconfig_msgs_per_op", "extra_per_reconfig",
            }
            assert entry["steady_msgs_per_op"] > 0

    def test_f5_structure(self):
        out = exp_f5_warmjoin(preloads=(1_000,))
        assert len(out.tables[0].rows) == 2  # warm and cold, one state size
        assert set(out.data) == {("warm (observer)", 1_000), ("cold (snapshot)", 1_000)}
        assert all(0 < latency < 30.0 for latency in out.data.values())
        assert len(out.series[0].points) == 2

    def test_t8_structure(self):
        out = exp_t8_batching(delays_ms=(0.0, 2.0), clients=4)
        assert [len(table.rows) for table in out.tables] == [2, 2]  # T8, T8b
        assert set(out.data) == {0.0, 2.0, ("cpu", 0.0), ("cpu", 2.0)}
        for entry in out.data.values():
            assert set(entry) == {"throughput", "p50_ms", "msgs_per_op"}
        assert len(out.series[0].points) == 2

    def test_output_render_roundtrip(self):
        out = exp_t6_detector(timeouts=(0.1,))
        for table in out.tables:
            text = table.render()
            assert "T6" in text
        for series in out.series:
            assert series.render()
