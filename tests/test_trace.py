"""Tests for the structured trace log."""

from repro.sim import trace
from repro.sim.trace import TraceLog


class TestTraceLog:
    def test_emit_and_filter(self):
        log = TraceLog()
        log.emit(1.0, "n1", "decide", slot=3)
        log.emit(2.0, "n2", "decide", slot=4)
        log.emit(3.0, "n1", "crash")
        assert log.count("decide") == 2
        assert len(list(log.records(source="n1"))) == 2
        assert len(list(log.records(category="decide", source="n2"))) == 1

    def test_last(self):
        log = TraceLog()
        log.emit(1.0, "a", "x", v=1)
        log.emit(2.0, "a", "x", v=2)
        assert log.last("x").detail["v"] == 2
        assert log.last("missing") is None

    def test_disabled_log_records_nothing(self):
        log = TraceLog(enabled=False)
        log.emit(1.0, "a", "x")
        assert len(log) == 0

    def test_capacity_bound(self, monkeypatch):
        monkeypatch.setattr(trace, "TRACE_CAPACITY", 3)
        log = TraceLog()
        for i in range(5):
            log.emit(float(i), "a", "x")
        assert len(log) == 3
        assert log.dropped == 2

    def test_clear(self):
        log = TraceLog()
        log.emit(1.0, "a", "x")
        log.clear()
        assert len(log) == 0 and log.dropped == 0

    def test_str_rendering(self):
        log = TraceLog()
        log.emit(0.0015, "n1", "decide", slot=3)
        text = str(next(log.records()))
        assert "n1" in text and "decide" in text and "slot=3" in text
