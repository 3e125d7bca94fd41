"""The observability layer: registry, spans, stats edges, sim parity.

Covers the :mod:`repro.metrics.registry` primitives (counters, gauges,
bounded-reservoir histograms, reconfiguration spans), the
:mod:`repro.net.observe` snapshot digestion helpers, the fault-aligned
chaos timeline assembly, and — the load-bearing part — that a simulated
reconfiguration records a complete decided → cut → transfer →
first-commit span plus per-epoch commit counts on ``sim.metrics``,
mirroring what the live ``#metrics`` endpoint exposes.

Also home to the stats edge-case satellites: ``percentile`` against a
brute-force nearest-rank reference, and the pinned boundary inconsistency
between ``summarize_latencies([])`` (zero summary) and
``percentile([], p)`` (raises).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import run_kv_service
from repro.errors import ConfigurationError
from repro.metrics import registry as registry_mod
from repro.metrics.registry import (
    RECONFIG_PHASES,
    RECONFIG_TERMINAL_PHASES,
    SPAN_RECONFIG,
    Histogram,
    MetricsRegistry,
    metrics_of,
    reconfig_span_closed,
    reconfig_span_complete,
    span_width,
)
from repro.metrics.stats import percentile, summarize_latencies
from repro.net.admin import MetricsSnapshot, metrics_endpoint
from repro.net.observe import (
    EPOCH_COMMITS_PREFIX,
    FetchedSnapshot,
    epoch_commit_counts,
    reconfig_spans,
    render_snapshots,
)
from repro.types import ClientId, CommandId, NodeId


# ---------------------------------------------------------------------------
# Registry primitives
# ---------------------------------------------------------------------------


class TestCountersAndGauges:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc()
        counter.inc(3)
        assert registry.counter("a") is counter
        assert counter.value == 4

    def test_gauge_set_coerces_float(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(7)
        assert registry.gauge("depth").value == 7.0
        assert isinstance(registry.gauge("depth").value, float)

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(0.1)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]  # sorted
        assert snap["counters"] == {"a": 2, "z": 1}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1.0
        assert snap["spans"] == {}

    def test_snapshot_hooks_run_each_snapshot(self):
        registry = MetricsRegistry()
        calls = []
        registry.on_snapshot(lambda r: calls.append(r.gauge("live").set(1.0)))
        registry.snapshot()
        registry.snapshot()
        assert len(calls) == 2
        assert registry.snapshot()["gauges"] == {"live": 1.0}


class TestHistogramReservoir:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Histogram("h", capacity=0)

    def test_at_exactly_capacity_keeps_every_sample(self):
        # Satellite regression: the ring buffer boundary at len == capacity.
        histogram = Histogram("h", capacity=4)
        for sample in (1.0, 2.0, 3.0, 4.0):
            histogram.record(sample)
        assert histogram.reservoir == [1.0, 2.0, 3.0, 4.0]
        assert histogram.count == 4
        summary = histogram.summary()
        assert summary["count"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0

    def test_one_past_capacity_overwrites_oldest(self):
        histogram = Histogram("h", capacity=4)
        for sample in (1.0, 2.0, 3.0, 4.0, 5.0):
            histogram.record(sample)
        # Newest `capacity` samples survive; all-time stats keep everything.
        assert sorted(histogram.reservoir) == [2.0, 3.0, 4.0, 5.0]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(15.0)
        assert histogram.peak == 5.0
        # The window mean excludes the evicted 1.0; max is all-time.
        assert histogram.summary()["mean"] == pytest.approx(3.5)
        assert histogram.summary()["max"] == 5.0

    def test_empty_summary_is_zero_not_raise(self):
        # Mirrors summarize_latencies([]) rather than percentile([], p).
        assert Histogram("h").summary() == {
            "count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
            "p99": 0.0, "max": 0.0,
        }


class TestSpans:
    def test_first_timestamp_per_phase_wins(self):
        registry = MetricsRegistry()
        registry.span_event(SPAN_RECONFIG, "1", "decided", 1.0)
        registry.span_event(SPAN_RECONFIG, "1", "decided", 9.0)  # retransmit
        registry.span_event(SPAN_RECONFIG, "1", "transfer", 2.0)
        spans = registry.spans(SPAN_RECONFIG)
        assert spans == {"reconfig/1": {"decided": 1.0, "transfer": 2.0}}

    def test_completeness_and_width(self):
        phases = {p: float(i) for i, p in enumerate(RECONFIG_PHASES)}
        assert reconfig_span_complete(phases)
        assert span_width(phases) == pytest.approx(3.0)
        del phases["transfer"]
        assert not reconfig_span_complete(phases)

    def test_event_log_bounded(self, monkeypatch):
        monkeypatch.setattr(registry_mod, "EVENT_CAPACITY", 3)
        registry = MetricsRegistry()
        for i in range(10):
            registry.span_event("k", str(i), "p", float(i))
        assert len(registry.events) == 3
        assert [e.span_id for e in registry.events] == ["7", "8", "9"]


class TestAbandonedSpans:
    def test_open_spans_excludes_terminal_phases(self):
        registry = MetricsRegistry()
        registry.span_event(SPAN_RECONFIG, "1", "decided", 1.0)
        registry.span_event(SPAN_RECONFIG, "1", "first-commit", 2.0)
        registry.span_event(SPAN_RECONFIG, "2", "decided", 3.0)
        registry.span_event(SPAN_RECONFIG, "2", "transfer", 3.5)
        open_spans = registry.open_spans(SPAN_RECONFIG)
        assert list(open_spans) == ["2"]
        # Copies, not views of the registry's internals.
        open_spans["2"]["decided"] = 99.0
        assert registry.spans(SPAN_RECONFIG)["reconfig/2"]["decided"] == 3.0

    def test_abandon_closes_a_mid_transfer_span(self):
        # A reconfiguration aborted mid-transfer (the boundary jump in
        # adopt_boundary) must not leave a dangling open span.
        registry = MetricsRegistry()
        registry.span_event(SPAN_RECONFIG, "2", "decided", 1.0)
        registry.span_event(SPAN_RECONFIG, "2", "cut", 1.1)
        assert registry.abandon_span(SPAN_RECONFIG, "2", 4.0)
        phases = registry.spans(SPAN_RECONFIG)["reconfig/2"]
        assert phases["aborted"] == 4.0
        assert reconfig_span_closed(phases)
        assert not reconfig_span_complete(phases)
        assert registry.open_spans(SPAN_RECONFIG) == {}

    def test_abandon_refuses_completed_spans(self):
        registry = MetricsRegistry()
        for i, phase in enumerate(RECONFIG_PHASES):
            registry.span_event(SPAN_RECONFIG, "1", phase, float(i))
        assert not registry.abandon_span(SPAN_RECONFIG, "1", 9.0)
        assert "aborted" not in registry.spans(SPAN_RECONFIG)["reconfig/1"]

    def test_abandon_refuses_unknown_spans(self):
        registry = MetricsRegistry()
        assert not registry.abandon_span(SPAN_RECONFIG, "7", 1.0)
        assert registry.spans(SPAN_RECONFIG) == {}

    def test_abandon_is_idempotent(self):
        registry = MetricsRegistry()
        registry.span_event(SPAN_RECONFIG, "3", "decided", 1.0)
        assert registry.abandon_span(SPAN_RECONFIG, "3", 2.0)
        assert not registry.abandon_span(SPAN_RECONFIG, "3", 5.0)
        assert registry.spans(SPAN_RECONFIG)["reconfig/3"]["aborted"] == 2.0

    def test_terminal_phase_constants_agree(self):
        assert "first-commit" in RECONFIG_TERMINAL_PHASES
        assert "aborted" in RECONFIG_TERMINAL_PHASES
        assert reconfig_span_closed({"first-commit": 1.0})
        assert reconfig_span_closed({"aborted": 1.0})
        assert not reconfig_span_closed({"decided": 1.0, "transfer": 2.0})


class TestMetricsOf:
    def test_returns_existing_registry(self):
        class Runtime:
            pass

        runtime = Runtime()
        first = metrics_of(runtime)
        assert isinstance(first, MetricsRegistry)
        assert metrics_of(runtime) is first

    def test_tolerates_unsettable_runtime(self):
        # A runtime with slots (no metrics attribute) still gets a registry,
        # just not a cached one.
        class Frozen:
            __slots__ = ()

        assert isinstance(metrics_of(Frozen()), MetricsRegistry)


# ---------------------------------------------------------------------------
# Stats edges (satellites: property + pinned boundary inconsistency)
# ---------------------------------------------------------------------------


def nearest_rank(samples, p):
    """Brute-force nearest-rank reference implementation."""
    ordered = sorted(samples)
    rank = math.ceil(p / 100 * len(ordered)) - 1
    return ordered[max(0, rank)]


class TestPercentileProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1, max_size=50,
        ),
        p=st.one_of(
            st.integers(min_value=0, max_value=100).map(float),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
    )
    def test_matches_nearest_rank_reference(self, samples, p):
        assert percentile(samples, p) == nearest_rank(samples, p)

    def test_p0_is_min_and_single_sample_is_itself(self):
        assert percentile([5.0, 1.0, 3.0], 0) == 1.0
        for p in (0, 1, 50, 99, 100):
            assert percentile([7.0], p) == 7.0

    def test_out_of_range_p_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], -0.1)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 100.1)


class TestEmptyInputBoundary:
    def test_summarize_latencies_empty_returns_zero_summary(self):
        summary = summarize_latencies([])
        assert summary.count == 0
        assert summary.mean_ms == summary.p50_ms == summary.p99_ms == 0.0

    def test_percentile_empty_raises(self):
        # Pinned inconsistency: the summary helper degrades to zeros while
        # the primitive raises. Both behaviors are load-bearing (callers of
        # percentile() would silently mistake 0.0 for a real latency).
        with pytest.raises(ConfigurationError):
            percentile([], 50)


# ---------------------------------------------------------------------------
# Snapshot digestion helpers
# ---------------------------------------------------------------------------


def make_snapshot(node="n1", now=10.0, counters=None, spans=None):
    return MetricsSnapshot(
        CommandId(ClientId("t"), 1), NodeId(node), now,
        counters or {}, {}, {}, spans or {},
    )


class TestObserveHelpers:
    def test_metrics_endpoint_name(self):
        assert metrics_endpoint("n1") == NodeId("n1#metrics")

    def test_epoch_commit_counts_parses_prefix(self):
        snapshot = make_snapshot(counters={
            f"{EPOCH_COMMITS_PREFIX}0": 12,
            f"{EPOCH_COMMITS_PREFIX}1": 3,
            "smr.commits": 15,
        })
        assert epoch_commit_counts(snapshot) == {0: 12, 1: 3}

    def test_span_filtering_and_completeness(self):
        spans = {
            "reconfig/1": {p: float(i) for i, p in enumerate(RECONFIG_PHASES)},
            "reconfig/2": {"decided": 5.0},
            "other/9": {"decided": 0.0},
        }
        snapshot = make_snapshot(spans=spans)
        assert set(reconfig_spans(snapshot)) == {"1", "2"}
        complete = [
            epoch for epoch, phases in reconfig_spans(snapshot).items()
            if reconfig_span_complete(phases)
        ]
        assert complete == ["1"]

    def test_fetched_snapshot_clock_alignment(self):
        fetched = FetchedSnapshot(make_snapshot(now=10.0), fetched_at=110.0)
        assert fetched.replica_t0 == pytest.approx(100.0)
        # A span phase stamped at replica-time 4.0 maps to poller-time 104.
        assert fetched.local_time(4.0) == pytest.approx(104.0)

    def test_render_snapshots_includes_all_sections(self):
        snapshot = MetricsSnapshot(
            CommandId(ClientId("t"), 1), NodeId("n1"), 10.0,
            {"smr.commits": 5}, {"net.queue_depth": 0.0},
            {"smr.exec_lag": {"count": 2.0, "mean": 0.01, "p50": 0.01,
                              "p95": 0.02, "p99": 0.02, "max": 0.02}},
            {"reconfig/1": {p: float(i) for i, p in enumerate(RECONFIG_PHASES)}},
        )
        text = render_snapshots({"n1": snapshot})
        for fragment in ("counters", "gauges", "histograms",
                         "reconfiguration spans", "smr.commits",
                         "first-commit"):
            assert fragment in text


class TestChaosTimeline:
    def _report(self, spans):
        from repro.net.chaos import Injection
        from repro.net.storm import StormReport, build_storm_plan
        from repro.faults import CrashAt
        from repro.verify.histories import History
        from repro.verify.linearizability import LinearizabilityResult

        return StormReport(
            plan=build_storm_plan("chaos", seed=42),
            read_mode=None,
            linearizable=LinearizabilityResult(True, None, 0, 0),
            history=History([]),
            injections=[Injection(1.0, 1.5, CrashAt(1.0, NodeId("n2")), ())],
            reconfigs=[],
            elapsed=6.0,
            log_dir="/tmp/x",
            spans=spans,
        )

    def test_injection_annotated_with_overlapping_span(self):
        report = self._report(
            {"n2": {"1": {"decided": 1.2, "cut": 1.3, "transfer": 1.4,
                          "first-commit": 1.9}}}
        )
        assert report.span_overlaps(1.5) == ["n2:epoch 1"]
        assert report.span_overlaps(0.5) == []
        events = report.timeline()
        assert [e["at"] for e in events] == sorted(e["at"] for e in events)
        injection = next(e for e in events if e["kind"] == "injection")
        assert injection["overlapping_spans"] == ["n2:epoch 1"]
        assert sum(e["kind"] == "span" for e in events) == 4

    def test_write_timeline_round_trips(self, tmp_path):
        import json

        report = self._report({"n3": {"1": {"decided": 2.0}}})
        path = tmp_path / "timeline.json"
        report.write_timeline(path)
        payload = json.loads(path.read_text())
        assert payload["seed"] == 42
        assert payload["final_members"] == ["n2", "n3", "n4"]
        assert any(e["kind"] == "span" for e in payload["events"])
        assert any(e["kind"] == "injection" for e in payload["events"])


# ---------------------------------------------------------------------------
# Sim parity: one reconfiguration records the full span + commit counters
# ---------------------------------------------------------------------------


class TestSimInstrumentation:
    def test_reconfiguration_records_complete_span_and_epoch_counters(self, sim):
        service, clients, finished = run_kv_service(
            sim, n_ops=80, reconfigs=[(0.4, ("n2", "n3", "n4"))], until=40.0,
        )
        assert finished
        assert service.newest_epoch() >= 1
        snap = sim.metrics.snapshot()

        # Per-epoch commit counters for both epochs, plus the total.
        counters = snap["counters"]
        assert counters.get(f"{EPOCH_COMMITS_PREFIX}0", 0) > 0
        assert counters.get(f"{EPOCH_COMMITS_PREFIX}1", 0) > 0
        assert counters["smr.commits"] >= (
            counters[f"{EPOCH_COMMITS_PREFIX}0"]
            + counters[f"{EPOCH_COMMITS_PREFIX}1"]
        )
        assert counters["service.reconfigure_requests"] == 1

        # The commit path ran through the engines.
        assert counters["paxos.proposals"] > 0
        assert counters["paxos.decided"] > 0
        assert counters["paxos.elections"] >= 1

        # Execution lag histogram saw every executed command.
        assert snap["histograms"]["smr.exec_lag"]["count"] > 0

        # The reconfiguration recorded a complete span: decided -> cut ->
        # transfer -> first-commit, in non-decreasing order.
        spans = sim.metrics.spans(SPAN_RECONFIG)
        assert "reconfig/1" in spans, spans
        phases = spans["reconfig/1"]
        assert reconfig_span_complete(phases), phases
        assert (
            phases["decided"] <= phases["cut"]
            <= phases["transfer"] <= phases["first-commit"]
        )
        assert span_width(phases) is not None and span_width(phases) >= 0.0

    def test_genesis_epoch_gets_no_span(self, sim):
        service, clients, finished = run_kv_service(sim, n_ops=20)
        assert finished
        assert sim.metrics.spans(SPAN_RECONFIG) == {}
        # ...but commits in epoch 0 are still counted.
        snap = sim.metrics.snapshot()
        assert snap["counters"].get(f"{EPOCH_COMMITS_PREFIX}0", 0) > 0

    def test_boundary_jump_aborts_skipped_spans(self):
        """A hand-off abandoned mid-transfer closes as aborted, not open.

        Reruns the skipped-epoch scenario (member of epochs 1 and 3 but
        not 2, large state so the epoch-1 transfer is still in flight
        when the membership moves on) with a private registry on the
        bouncing replica: in the sim all replicas share ``sim.metrics``
        where another member's first-commit (first-wins) would mask the
        abort this test exists to observe. Live replicas each own their
        registry, so the private one mirrors production.
        """
        from repro.apps.kvstore import KvStateMachine
        from repro.core.client import ClientParams
        from repro.core.service import ReplicatedService
        from repro.sim.runner import Simulator
        from repro.types import node_id

        sim = Simulator(seed=901)

        def app():
            kv = KvStateMachine()
            kv.preload(30_000)
            return kv

        sim.network.latency.bandwidth = 3_000_000.0
        service = ReplicatedService(sim, ["n1", "n2", "n3"], app)
        budget = [120]
        rng = sim.rng.fork("abort-client")

        def ops():
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            return ("set", (f"k{rng.randint(0, 4)}", budget[0]), 64)

        client = service.make_client(
            "c1", ops, ClientParams(start_delay=0.2, request_timeout=0.4)
        )
        service.reconfigure_at(0.40, ["n1", "n2", "n9"])
        service.reconfigure_at(0.55, ["n1", "n2", "n3"])
        service.reconfigure_at(0.70, ["n1", "n2", "n9"])
        spawned = sim.run_until(
            lambda: node_id("n9") in service.replicas, timeout=10.0
        )
        assert spawned
        bouncer = service.replicas[node_id("n9")]
        bouncer.metrics = MetricsRegistry()
        done = sim.run_until(lambda: client.finished, timeout=60.0)
        assert done
        sim.run(until=sim.now + 4.0)

        spans = bouncer.metrics.spans(SPAN_RECONFIG)
        aborted = [
            span_id for span_id, phases in spans.items()
            if "aborted" in phases
        ]
        assert aborted, f"no aborted span despite the boundary jump: {spans}"
        # Every span on the bouncer is closed one way or the other — a
        # dangling open hand-off span is exactly the bug this guards.
        for span_id, phases in spans.items():
            assert reconfig_span_closed(phases), (span_id, phases)
        # The bouncer still ended up serving the final epoch.
        assert bouncer.exec_epoch == 3
