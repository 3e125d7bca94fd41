"""Tests of the benchmark itself (not tier-1: ``python -m pytest perf/tests``)."""

from __future__ import annotations

import json
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.client import ClientReply, ClientRequest
from repro.net import codec

from perf.driver import KEYS, LoadDriver, OpStream
from perf.names import END_TO_END, PER_LAYER
from perf.trace import Tracer
from perf.workloads import WORKLOADS, replacements_for

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_contract_names_units_and_counts():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in doc[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in doc["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    runs = 4 + 22 * len(doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60
    # set-up, warm-up, checks and tear-down ride on top of run_seconds
    assert runs * (doc["run_seconds"] + 10) <= 3420


def test_contract_matches_the_code():
    doc = contract()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(e["name"], e["unit"], e["better"]) for e in doc["end_to_end"]] == END_TO_END
    assert [(e["name"], e["unit"], e["better"]) for e in doc["per_layer"]] == PER_LAYER


def test_same_seed_same_operations():
    def first_ops(seed: int, lanes: int, read_frac: float) -> bytes:
        stream = OpStream(seed, lanes, read_frac)
        # lanes progress at whatever pace acknowledgements arrive; the
        # order lanes are asked in must not matter
        order = list(range(lanes)) * 50
        forwards = [stream.next(lane) for lane in order]
        stream = OpStream(seed, lanes, read_frac)
        backwards = [stream.next(lane) for lane in reversed(order)]
        assert sorted(map(repr, forwards)) == sorted(map(repr, backwards))
        return repr(forwards).encode()

    for lanes, read_frac in ((8, 0.0), (64, 0.95), (256, 0.0), (1, 0.0)):
        assert first_ops(7, lanes, read_frac) == first_ops(7, lanes, read_frac)
        assert first_ops(7, lanes, read_frac) != first_ops(8, lanes, read_frac)


def test_a_key_is_written_by_one_lane_only():
    stream = OpStream(3, 64, 0.5)
    writer: dict[str, int] = {}
    for lane in list(range(64)) * 40:
        op, args, _ = stream.next(lane)
        if op == "set":
            assert writer.setdefault(args[0], lane) == lane
    assert len(stream.keys) == KEYS


def test_span_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("iteration")            # 0 .. 10
    inner = tracer.begin("wait", outer, op=5)    # 1 .. 3
    tracer.end(inner)
    inner = tracer.begin("decode", outer, op=5)  # 4 .. 9
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.self_times() == {"iteration": 3.0, "wait": 2.0, "decode": 5.0}
    assert sum(tracer.self_fractions().values()) == pytest.approx(1.0)
    assert tracer.ops == [-1, 5, 5] and tracer.parents == [-1, 0, 0]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.end(tracer.begin("wait"))
    assert len(tracer) == 0 and tracer.self_fractions() == {}


class StallingServer(threading.Thread):
    """Acknowledges every request at once, except that it sleeps
    ``stall_s`` before it reads anything."""

    def __init__(self, stall_s: float):
        super().__init__(daemon=True)
        self.stall_s = stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()

    def run(self) -> None:
        conn, _ = self.listener.accept()
        time.sleep(self.stall_s)
        buffer = b""
        with conn:
            while chunk := conn.recv(65536):
                buffer += chunk
                while len(buffer) >= 4:
                    length = codec.frame_length(buffer[:4])
                    if len(buffer) < 4 + length:
                        break
                    sender, dest, request = codec.decode_frame_body(buffer[4:4 + length])
                    buffer = buffer[4 + length:]
                    assert isinstance(request, ClientRequest)
                    reply = ClientReply(request.command.cid, "ok", 0, 0)
                    conn.sendall(codec.encode_frame(dest, sender, reply))


def test_paced_stream_times_from_due_time_and_reports_lateness():
    stall_s, rate = 0.3, 100.0
    server = StallingServer(stall_s)
    server.start()
    history: list = []
    with LoadDriver("t", {"n1": server.address}, ["n1"], 1,
                    pace_hz=rate, history=history) as driver:
        result = driver.run(OpStream(1, 1), 0.6)
    server.listener.close()
    assert result.attempted == result.acked == 60 and result.failed == 0
    # the first request waited out the stall
    assert result.latencies_s[0] >= stall_s - 0.01
    # the requests due during the stall could only be sent after it, yet are
    # timed from when they were due: the 10th was due at 0.09 s
    assert result.latencies_s[9] >= stall_s - 0.09 - 0.01
    assert result.lateness_s[0] < 0.05
    assert max(result.lateness_s) >= stall_s - 0.02 - 0.01
    # once the backlog is gone the generator is on schedule again
    assert result.lateness_s[-1] < 0.05 and result.latencies_s[-1] < 0.05
    assert [op.invoked_at for op in history] == sorted(op.invoked_at for op in history)
    assert len(result.completions) == 60


def test_replacement_count_follows_the_measured_seconds():
    assert [replacements_for(s) for s in (1, 8, 16, 20, 60)] == [1, 3, 7, 8, 8]


def test_smoke_suite_prints_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.monotonic() - started < 60
    report = json.loads(out.read_text(encoding="utf-8"))
    for key in ("cpus", "python", "platform", "git_sha", "loadavg_1m", "uvloop", "seed"):
        assert key in report["environment"]
    assert list(report["workloads"]) == list(WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["problems"])
        assert entry["wall_s"] > 0
        for metric, unit, _ in END_TO_END:
            assert entry["end_to_end"][metric]["unit"] == unit
            assert entry["end_to_end"][metric]["value"] > 0, (name, metric)
        assert [m for m in entry["per_layer"]] == [m for m, _, _ in PER_LAYER]
        for metric, unit, _ in PER_LAYER:
            assert entry["per_layer"][metric]["unit"] == unit
            assert f" {metric} " in done.stdout.replace("\n", " ") + " ", metric
    assert not list((ROOT / "perf" / "out").glob("cluster-*"))
