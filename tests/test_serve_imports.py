"""What a ``repro serve`` process loads: the serving stack and nothing else.

Every fresh replica — a cluster start, a joiner, a restart from the WAL —
imports its modules before it accepts a connection, so imports are most of
its boot time. The experiment harness, the Raft baselines, the oracles
that judge a run and the simulator's runner are code serving never calls.
Two rules keep them out (DESIGN, module map): a package ``__init__``
re-exports nothing, and a wire type's module imports no controller or
harness at module level.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import repro

#: modules (and packages) a serving replica never runs: the experiment
#: harness and what only it uses, the clients and controllers that drive a
#: live cluster from outside, and the oracles that judge a run.
NOT_SERVING = (
    "repro.bench",
    "repro.baselines",
    "repro.verify",
    "repro.workload",
    "repro.sim.runner",
    "repro.sim.failures",
    "repro.core.service",
    "repro.consensus.synod",
    "repro.consensus.sequencer",
    "repro.net.client",
    "repro.net.chaos",
    "repro.net.observe",
)

BUILD_ONE_REPLICA = """
import json, sys
from repro.cli import build_parser, build_replica

build_replica(build_parser().parse_args([
    "serve", "--node", "n1", "--peers", "n1=127.0.0.1:1", "--initial", "n1",
    "--data-dir", sys.argv[1], "--app", sys.argv[2],
]))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""

SRC = Path(repro.__file__).resolve().parents[1]

SERVE_ARGS = ["serve", "--node", "n1", "--peers", "n1=127.0.0.1:1",
              "--initial", "n1"]


def loaded_by_a_built_replica(tmp_path, app: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after
    ``build_replica``, as ``serve`` runs it."""
    out = subprocess.run(
        [sys.executable, "-c", BUILD_ONE_REPLICA, str(tmp_path / "n1"), app],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = json.loads(out.stdout)
    for serving in (
        "repro.net.transport", "repro.storage.store", "repro.net.admin",
        "repro.core.state_transfer", "repro.core.observer",
    ):
        assert serving in loaded
    offenders = [
        name for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in NOT_SERVING)
    ]
    assert offenders == []
    return loaded


def test_a_built_replica_loads_only_the_serving_stack(tmp_path):
    """The transport's constructor builds the codec tables, so every wire
    type's module is in by the time ``build_replica`` returns, and the
    admin endpoints are wired."""
    loaded_by_a_built_replica(tmp_path, "kv")


def test_a_built_director_replica_loads_only_the_serving_stack(tmp_path):
    """A metadir replica adds its intent driver and map endpoint, and no
    client library: the driver sends through the replica's transport."""
    loaded = loaded_by_a_built_replica(tmp_path, "metadir")
    assert "repro.shard.metadir" in loaded


def test_a_built_director_replica_starts_no_thread():
    """The intent driver is a process on the replica's event loop."""
    from repro.cli import build_parser, build_replica

    before = threading.active_count()
    runtime, replica, _, _ = build_replica(
        build_parser().parse_args([*SERVE_ARGS, "--app", "metadir"])
    )
    try:
        assert threading.active_count() == before
        assert any(p is not replica for p in runtime.processes())
    finally:
        runtime._loop.close()


def test_no_package_init_imports_anything():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("__init__.py"))
        if any(
            isinstance(node, (ast.Import, ast.ImportFrom))
            for node in ast.walk(ast.parse(path.read_text()))
        )
    ]
    assert offenders == []
