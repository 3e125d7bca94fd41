"""Command-line interface: run the paper's experiments from a terminal.

Usage::

    python -m repro list                 # experiments with one-line summaries
    python -m repro run T2               # regenerate one table/figure
    python -m repro run F2 --quick       # smaller parameters, faster
    python -m repro demo                 # 30-second guided tour
    python -m repro storm rolling        # live cluster, verified scenario
    python -m repro serve --node n1 ...  # one live replica (used by storm)

The heavy lifting lives in :mod:`repro.bench.experiments`, whose registry
holds each experiment's summary and its "quick" parameters (output in
seconds for a first-time user); this module is argument parsing. Each
subcommand imports what it runs inside its own function, so a ``serve``
process loads the serving stack and not the experiment harness.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time


def _cmd_list() -> int:
    from repro.bench.experiments import REGISTRY

    print("experiments (run with: python -m repro run <ID>):")
    for name in sorted(REGISTRY):
        print(f"  {name:4} {REGISTRY[name].summary}")
    return 0


def _cmd_run(name: str, quick: bool, seed: int | None) -> int:
    from repro.bench.experiments import REGISTRY

    key = name.upper()
    experiment = REGISTRY.get(key)
    if experiment is None:
        print(f"unknown experiment {name!r}; try: python -m repro list", file=sys.stderr)
        return 2
    kwargs = dict(experiment.quick) if quick else {}
    if seed is not None:
        kwargs["seed"] = seed
    started = time.time()
    output = experiment.run(**kwargs)
    output.print()
    print(f"\n[{key} completed in {time.time() - started:.1f}s"
          f"{' (quick parameters)' if quick else ''}]")
    return 0


def _cmd_demo() -> int:
    from repro.apps.kvstore import KvStateMachine
    from repro.core.client import ClientParams
    from repro.core.service import ReplicatedService
    from repro.sim.runner import Simulator

    print("demo: 3-replica KV service, live replacement of one replica\n")
    sim = Simulator(seed=7)
    service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
    plan = iter(
        [("set", (f"key-{i}", i), 64) for i in range(50)]
        + [("get", (f"key-{i}",), 32) for i in range(50)]
    )
    client = service.make_client(
        "you", lambda: next(plan, None), ClientParams(start_delay=0.1)
    )
    service.reconfigure_at(0.3, ["n1", "n2", "n4"])
    sim.run_until(lambda: client.finished, timeout=30.0)
    reads_ok = sum(
        1
        for record in client.records
        if record.op == "get" and record.value == int(str(record.args[0]).split("-")[1])
    )
    print(f"  50 writes acknowledged, then n3 -> n4 swapped in live")
    print(f"  50 reads after the swap: {reads_ok} correct")
    print(f"  epochs used: {service.newest_epoch() + 1}")
    print("\nNext: python -m repro run T2 --quick   (the headline result)")
    return 0


#: application registry for the live commands: name -> (module, class).
_APPS = {
    "kv": ("repro.apps.kvstore", "KvStateMachine"),
    "counter": ("repro.apps.counter", "CounterStateMachine"),
    "bank": ("repro.apps.bank", "BankStateMachine"),
    "lock": ("repro.apps.lockservice", "LockServiceStateMachine"),
    "metadir": ("repro.shard.metadir", "MetaDirStateMachine"),
}


def _app_factory(name: str):
    """The state machine class ``--app`` names; only its module is imported."""
    spec = _APPS.get(name)
    if spec is None:
        raise SystemExit(f"unknown app {name!r}; choose from {sorted(_APPS)}")
    module, cls = spec
    return getattr(importlib.import_module(module), cls)


def _parse_group_peers(
    specs: list[str],
) -> dict[str, dict[str, tuple[str, int]]]:
    """Parse repeated ``--peers`` values, optionally group-labelled.

    Each value is either a plain address book (``n1=host:port,...``) or
    one prefixed with a group label (``g1:n1=host:port,...``). Plain
    books land under the empty label, so single-cluster invocations keep
    their old shape while sharded ones get per-group snapshots.
    """
    groups: dict[str, dict[str, tuple[str, int]]] = {}
    for spec in specs:
        head, sep, rest = spec.partition(":")
        if sep and "=" not in head:
            label, book = head, rest
        else:
            label, book = "", spec
        groups.setdefault(label, {}).update(_parse_peers(book))
    return groups


def _parse_peers(spec: str, flag: str = "--peers") -> dict[str, tuple[str, int]]:
    """Parse ``n1=127.0.0.1:9101,n2=...`` (the value of ``flag``) into an
    address book."""
    book: dict[str, tuple[str, int]] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        try:
            name, address = entry.split("=", 1)
            host, port = address.rsplit(":", 1)
            book[name] = (host, int(port))
        except ValueError:
            raise SystemExit(f"bad {flag} entry {entry!r} (want name=host:port)")
    if not book:
        raise SystemExit(f"{flag} must name at least one replica")
    return book


def build_replica(args: "argparse.Namespace"):
    """Everything ``serve`` runs, built and wired but not yet serving.

    Returns ``(runtime, replica, host, port)``; ``runtime.network`` is the
    transport and ``replica.storage`` the durable store (None without
    ``--data-dir``).
    """
    from repro.consensus.multipaxos import MultiPaxosEngine, PaxosParams
    from repro.core.reconfig import ReconfigParams, ReconfigurableReplica
    from repro.net.admin import install_chaos_endpoint, install_metrics_endpoint
    from repro.net.runtime import LiveRuntime
    from repro.faults import LinkPolicy
    from repro.net.transport import TcpTransport
    from repro.types import Configuration, Membership, NodeId

    addresses = _parse_peers(args.peers)
    if args.node not in addresses:
        raise SystemExit(f"--node {args.node!r} is not in --peers")
    host, port = addresses[args.node]
    if args.port is not None:
        host, port = args.host, args.port

    transport = TcpTransport(
        addresses,
        # Seeded per replica so injected link loss draws are reproducible.
        link_policy=LinkPolicy(seed=args.seed),
    )
    runtime = LiveRuntime(transport, seed=args.seed, echo_trace=args.verbose)
    storage = None
    if args.data_dir:
        from repro.storage.store import ReplicaStore

        storage = ReplicaStore(
            args.data_dir, fsync=args.fsync, metrics=runtime.metrics
        )
        # WAL group commit: the records written while one inbound chunk
        # is handled share a single fsync (the safety argument is at
        # TcpTransport.add_dispatch_group).
        transport.add_dispatch_group(storage.group)
    if args.chaos:
        status = None
        if storage is not None:
            status = storage.status  # recovery status for the controller
        install_chaos_endpoint(transport, args.node, status=status)
    # Read-only, so always served (unlike the chaos endpoint).
    install_metrics_endpoint(
        transport, args.node, runtime.metrics, lambda: runtime.now
    )
    engine_params = PaxosParams(
        batch_delay=args.batch_delay / 1000.0,
        batch_max=args.batch_max,
        window=args.window,
        lease_duration=args.lease_duration / 1000.0,
        suspect_timeout_min=args.suspect_timeout / 1000.0,
    )
    params = ReconfigParams(
        engine_factory=MultiPaxosEngine.factory(engine_params),
        checkpoint_interval=args.checkpoint_interval,
        read_mode=args.read_mode,
    )
    app_factory = _app_factory(args.app)
    if args.shard_group:
        if args.app != "kv":
            raise SystemExit("--shard-group requires --app kv")
        from repro.apps.shardkv import ShardedKvStateMachine
        from repro.shard.shardmap import parse_ranges

        shard_group = args.shard_group
        shard_owned = parse_ranges(args.shard_ranges)
        shard_version = args.shard_version

        def app_factory() -> ShardedKvStateMachine:  # type: ignore[misc]
            return ShardedKvStateMachine(
                group=shard_group, owned=shard_owned, version=shard_version
            )

    initial_config = None
    if args.initial:
        members = [m.strip() for m in args.initial.split(",") if m.strip()]
        if args.node in members:
            initial_config = Configuration(0, Membership.from_iter(members))
    replica = ReconfigurableReplica(
        runtime,
        NodeId(args.node),
        app_factory,
        params,
        initial_config=initial_config,
        storage=storage,
    )
    if args.app == "metadir":
        from repro.shard.metadir import IntentDriver

        IntentDriver(
            replica,
            hold=args.metadir_hold / 1000.0,
            takeover=args.metadir_takeover / 1000.0,
        )
    return runtime, replica, host, port


def _cmd_serve(args: "argparse.Namespace") -> int:
    """Run one live replica process until SIGINT/SIGTERM."""
    runtime, replica, host, port = build_replica(args)
    storage = replica.storage
    if storage is not None:
        stat = storage.status()
        boot = "recovered" if stat["recovered"] else "fresh"
        print(f"[{args.node}] durable {boot}: "
              f"{stat['wal_records']} WAL records, "
              f"epoch {replica.exec_epoch} at vindex {replica.virtual_index}, "
              f"torn_bytes={stat['torn_bytes']} "
              f"({stat['recovery_seconds'] * 1000:.1f}ms, fsync="
              f"{'on' if storage.fsync else 'off'})",
              flush=True)
    shard_note = ""
    if args.shard_group:
        shard_note = (f", shard={args.shard_group} "
                      f"ranges={args.shard_ranges or '(none)'}")
    commit_note = (f", batch={args.batch_delay:g}ms/max{args.batch_max}"
                   f", window={args.window or 'unbounded'}")
    read_note = ""
    if args.read_mode != "log":
        from repro.core.reconfig import STALENESS_BOUND

        bound = (f"lease={args.lease_duration:g}ms" if args.read_mode == "lease"
                 else f"staleness<={STALENESS_BOUND * 1e3:g}ms")
        read_note = f", reads={args.read_mode} ({bound})"
    member = args.node in [m.strip() for m in args.initial.split(",")]
    print(f"[{args.node}] serving on {host}:{port} "
          f"(app={args.app}, member={'yes' if member else 'standby'}"
          f"{commit_note}{read_note}{shard_note})",
          flush=True)
    from repro.errors import DurabilityError

    try:
        runtime.run(host, port)
    except DurabilityError as exc:
        # Fail-stop: the replica's WAL can no longer be trusted; what the
        # failed window produced never left the process.
        print(f"[{args.node}] stopped: {exc}", file=sys.stderr, flush=True)
        return 1
    return 0


def _cmd_shard_route(args: "argparse.Namespace") -> int:
    """Read the shard map through the director and show where keys live."""
    from repro.net.client import LiveClientError
    from repro.shard.metadir import ReplicatedShardDirector
    from repro.shard.shardmap import ShardError, key_point

    book = _parse_peers(args.director, "--director")
    try:
        with ReplicatedShardDirector(book, name="shard-route") as director:
            shard_map = director.shard_map(deadline=args.timeout)
    except (LiveClientError, ShardError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"shard map v{shard_map.version} "
          f"({len(shard_map.assignments)} ranges, "
          f"{len(shard_map.groups)} groups):")
    for assignment in shard_map.assignments:
        info = shard_map.group_info(assignment.group)
        print(f"  {assignment.range} -> {assignment.group} "
              f"[{','.join(info.members)}]")
    for key in args.keys:
        point = key_point(key)
        print(f"  {key!r} -> point {point} -> "
              f"{shard_map.group_for_point(point)}")
    return 0


def _cmd_metrics(args: "argparse.Namespace") -> int:
    """Poll a live cluster's ``#metrics`` endpoints and render the snapshots."""
    import json

    from repro.net.observe import render_snapshots

    def snapshot_json(snapshots) -> str:
        return json.dumps(
            {
                node: {
                    "now": s.now, "counters": s.counters, "gauges": s.gauges,
                    "histograms": s.histograms, "spans": s.spans,
                }
                for node, s in sorted(snapshots.items())
            },
            indent=2, sort_keys=True,
        )

    groups = _parse_group_peers(args.peers)
    if set(groups) == {""}:
        # Single unlabelled cluster: the original one-cluster behaviour.
        from repro.net.observe import poll_cluster

        fetched, errors = poll_cluster(groups[""])
        snapshots = {node: f.snapshot for node, f in fetched.items()}
        if args.json:
            print(snapshot_json(snapshots))
        elif snapshots:
            print(render_snapshots(snapshots))
        if args.json_out and snapshots:
            with open(args.json_out, "w") as handle:
                handle.write(snapshot_json(snapshots) + "\n")
        for error in errors:
            print(f"note: {error}", file=sys.stderr)
        return 0 if snapshots else 1
    # Labelled groups: one call polls every shard and aggregates.
    from repro.net.observe import poll_groups, render_group_snapshots

    grouped, errors = poll_groups(groups)
    got_any = any(grouped.values())

    def grouped_json() -> str:
        return json.dumps(
            {
                label: json.loads(
                    snapshot_json(
                        {n: f.snapshot for n, f in grouped[label].items()}
                    )
                )
                for label in sorted(grouped)
            },
            indent=2, sort_keys=True,
        )

    if args.json:
        print(grouped_json())
    elif got_any:
        print(render_group_snapshots(grouped))
    if args.json_out and got_any:
        with open(args.json_out, "w") as handle:
            handle.write(grouped_json() + "\n")
    for error in errors:
        print(f"note: {error}", file=sys.stderr)
    return 0 if got_any else 1


def _cmd_top(args: "argparse.Namespace") -> int:
    """Repeatedly poll one or many clusters and render snapshot tables.

    With group-labelled ``--peers`` (``g1:n1=host:port,...``, repeated),
    every poll aggregates the shards into one summary table plus
    per-group detail; unlabelled peers keep the single-cluster view.
    """
    from repro.net.observe import (
        poll_cluster,
        poll_groups,
        render_group_snapshots,
        render_snapshots,
    )

    groups = _parse_group_peers(args.peers)
    sharded = set(groups) != {""}
    for iteration in range(args.iterations):
        if iteration:
            time.sleep(args.interval)
        print(f"--- poll {iteration + 1}/{args.iterations} ---")
        if sharded:
            grouped, errors = poll_groups(groups)
            got_any = any(grouped.values())
            if got_any:
                print(render_group_snapshots(grouped))
        else:
            fetched, errors = poll_cluster(groups[""])
            snapshots = {node: f.snapshot for node, f in fetched.items()}
            got_any = bool(snapshots)
            if got_any:
                print(render_snapshots(snapshots))
        for error in errors:
            print(f"note: {error}", file=sys.stderr)
        if not got_any:
            return 1
    return 0


def _cmd_storm(args: "argparse.Namespace") -> int:
    """One seeded live scenario against a real cluster, verified.

    Runs the chosen plan (the canonical chaos schedule, back-to-back
    RECONFIGUREs, rolling replacement, joins racing crashes, or a
    sharded cell) while recorded workers drive load, then feeds the
    history through the linearizability checker. Exit code 0 iff the
    run verifies (see ``StormReport.ok``); 2 for options the cell cannot
    honour.
    """
    from repro.net.storm import build_storm_plan, run_storm_scenario

    if args.plan_only:
        plan = build_storm_plan(
            args.scenario, replicas=args.replicas, seed=args.seed,
            scale=args.scale,
        )
        print(plan.to_json())
        return 0
    try:
        report = run_storm_scenario(
            args.scenario,
            replicas=args.replicas,
            seed=args.seed,
            scale=args.scale,
            read_mode=args.read_mode,
            durable=args.durable,
            batching=args.batch,
            verbose=args.verbose,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    if args.history:
        from repro.verify.histories import dump_jsonl

        dump_jsonl(report.history, args.history)
        print(f"history written to {args.history}")
    if args.timeline:
        report.write_timeline(args.timeline)
        print(f"fault-aligned storm timeline written to {args.timeline}")
    if args.smoke and report.elapsed >= 60.0:
        print(f"FAIL: smoke storm run took {report.elapsed:.1f}s "
              "(>= 60s)", file=sys.stderr)
        return 1
    if not report.ok:
        print("FAIL: storm scenario did not verify", file=sys.stderr)
        return 1
    print(f"storm scenario verified: history linearizable under the "
          f"{args.scenario} plan")
    return 0


def build_parser() -> "argparse.ArgumentParser":
    """The ``repro`` command line (split from :func:`main` so a test can
    build the namespace ``serve`` runs from)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reconfigurable SMR from non-reconfigurable building blocks "
        "(PODC 2012) — experiment runner",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. T2 or F4")
    run.add_argument("--quick", action="store_true", help="smaller, faster parameters")
    run.add_argument("--seed", type=int, default=None, help="override the seed")
    sub.add_parser("demo", help="a 30-second guided tour")

    serve = sub.add_parser("serve", help="run one live replica over TCP")
    serve.add_argument("--node", required=True, help="this replica's name")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="listen port (default: from --peers)")
    serve.add_argument("--peers", required=True,
                       help="address book: n1=host:port,n2=host:port,...")
    serve.add_argument("--app", default="kv", help="kv|counter|bank|lock")
    serve.add_argument("--initial", default="",
                       help="comma-separated epoch-0 members (omit for standby)")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--verbose", action="store_true",
                       help="stream the trace log to stderr")
    serve.add_argument("--chaos", action="store_true",
                       help="expose the fault-injection admin endpoint "
                       "(transport-level partitions/drops/delay/loss)")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="durable state directory (WAL + checkpoints); "
                       "reboots recover from it instead of cold-joining. "
                       "Omit for the in-memory/amnesiac behaviour")
    serve.add_argument("--fsync", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="fsync each WAL append (--no-fsync keeps "
                       "SIGKILL durability but not machine-crash "
                       "durability; much faster)")
    serve.add_argument("--checkpoint-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="period of durable state-machine checkpoints "
                       "(0 = only at epoch boundaries; needs --data-dir)")
    serve.add_argument("--batch-delay", type=float, default=0.0,
                       metavar="MS",
                       help="commands that arrive together always share "
                       "one Paxos instance; while a slot is in flight, "
                       "also hold later arrivals up to this many "
                       "milliseconds to share the next one (0 = hold "
                       "nothing; an idle pipeline never waits)")
    serve.add_argument("--batch-max", type=int, default=32,
                       help="max commands per Paxos instance "
                       "(1 = one instance per command)")
    serve.add_argument("--window", type=int, default=0,
                       help="proposer pipeline window: max Paxos instances "
                       "in flight concurrently; commands beyond it buffer "
                       "into the next batch (0 = unbounded)")
    serve.add_argument("--read-mode", default="log",
                       choices=["log", "lease", "follower"],
                       help="read path for read-only ops: log orders them "
                       "through consensus (default); lease serves them "
                       "locally at the leaseholding leader (linearizable, "
                       "no log round); follower serves them locally at any "
                       "member that heard from the leader in the last "
                       "500 ms (bounded staleness, NOT linearizable)")
    serve.add_argument("--lease-duration", type=float, default=80.0,
                       metavar="MS",
                       help="read-lease validity per acknowledged "
                       "heartbeat; must stay strictly below "
                       "--suspect-timeout. 0 disables leases")
    serve.add_argument("--suspect-timeout", type=float, default=100.0,
                       metavar="MS",
                       help="leader-failure suspicion floor; raising it "
                       "admits longer leases at the cost of slower "
                       "failover (the max stays at 2x the floor)")
    serve.add_argument("--shard-group", default="",
                       help="serve as one group of a sharded service: the "
                       "group's name (requires --app kv; wraps the store "
                       "in ownership enforcement)")
    serve.add_argument("--shard-ranges", default="", metavar="LO-HI[,...]",
                       help="hash ranges this group owns at boot "
                       "(empty = a spare group owning nothing)")
    serve.add_argument("--shard-version", type=int, default=1,
                       help="shard-map version the boot ownership is from")
    serve.add_argument("--metadir-hold", type=float, default=0.0,
                       metavar="MS",
                       help="metadir app's intent driver, test hook: pause "
                       "between the retire step and the install submit "
                       "(widens the killed-between-steps window the "
                       "failover tests aim at; 0 = no pause)")
    serve.add_argument("--metadir-takeover", type=float, default=1500.0,
                       metavar="MS",
                       help="a non-leader driver rolls an intent forward "
                       "after it has been pending this long (dead-leader "
                       "takeover bound)")

    shard_route = sub.add_parser(
        "shard-route",
        help="read the shard map through the director and show where keys live",
    )
    shard_route.add_argument("--director", required=True,
                             metavar="n1=HOST:PORT,...",
                             help="the metadir group's address book")
    shard_route.add_argument("keys", nargs="*", default=[],
                             help="keys to resolve (may be empty)")
    shard_route.add_argument("--timeout", type=float, default=2.0,
                             help="deadline of the map read (seconds)")

    storm = sub.add_parser(
        "storm",
        help="seeded live scenario against a real cluster + "
        "linearizability verdict (chaos | overlap | rolling | joincrash "
        "| shard | director)",
    )
    storm.add_argument("scenario", nargs="?", default="overlap",
                       choices=["chaos", "overlap", "rolling", "joincrash",
                                "shard", "director"],
                       help="which plan to run (default: overlap); 'chaos' "
                       "crashes a follower and partitions the leader "
                       "around a RECONFIGURE that votes it out, "
                       "'director' SIGKILLs the replicated shard "
                       "director's claiming replica mid-move, 'shard' "
                       "races per-group membership churn against a "
                       "concurrent range move")
    storm.add_argument("--replicas", type=int, default=3)
    storm.add_argument("--seed", type=int, default=42,
                       help="drives the schedule, reconfigure timings, and "
                       "workload; same seed = same plan, byte for byte")
    storm.add_argument("--scale", type=float, default=1.0,
                       help="stretch factor for the plan's offsets")
    storm.add_argument("--read-mode", default=None,
                       choices=["log", "lease", "follower"],
                       help="run every replica with this read path during "
                       "the storm (default: serve default, ordered reads)")
    storm.add_argument("--smoke", action="store_true",
                       help="CI gate: also fail if the run takes >= 60s")
    storm.add_argument("--plan-only", action="store_true",
                       help="print the seeded plan JSON and exit (no cluster)")
    storm.add_argument("--timeline", default="STORM_timeline.json",
                       metavar="PATH",
                       help="write the fault-aligned storm timeline as JSON "
                       "(injections + reconfigures + span phases on one "
                       "timebase); empty string to skip")
    storm.add_argument("--history", default=None, metavar="PATH",
                       help="write the recorded client history as JSONL")
    storm.add_argument("--durable", action="store_true",
                       help="give every replica a --data-dir so crashed "
                       "replicas recover from checkpoint+WAL")
    storm.add_argument("--batch", action="store_true",
                       help="run every replica with --batch-delay 2 "
                       "--window 16, so the oracle checks commands held "
                       "behind a busy pipeline and a full window "
                       "(single-group cells only)")
    storm.add_argument("--verbose", action="store_true")

    metrics = sub.add_parser(
        "metrics",
        help="poll a live cluster's #metrics endpoints and render snapshots",
    )
    metrics.add_argument("--peers", action="append", required=True,
                         help="address book: n1=host:port,... — repeat "
                         "with group labels (g1:n1=host:port,...) to poll "
                         "several shards and aggregate in one call")
    metrics.add_argument("--json", action="store_true",
                         help="raw snapshot JSON instead of tables")
    metrics.add_argument("--json-out", default=None, metavar="PATH",
                         help="also write the snapshot JSON to PATH")

    top = sub.add_parser(
        "top", help="repeatedly poll a live cluster's metrics (watch mode)"
    )
    top.add_argument("--peers", action="append", required=True,
                     help="address book: n1=host:port,... — repeat with "
                     "group labels (g1:n1=host:port,...) for a sharded "
                     "service's aggregated view")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls")
    top.add_argument("--iterations", type=int, default=5,
                     help="how many polls before exiting")

    bench = sub.add_parser(
        "bench", help="reproducible micro/macro benchmarks"
    )
    bench_sub = bench.add_subparsers(dest="bench_target")
    storm_bench = bench_sub.add_parser(
        "storm", help="reconfiguration storms: unavailability window + "
        "hand-off latency per scenario (median, min, max over the "
        "repeats); writes BENCH_storm.json"
    )
    storm_bench.add_argument("--smoke", action="store_true",
                             help="CI gate: the joincrash and director "
                             "cells only; every run must verify")
    storm_bench.add_argument("--out", default="BENCH_storm.json",
                             help="output path (default: BENCH_storm.json)")
    storm_bench.add_argument("--seed", type=int, default=42)
    storm_bench.add_argument("--repeats", type=int, default=3,
                             help="fresh-cluster runs per cell (default: 3)")
    storm_bench.add_argument("--timeline-dir", default=None, metavar="DIR",
                             help="also write each run's fault-aligned "
                             "timeline JSON into DIR (the CI artifact)")
    shard_bench = bench_sub.add_parser(
        "shard", help="aggregate throughput vs group count + "
        "split-under-load verdict; writes BENCH_shard.json"
    )
    shard_bench.add_argument("--smoke", action="store_true",
                             help="small sizes for CI (<60s): fewer "
                             "group counts, shorter measurement windows")
    shard_bench.add_argument("--out", default="BENCH_shard.json",
                             help="output path (default: BENCH_shard.json)")
    shard_bench.add_argument("--groups", default=None,
                             help="comma-separated group counts to sweep "
                             "(default: 1,2,4,8 or 1,3 with --smoke)")
    shard_bench.add_argument("--seed", type=int, default=42)
    bench.set_defaults(print_help=bench.print_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.quick, args.seed)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "storm":
        return _cmd_storm(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "shard-route":
        return _cmd_shard_route(args)
    if args.command == "bench":
        if args.bench_target == "storm":
            from repro.bench.stormbench import run_storm_bench

            return run_storm_bench(
                smoke=args.smoke, out=args.out, seed=args.seed,
                repeats=args.repeats, timeline_dir=args.timeline_dir,
            )
        if args.bench_target == "shard":
            from repro.bench.shardbench import run_shard_bench

            group_counts = None
            if args.groups:
                group_counts = tuple(
                    int(part) for part in args.groups.split(",") if part
                )
            return run_shard_bench(
                smoke=args.smoke, out=args.out, seed=args.seed,
                group_counts=group_counts,
            )
        args.print_help()
        return 1
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
