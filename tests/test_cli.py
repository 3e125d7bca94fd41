"""Tests for the command-line interface."""

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS, QUICK_ARGS
from repro.cli import main


class TestCli:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_quick_args_cover_every_experiment(self):
        assert set(QUICK_ARGS) == set(ALL_EXPERIMENTS)

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "Z9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "t6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "T6" in out and "completed" in out

    def test_seed_override(self, capsys):
        assert main(["run", "T6", "--quick", "--seed", "9"]) == 0

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "50 reads after the swap: 50 correct" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_bench_without_target_prints_help(self, capsys):
        assert main(["bench"]) == 1
        # perf/run.py is the one live benchmark; only the two benches it
        # has no successor for remain as subcommands.
        assert "{storm,shard}" in capsys.readouterr().out

    def test_retired_bench_target_and_wire_flag_are_usage_errors(self):
        for argv in (
            ["bench", "wire"],
            ["serve", "--node", "n1", "--peers", "n1=127.0.0.1:1", "--wire", "json"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2

    def test_zero_director_replicas_and_retired_metadir_flags_exit_2(self):
        from repro.shard.cluster import ShardedCluster
        from repro.shard.shardmap import ShardError

        # The metadir group is the only director: there is no count that
        # means "the other one", and a metadir replica always runs its
        # driver at the module's poll period.
        with pytest.raises(ShardError):
            ShardedCluster(1, director_replicas=0)
        serve = ["serve", "--node", "n1", "--peers", "n1=127.0.0.1:1",
                 "--app", "metadir"]
        for retired in (["--metadir-driver"], ["--metadir-poll", "10"]):
            with pytest.raises(SystemExit) as exit_info:
                main(serve + retired)
            assert exit_info.value.code == 2

    def test_chaos_is_a_storm_cell(self, capsys):
        import json

        # The standalone subcommand is gone: its scenario is the `chaos`
        # cell of `repro storm`.
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert main(["storm", "chaos", "--plan-only", "--seed", "42"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert len(plan["schedule"]) == 4
        assert len(plan["steps"]) == 1

    def test_retired_drivers_and_serve_knobs_exit_2(self):
        # Every live run is a `repro storm` cell, so these drivers do not
        # exist; a follower-read bound and the metrics endpoint are fixed.
        serve = ["serve", "--node", "n1", "--peers", "n1=127.0.0.1:1"]
        for argv in (
            ["cluster"],
            ["shard-cluster"],
            ["metrics", "--demo"],
            serve + ["--staleness-bound", "500"],
            serve + ["--no-metrics"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv

    def test_sharded_cells_refuse_options_they_cannot_honour(self, capsys):
        for cell in ("shard", "director"):
            for option in (["--read-mode", "lease"], ["--batch"]):
                assert main(["storm", cell, *option]) == 2
                assert "cannot honour" in capsys.readouterr().err

    def test_shard_route_takes_the_metadir_address_book(self, capsys):
        from repro.net.cluster import free_port

        # A bare host:port is not an address book.
        with pytest.raises(SystemExit, match="--director"):
            main(["shard-route", "--director", "127.0.0.1:1", "k1"])
        # Nobody listening: the map read fails at its deadline, exit 1.
        book = f"n1=127.0.0.1:{free_port()}"
        assert main(["shard-route", "--director", book, "--timeout", "0.3"]) == 1
        assert "FAIL" in capsys.readouterr().err
