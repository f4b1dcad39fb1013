"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_fraction_alpha(self):
        args = build_parser().parse_args(
            ["optimal", "-n", "3", "--alpha", "1/4"]
        )
        from fractions import Fraction

        assert args.alpha == Fraction(1, 4)

    def test_rejects_bad_alpha(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["optimal", "-n", "3", "--alpha", "abc"]
            )


class TestSweepParser:
    def test_parses_grid_and_flags(self):
        args = build_parser().parse_args(
            [
                "sweep", "universality", "-n", "2", "3",
                "--alphas", "1/2", "1/4", "--losses", "absolute", "squared",
                "--workers", "2", "--cache-dir", "/tmp/cache",
                "--space", "factor",
            ]
        )
        assert args.sizes == [2, 3]
        assert len(args.alphas) == 2
        assert args.workers == 2
        assert args.cache_dir == "/tmp/cache"
        assert args.space == "factor"
        assert args.exact is True
        assert args.no_cache is False

    def test_float_flag(self):
        args = build_parser().parse_args(
            ["sweep", "universality", "-n", "2", "--alphas", "1/2", "--float"]
        )
        assert args.exact is False

    def test_cache_dir_and_no_cache_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "sweep", "universality", "-n", "2", "--alphas", "1/2",
                    "--cache-dir", "/tmp/x", "--no-cache",
                ]
            )


class TestSweepCommand:
    def test_universality_sweep_runs(self, capsys):
        assert main(
            ["sweep", "universality", "-n", "2", "--alphas", "1/2",
             "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "universality holds on all cells: yes" in out

    def test_sweep_with_cache_dir_reports_stats(self, capsys, tmp_path):
        argv = [
            "sweep", "universality", "-n", "2", "--alphas", "1/2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "misses" in first
        assert any(tmp_path.rglob("*.json"))
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 misses" in second

    def test_sweep_workers(self, capsys):
        assert main(
            ["sweep", "universality", "-n", "2", "3", "--alphas", "1/2",
             "--workers", "2", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "universality holds on all cells: yes" in out

    def test_bayesian_sweep_runs(self, capsys):
        assert main(
            ["sweep", "bayesian", "-n", "2", "--alphas", "1/2", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "bayesian sweep" in out
        assert "universality holds on all cells: yes" in out

    def test_sweep_factor_space(self, capsys):
        assert main(
            ["sweep", "universality", "-n", "3", "--alphas", "1/4",
             "--space", "factor", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "168/415" in out

    def test_optimal_factor_space(self, capsys):
        assert main(
            ["optimal", "-n", "3", "--alpha", "1/4", "--space", "factor"]
        ) == 0
        out = capsys.readouterr().out
        assert "168/415" in out


class TestCommands:
    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "168/415" in out

    def test_reproduce_table2(self, capsys):
        assert main(["reproduce", "table2", "-n", "2", "--alpha", "1/2"]) == 0
        assert "det G'" in capsys.readouterr().out

    def test_reproduce_figure1(self, capsys):
        assert main(["reproduce", "figure1"]) == 0
        assert "#" in capsys.readouterr().out

    def test_reproduce_appendix_b(self, capsys):
        assert main(["reproduce", "appendix-b"]) == 0
        out = capsys.readouterr().out
        assert "-1/12" in out
        assert "derivable from the geometric mechanism: False" in out

    def test_optimal_command(self, capsys):
        code = main(
            [
                "optimal",
                "-n",
                "2",
                "--alpha",
                "1/2",
                "--loss",
                "squared",
                "--side",
                "0",
                "1",
            ]
        )
        assert code == 0
        assert "minimax loss" in capsys.readouterr().out

    def test_release_command(self, capsys):
        code = main(
            [
                "release",
                "-n",
                "3",
                "--alphas",
                "1/4",
                "1/2",
                "--true-result",
                "2",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "collusion resistance" in out
        assert "OK" in out

    def test_audit_command(self, capsys):
        code = main(
            [
                "audit",
                "-n",
                "2",
                "--alpha",
                "1/2",
                "--samples",
                "2000",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        assert "empirical alpha" in capsys.readouterr().out

    def test_tradeoff_command(self, capsys):
        code = main(
            [
                "tradeoff",
                "-n",
                "2",
                "--alphas",
                "1/4",
                "1/2",
                "--loss",
                "absolute",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frontier" in out
        assert "epsilon" in out

    def test_domain_error_returns_one(self, capsys):
        # Release levels must be increasing: triggers a ReproError.
        code = main(
            [
                "release",
                "-n",
                "3",
                "--alphas",
                "1/2",
                "1/4",
                "--true-result",
                "1",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCompileAndCacheCommands:
    def test_compile_then_warm_recompile(self, capsys, tmp_path):
        argv = [
            "compile",
            "-n",
            "3",
            "--alphas",
            "1/3",
            "--losses",
            "absolute",
            "--store",
            str(tmp_path / "store"),
            "--cache-dir",
            str(tmp_path / "solves"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "compiled geometric" in out
        assert "compiled optimal" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cached" in out
        assert "0 compiled this run" in out

    def test_compile_geometric_only(self, capsys, tmp_path):
        code = main(
            [
                "compile",
                "-n",
                "4",
                "--alphas",
                "1/2",
                "--losses",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "geometric" in out
        assert "optimal" not in out

    def test_cache_verify_reports_ok(self, capsys, tmp_path):
        assert (
            main(
                [
                    "compile",
                    "-n",
                    "3",
                    "--alphas",
                    "1/3",
                    "--store",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "verify", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 LP solves" in out
        assert "all 2 artifacts verified" in out

    def test_cache_verify_flags_corruption(self, capsys, tmp_path):
        import json
        import pathlib

        assert (
            main(
                [
                    "compile",
                    "-n",
                    "3",
                    "--alphas",
                    "1/2",
                    "--losses",
                    "--store",
                    str(tmp_path),
                ]
            )
            == 0
        )
        entry = next(pathlib.Path(tmp_path).rglob("*.json"))
        payload = json.loads(entry.read_text())
        payload["kernel"][0][0] = payload["kernel"][1][1]
        entry.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["cache", "verify", "--store", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "failed" in err

    def test_cache_gc(self, capsys, tmp_path):
        assert (
            main(
                [
                    "compile",
                    "-n",
                    "2",
                    "3",
                    "4",
                    "--alphas",
                    "1/2",
                    "--losses",
                    "--store",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "cache",
                "gc",
                "--store",
                str(tmp_path),
                "--max-entries",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "evicted 2 entries" in out
        assert "1 remain" in out

    def test_missing_store_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        assert main(["cache", "verify"]) == 1
        assert "artifact store" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        from fractions import Fraction

        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8790
        assert args.floor == Fraction(0)
        assert args.batch_window == 0.002
        assert args.batch_max == 4096
        assert args.audit_rate == 0.05
        assert args.audit_every == 64
        assert args.seed is None

    def test_serve_refuses_empty_store(self, capsys, tmp_path):
        assert main(["serve", "--store", str(tmp_path)]) == 1
        assert "repro compile" in capsys.readouterr().err

    @pytest.mark.parametrize("ledger", [False, True])
    def test_serve_refuses_a_floor_of_one(self, capsys, tmp_path, ledger):
        argv = ["serve", "--store", str(tmp_path / "store"), "--floor", "1"]
        if ledger:
            argv += ["--ledger-dir", str(tmp_path / "ledger")]
        assert main(argv) == 1
        assert "absolute privacy" in capsys.readouterr().err
        assert not (tmp_path / "ledger").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_serve_refuses_a_ledger_dir_that_is_not_a_directory(
        self, capsys, monkeypatch, tmp_path, workers, under_file
    ):
        from repro.serving import supervisor

        spawned = []

        class Recorder:
            port = 0

            def __init__(self, worker_config, **kwargs):
                spawned.append(worker_config)

            def start(self):
                pass

            def run(self, **kwargs):
                pass

            def status(self):
                return {"slots": [], "stats": {
                    "spawns": 0, "restarts": 0, "heartbeat_kills": 0,
                }}

        monkeypatch.setattr(supervisor, "ServingSupervisor", Recorder)
        afile = tmp_path / "afile"
        afile.write_text("")
        ledger = afile / "sub" if under_file else afile
        assert main([
            "serve", "--store", str(tmp_path / "store"), "--port", "0",
            "--ledger-dir", str(ledger), "--workers", workers,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ledger) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not spawned
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("flag, value", [
        ("--batch-window", "-1"), ("--batch-max", "0"),
        ("--audit-rate", "1.5"), ("--trace-rate", "-0.1"),
        ("--trace-ring", "-1"), ("--queue-depth", "-1"),
        ("--shed-deadline", "-1"), ("--audit-every", "-1"),
        ("--drain-deadline", "-1"),
    ])
    def test_serve_refuses_an_out_of_range_setting_before_any_spawn(
        self, capsys, monkeypatch, tmp_path, workers, flag, value
    ):
        from repro.serving import supervisor

        def no_fleet(*args, **kwargs):
            raise AssertionError("a fleet was started")

        monkeypatch.setattr(supervisor, "ServingSupervisor", no_fleet)
        assert main([
            "serve", "--store", str(tmp_path / "store"), "--port", "0",
            flag, value, "--workers", workers,
        ]) == 1
        err = capsys.readouterr().err
        setting = flag[2:].replace("-", "_")
        assert err.startswith(f"error: {setting} must lie in ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "store").exists()

    def test_every_serve_flag_default_is_its_config_field(self):
        from repro.serving.config import ServerConfig

        args = vars(build_parser().parse_args(["serve"]))
        flags = set(args) - {"command"}
        fields = {f.name: f for f in dataclasses.fields(ServerConfig)}
        assert flags - set(fields) == {"host", "port", "store", "workers"}
        for name in flags & set(fields):
            assert args[name] == fields[name].default, name

    def test_fleet_workers_get_every_setting(self, monkeypatch, tmp_path):
        import asyncio
        import json

        from repro.serving import supervisor
        from repro.serving.config import ServerConfig

        shipped = []

        class Recorder:
            port = 0

            def __init__(self, worker_config, **kwargs):
                shipped.append(worker_config)

            def start(self):
                pass

            def run(self, **kwargs):
                pass

            def status(self):
                return {"slots": [], "stats": {
                    "spawns": 0, "restarts": 0, "heartbeat_kills": 0,
                }}

        monkeypatch.setattr(supervisor, "ServingSupervisor", Recorder)
        trace_dir = tmp_path / "traces"
        assert main([
            "serve", "--store", str(tmp_path / "store"), "--workers", "2",
            "--trace-dir", str(trace_dir), "--trace-ring", "7",
            "--trace-rate", "1.0",
        ]) == 0
        (config,) = shipped
        assert set(config) == {"store"} | {
            field.name for field in dataclasses.fields(ServerConfig)
        }
        server = supervisor._build_worker_server(
            json.loads(json.dumps(config))
        )
        tracer = server.telemetry.tracer
        assert tracer.directory == str(trace_dir)
        assert tracer._ring.maxlen == 7
        assert tracer.rate == 1.0
        asyncio.run(server.stop())

    def test_compile_side_grid(self, capsys, tmp_path):
        code = main(
            [
                "compile",
                "-n",
                "3",
                "--alphas",
                "1/2",
                "--side-grid",
                "lower",
                "upper",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # geometric + optimal(all) + 3 lower sets + 3 upper sets.
        assert "compiling 8 artifacts" in out
        assert "side={1..3}" in out
        assert "side={0..1}" in out
        # The pre-warmed grid is servable with zero request-path solves.
        from fractions import Fraction

        from repro.release.artifacts import ArtifactStore
        from repro.serving import MechanismServer

        server = MechanismServer(
            ArtifactStore(tmp_path), audit_rate=0.0
        )
        assert server.load_store() == 8
        assert all(d.verification.ok for d in server.deployments)
        sides = {
            d.spec.side
            for d in server.deployments
            if d.spec.side is not None
        }
        assert (1, 2, 3) in sides and (0, 1) in sides
        assert Fraction(1, 2) == server.deployments[0].spec.alpha


class TestObsAndLedgerCommands:
    def make_ledger(self, tmp_path):
        from fractions import Fraction

        from repro.release.durable_ledger import DurableLedger

        ledger = DurableLedger(tmp_path / "ledger", floor=Fraction(1, 8))
        ledger.charge("alice", Fraction(1, 2))
        ledger.charge("alice", Fraction(1, 2))
        ledger.charge("bob", Fraction(1, 2))
        ledger.close()
        return tmp_path / "ledger"

    def test_serve_parser_trace_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace_rate == 0.0
        assert args.trace_dir is None
        assert args.trace_ring == 1024

    def test_ledger_show_burn_columns(self, capsys, tmp_path):
        directory = self.make_ledger(tmp_path)
        assert main(["ledger", "show", "--ledger-dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "alice: releases=2" in out
        assert "spent=66.7% charges_left=1" in out
        assert "bob: releases=1" in out
        assert "spent=33.3% charges_left=2" in out

    def test_obs_top_from_ledger_dir(self, capsys, tmp_path):
        directory = self.make_ledger(tmp_path)
        assert main(["obs", "top", "--ledger-dir", str(directory)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        # Most-burned first, with the floor-proximity footer.
        assert lines[1].startswith("alice")
        assert lines[2].startswith("bob")
        assert "within k charges of the floor: <=1: 1, <=2: 2" in lines[-1]

    @pytest.mark.parametrize("kind", ["missing", "empty", "file"])
    @pytest.mark.parametrize(
        "command",
        [["ledger", "verify"], ["ledger", "show"], ["ledger", "compact"],
         ["obs", "top"]],
    )
    def test_a_path_with_no_ledger_is_refused(
        self, capsys, tmp_path, command, kind
    ):
        """These used to take a path without ``meta.json`` for an empty
        ledger, and all but ``verify`` created one there."""
        path = tmp_path / "no-ledger"
        if kind == "empty":
            path.mkdir()
        elif kind == "file":
            path.write_bytes(b"x")
        assert main([*command, "--ledger-dir", str(path)]) == 1
        assert f"no ledger at {path}" in capsys.readouterr().err
        if kind == "missing":
            assert not path.exists()
        elif kind == "empty":
            assert list(path.iterdir()) == []
        else:
            assert path.read_bytes() == b"x"

    def test_obs_top_without_source_errors(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        assert main(["obs", "top"]) == 1
        assert "--server or --ledger-dir" in capsys.readouterr().err

    def test_obs_tail_from_trace_dir(self, capsys, tmp_path):
        import json

        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        with open(trace_dir / "trace.jsonl", "w") as handle:
            for i in range(3):
                handle.write(json.dumps({
                    "trace": f"t-{i}", "span": f"s-{i}", "parent": None,
                    "name": "wal.fsync" if i else "server.publish",
                    "ts": 100.0 + i, "dur_ms": 0.5,
                    "attrs": {"mode": "group"},
                }) + "\n")
            handle.write("{torn tail\n")
        code = main([
            "obs", "tail", "--trace-dir", str(trace_dir),
            "--name", "wal.fsync", "--limit", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("wal.fsync") == 1
        assert "trace=t-2" in out and "mode=group" in out

    def test_obs_tail_missing_log_errors(self, capsys, tmp_path):
        assert main(["obs", "tail", "--trace-dir", str(tmp_path)]) == 1
        assert "no trace log" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source", [["top", "--ledger-dir"], ["tail", "--trace-dir"]]
    )
    def test_obs_negative_limit_exits_2(self, capsys, tmp_path, source):
        """A negative limit used to slice rows off without a word."""
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", *source, str(tmp_path), "--limit", "-1"])
        assert exit_info.value.code == 2
        assert "limit must be >= 0, got -1" in capsys.readouterr().err

    def test_obs_against_live_server(self, capsys, tmp_path):
        """top/tail/export over real HTTP against a serving process."""
        import asyncio
        from fractions import Fraction

        from repro.obs.cli import obs_export, obs_tail, obs_top
        from repro.release.artifacts import ArtifactSpec, ArtifactStore
        from repro.serving import InProcessClient, MechanismServer

        store = ArtifactStore(tmp_path / "artifacts")
        store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 2)))
        server = MechanismServer(
            store, floor=Fraction(1, 8), audit_rate=0.0, seed=7,
            trace_rate=1.0,
        )
        server.load_store()

        async def go():
            await server.start(port=0)
            client = InProcessClient(server)
            await client.publish(
                user="alice", n=8, alpha="1/2", true_result=3
            )
            base = f"http://127.0.0.1:{server.port}"
            loop = asyncio.get_running_loop()
            try:
                top = await loop.run_in_executor(
                    None, lambda: obs_top(server=base)
                )
                tail = await loop.run_in_executor(
                    None,
                    lambda: obs_tail(server=base, name="server.publish"),
                )
                exported = await loop.run_in_executor(
                    None, lambda: obs_export(server=base)
                )
                out_file = tmp_path / "metrics.prom"
                message = await loop.run_in_executor(
                    None,
                    lambda: obs_export(
                        server=base, format="json", out=out_file
                    ),
                )
            finally:
                await server.stop()
            return top, tail, exported, message, out_file

        top, tail, exported, message, out_file = asyncio.run(go())
        assert "alice" in top and "66.7%" not in top  # one charge: 33.3%
        assert "33.3%" in top
        assert "server.publish" in tail
        assert "repro_requests_total" in exported
        assert "wrote" in message
        # The json format is the legacy metrics snapshot, not the
        # Prometheus families.
        assert '"published": 1' in out_file.read_text()
