"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scene(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "CITY17"])

    def test_technique_defaults(self):
        args = build_parser().parse_args(["run", "WKND"])
        assert args.traversal == "treelet"
        assert args.prefetch == "treelet"
        assert args.scheduler == "pmr"

    def test_no_replay_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["run", "WKND", "--replay-backend", "scalar"]
            )
        assert exit_info.value.code == 2
        assert "--replay-backend" in capsys.readouterr().err

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "WKND", "--scale", "huge"])


class TestCommands:
    def test_scenes_lists_all(self, capsys):
        assert main(["scenes"]) == 0
        out = capsys.readouterr().out
        for name in ("WKND", "ROBOT", "CHSNT"):
            assert name in out

    def test_stats(self, capsys):
        assert main(["stats", "WKND", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "triangles" in out
        assert "treelets" in out

    def test_run_reports_speedup(self, capsys):
        assert main(["run", "WKND", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "baseline cycles" in out

    def test_run_no_prefetch(self, capsys):
        code = main(
            ["run", "WKND", "--scale", "smoke", "--prefetch", "none",
             "--traversal", "dfs", "--layout", "dfs",
             "--scheduler", "baseline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prefetch effectiveness" not in out

    def test_sweep_selected_scenes(self, capsys):
        code = main(
            ["sweep", "--scenes", "WKND", "SHIP", "--scale", "smoke"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GMean" in out

    def test_render_ascii(self, capsys, tmp_path):
        out_file = tmp_path / "frame.pgm"
        code = main(
            ["render", "WKND", "--scale", "smoke", "--size", "12",
             "--output", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert "P2" in out_file.read_text()

    def test_run_popularity_heuristic(self, capsys):
        code = main(
            ["run", "WKND", "--scale", "smoke",
             "--heuristic", "popularity", "--threshold", "0.25"]
        )
        assert code == 0

    def test_run_mapping_mode(self, capsys):
        code = main(
            ["run", "WKND", "--scale", "smoke", "--layout", "dfs",
             "--mapping-mode", "loose"]
        )
        assert code == 0


class TestInterrupt:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "sweep", interrupted)
        assert main(["sweep", "--scale", "smoke"]) == 130
        err = capsys.readouterr().err
        assert err.strip() == "interrupted: sweep aborted by user"

    def test_keyboard_interrupt_in_serve_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "serve", interrupted)
        assert main(["serve", "--port", "0"]) == 130
        assert "serve aborted by user" in capsys.readouterr().err


class TestServeCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8077
        assert args.queue_limit == 64
        assert args.batch_max == 8
        assert args.workers == 1

    def test_loadgen_against_live_service(self, capsys):
        import asyncio
        import json as json_mod
        import threading

        from repro.serve import ServeConfig, SimulationService

        service = SimulationService(ServeConfig(port=0))
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                service.start(), loop
            ).result(30)
            code = main([
                "loadgen", "--port", str(service.port), "--qps", "50",
                "--requests", "6", "--scale", "smoke",
                "--technique", "baseline", "--json",
            ])
            assert code == 0
            summary = json_mod.loads(capsys.readouterr().out)
            assert summary["requests"] == 6
            assert summary["ok"] == 6
            assert summary["errors"] == 0
        finally:
            asyncio.run_coroutine_threadsafe(
                service.aclose(), loop
            ).result(30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
