"""Tests for the repro-serve CLI (serve / status / ingest / query / shutdown)."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.service.cli import build_parser, main


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--root", "r", "--namespace", "web",
             "--assignments", "h1"]
        )
        assert args.k == 256 and args.granularity == "minute"
        assert args.compact_to == "hour" and args.port is None

    @pytest.mark.parametrize("command", ["serve", "coordinate"])
    def test_n_shards_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--root", "r", "--namespace", "web",
                 "--assignments", "h1", "--n-shards", "4"]
            )
        assert "unrecognized arguments: --n-shards" in capsys.readouterr().err

    def test_query_defaults(self):
        args = build_parser().parse_args(
            ["query", "--namespace", "web", "--assignments", "h1", "h2"]
        )
        assert args.function == "max" and args.port == 8765

    def test_query_temporal_flags(self):
        args = build_parser().parse_args(
            ["query", "--namespace", "web", "--assignments", "h1",
             "--window", "15m", "--step", "1m", "--decay", "1h",
             "--anchor", "1785400000"]
        )
        assert args.window == "15m" and args.step == "1m"
        assert args.decay == "1h" and args.anchor == 1785400000.0

    def test_watch_requires_one_threshold_direction(self):
        base = ["watch", "--namespace", "web", "--assignments", "h1",
                "--every", "30s"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(base)  # no direction
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                base + ["--above", "1.0", "--below", "2.0"]
            )
        args = build_parser().parse_args(base + ["--above", "1e6"])
        assert args.above == 1e6 and args.below is None
        assert args.every == 30.0  # duration spec parsed to seconds

    def test_watch_poll_defaults(self):
        args = build_parser().parse_args(["watch-poll", "--id", "3"])
        assert args.id == 3 and args.after == 0 and args.wait == 30.0

    def test_serve_requires_exactly_one_config_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve", "--config", "cfg.json", "--root", "r"])
        with pytest.raises(SystemExit, match="needs --namespace"):
            main(["serve", "--root", str(tmp_path)])

    def test_serve_config_file_port_override(self, tmp_path):
        from repro.service.cli import _config_from_args
        from repro.service.config import NamespaceConfig, ServiceConfig

        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            namespaces=(NamespaceConfig("web", ("h1",)),),
            port=1234,
        )
        path = tmp_path / "service.json"
        config.dump(path)
        args = build_parser().parse_args(
            ["serve", "--config", str(path), "--port", "4321"]
        )
        assert _config_from_args(args) == config.with_port(4321)


class TestRoundTrip:
    def test_serve_ingest_query_status_shutdown(self, tmp_path, capsys):
        port = free_port()
        root = tmp_path / "store"
        serve_argv = [
            "serve", "--root", str(root), "--namespace", "web",
            "--assignments", "h1", "--k", "16", "--port", str(port),
            "--compact-to", "off", "--tick", "0.05",
        ]
        rc: list[int] = []
        thread = threading.Thread(
            target=lambda: rc.append(main(serve_argv)), daemon=True
        )
        thread.start()

        from repro.service.client import ServiceClient

        ServiceClient(port=port).wait_ready()

        csv = tmp_path / "events.csv"
        csv.write_text("alice,3.5\nbob,1.25\nalice,0.5\n")
        assert main([
            "ingest", "--port", str(port), "--namespace", "web",
            "--assignment", "h1", "--input", str(csv), "--sync",
        ]) == 0
        assert "ingested 3 events" in capsys.readouterr().out

        assert main([
            "query", "--port", str(port), "--namespace", "web",
            "--function", "single", "--assignments", "h1",
        ]) == 0
        out = capsys.readouterr().out
        assert "web: single(h1) ~= 5.25" in out  # 3.5 + 0.5 + 1.25, exact

        assert main(["status", "--port", str(port)]) == 0
        status_out = capsys.readouterr().out
        assert '"web"' in status_out and '"buffered_events"' in status_out

        assert main(["shutdown", "--port", str(port)]) == 0
        thread.join(10.0)
        assert not thread.is_alive() and rc == [0]
        # the daemon checkpointed on the way out
        from repro.store import SummaryStore

        assert SummaryStore(root, create=False).entries(
            "web", kind="checkpoint"
        )

    def test_stats_verb_reads_a_live_daemon(self, tmp_path, capsys):
        import json

        from repro.service import NamespaceConfig, ServiceConfig
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceThread

        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            namespaces=(NamespaceConfig("web", ("h1",), k=16),),
            port=0, compact_to=None, tick_s=3600.0,
        )
        with ServiceThread(config) as thread:
            port = thread.service.port
            with ServiceClient(port=port) as client:
                client.ingest("web", ["a", "b"], {"h1": [1.0, 2.0]},
                              sync=True)
                for _ in range(2):
                    client.estimate("web", "single", ["h1"])
            assert main(["stats", "--port", str(port)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) == {"stats", "planner", "runtime", "queue"}
        assert stats["stats"]["ingest_batches"] == 1
        assert stats["planner"] == {
            "hits": 1, "misses": 1, "engine_builds": 1, "partial_hits": 0,
            "partial_builds": 0, "window_queries": 0,
        }
        counters = stats["runtime"]["counters"]
        assert counters["cache_hits"] == 1 and counters["ingest_batches"] == 1
        assert stats["runtime"]["cache"]["hits"] == 1

    def test_stats_root_flag_is_gone(self, capsys):
        # a root is read offline by `repro-store stats --root`
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--root", "r"])
        assert "unrecognized arguments: --root" in capsys.readouterr().err

    def test_client_error_is_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["status", "--port", str(free_port()), "--timeout", "0.2"])
