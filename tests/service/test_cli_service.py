"""The serve / audit-client subcommands: exit codes and wiring.

The daemon is hosted in a background thread (its own event loop) so one
test process can exercise the whole CLI round trip in-process.
"""

import json
import threading

import pytest

from repro.cli import build_parser, main


class ServeThread:
    """`repro serve` equivalent, run on a thread with a handle to stop it."""

    def __init__(self, n_files=2, min_rounds=4):
        import asyncio

        from repro.core.session import GeoProofSession
        from repro.crypto.rng import DeterministicRNG
        from repro.geo.coords import GeoPoint
        from repro.por.parameters import TEST_PARAMS
        from repro.service import AuditDaemon

        session = GeoProofSession.build(
            datacentre_location=GeoPoint(-27.4698, 153.0251),
            params=TEST_PARAMS,
            min_rounds=min_rounds,
            seed="cli-serve",
        )
        rng = DeterministicRNG("cli-serve-data")
        for i in range(n_files):
            session.outsource(
                f"file-{i}".encode(), rng.fork(str(i)).random_bytes(4000)
            )
        self._daemon = AuditDaemon(
            tpa=session.tpa,
            verifier=session.verifier,
            provider=session.provider,
            flush_batch=16,
        )
        self._stop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._loop = None
        self.port = None

    def _run(self):
        import asyncio

        asyncio.run(self._serve())

    async def _serve(self):
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self._daemon.start()
        self.port = self._daemon.port
        self._ready.set()
        await self._stop.wait()
        await self._daemon.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10)
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)


class TestParserWiring:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 0)
        assert args.flush_batch == 64
        assert args.json is False

    def test_serve_has_no_flush_deadline(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--flush-ms", "1"])
        assert exc.value.code == 2
        assert "--flush-ms" in capsys.readouterr().err

    def test_audit_client_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit-client"])

    def test_audit_client_defaults(self):
        args = build_parser().parse_args(["audit-client", "--port", "5"])
        assert args.file_ids == ["file-0"]
        assert args.rounds == 0
        assert args.count == 1
        assert args.stats is False

    def test_stats_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats", "--port", "5"])
        assert args.host == "127.0.0.1"
        assert args.port == 5


class TestServe:
    def test_bounded_serve_announces_json_and_exits_zero(self, capsys):
        code = main(
            [
                "serve",
                "--json",
                "--max-seconds",
                "0.05",
                "--files",
                "1",
                "--rounds",
                "4",
                "--size",
                "2000",
            ]
        )
        assert code == 0
        announce = json.loads(capsys.readouterr().out.splitlines()[0])
        assert announce["host"] == "127.0.0.1"
        assert announce["port"] > 0
        assert announce["files"] == ["file-0"]

    def test_bad_home_city_exits_two(self, capsys):
        code = main(["serve", "--home", "atlantis", "--max-seconds", "0.01"])
        assert code == 2


class TestAuditClient:
    def test_accepted_audits_exit_zero(self, capsys):
        with ServeThread() as server:
            code = main(
                [
                    "audit-client",
                    "file-0",
                    "file-1",
                    "--port",
                    str(server.port),
                    "--rounds",
                    "3",
                    "--count",
                    "2",
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4

    def test_json_output(self, capsys):
        with ServeThread() as server:
            code = main(
                [
                    "audit-client",
                    "file-0",
                    "--port",
                    str(server.port),
                    "--json",
                ]
            )
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows[0]["file"] == "file-0"
        assert rows[0]["accepted"] is True

    def test_unknown_file_exits_two(self, capsys):
        with ServeThread() as server:
            code = main(
                ["audit-client", "nope", "--port", str(server.port)]
            )
        assert code == 2

    def test_connection_refused_exits_two(self, capsys):
        code = main(["audit-client", "file-0", "--port", "1"])
        assert code == 2

    def test_stats_flag_appends_daemon_stats(self, capsys):
        with ServeThread() as server:
            code = main(
                [
                    "audit-client",
                    "file-0",
                    "file-1",
                    "--port",
                    str(server.port),
                    "--rounds",
                    "3",
                    "--stats",
                    "--json",
                ]
            )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["accepted"] for row in payload["verdicts"]] == [
            True,
            True,
        ]
        # Stats are fetched on the same connection after the verdicts,
        # so this very batch is already counted.
        assert payload["stats"]["n_orders"] == 2
        assert payload["stats"]["n_errors"] == 0
        assert payload["stats"]["flush_sizes"]["sum"] == 2
        assert payload["stats"]["latency_p99_ms"] >= 0.0


class TestStatsCommand:
    def test_stats_probe_returns_live_payload(self, capsys):
        with ServeThread() as server:
            assert (
                main(
                    [
                        "audit-client",
                        "file-0",
                        "--port",
                        str(server.port),
                        "--rounds",
                        "3",
                    ]
                )
                == 0
            )
            capsys.readouterr()
            code = main(["stats", "--port", str(server.port)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["n_orders"] == 1
        assert payload["n_errors"] == 0
        assert payload["queue_depth"] >= 0
        assert set(payload) >= {
            "flush_sizes",
            "latency_ms",
            "latency_p50_ms",
            "latency_p99_ms",
            "n_connections",
        }

    def test_connection_refused_exits_two(self, capsys):
        assert main(["stats", "--port", "1"]) == 2
