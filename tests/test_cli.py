"""CLI subcommands: exit codes and printed content."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "WD 2500JD" in out
        assert "13.1055" in out

    def test_table1_custom_read_size(self, capsys):
        assert main(["table1", "--read-bytes", "4096"]) == 0
        assert "4096-byte read" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Other Campus" in out
        assert out.count("yes") == 10  # all placements under 1 ms

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "uwa.edu.au" in out
        assert "correlation" in out

    def test_fig6(self, capsys):
        assert main(["fig6", "--distances", "0", "500", "--rounds", "5"]) == 0
        out = capsys.readouterr().out
        assert "paper relay bound: 360" in out
        assert "yes" in out and "no" in out


class TestAudit:
    def test_honest_audit_exit_zero(self, capsys):
        assert main(["audit", "--size", "15000", "--rounds", "8"]) == 0
        out = capsys.readouterr().out
        assert "accepted: True" in out

    def test_relay_attack_detected_exit_zero(self, capsys):
        # Exit 0 = the outcome matched expectations (attack detected).
        code = main(
            ["audit", "--size", "15000", "--rounds", "8", "--attack", "relay"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted: False" in out
        assert "timing" in out

    def test_corruption_attack(self, capsys):
        code = main(
            [
                "audit",
                "--size",
                "15000",
                "--rounds",
                "30",
                "--attack",
                "corrupt",
                "--epsilon",
                "0.3",
            ]
        )
        out = capsys.readouterr().out
        # Detection is probabilistic but eps=0.3, k=30 -> p ~ 1-1e-5.
        assert code == 0
        assert "mac" in out


class TestFleet:
    def test_corrupt_fleet_detected_exit_zero(self, capsys):
        code = main(
            [
                "fleet",
                "--files", "9",
                "--hours", "6",
                "--slot-minutes", "30",
                "--seed", "cli-test",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet audit run" in out
        assert "risk-weighted" in out
        assert "first violation detected" in out
        assert "batches" in out

    def test_honest_fleet_reports_no_violations(self, capsys):
        code = main(
            [
                "fleet",
                "--files", "6",
                "--hours", "3",
                "--violation", "none",
                "--strategy", "round-robin",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(none)" in out
        assert "1.000" in out  # every tenant fully accepted

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--strategy", "random"])

    def test_event_engine_reports_lanes(self, capsys):
        code = main(
            [
                "fleet",
                "--files", "9",
                "--hours", "6",
                "--slot-minutes", "30",
                "--seed", "cli-test",
                "--engine", "event",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Audit lanes" in out
        assert "concurrency speedup" in out
        assert "first violation detected" in out

    def test_unknown_engine_exits_2_via_repro_errors(self, capsys):
        """Engine validation is the fleet's ConfigurationError, not
        argparse: bad values exit 2 with the library's message."""
        code = main(["fleet", "--files", "3", "--engine", "threads"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown engine" in err

    def test_bad_lane_queue_exits_2(self, capsys):
        code = main(["fleet", "--files", "3", "--lanes", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--lanes must be >= 1" in err

    def test_json_to_stdout_is_machine_readable(self, capsys):
        import json

        code = main(
            [
                "fleet",
                "--files", "6",
                "--hours", "3",
                "--slot-minutes", "30",
                "--seed", "cli-test",
                "--engine", "event",
                "--json", "-",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)  # pure JSON: no table mixed in
        assert payload["engine"] == "event"
        assert payload["n_audits"] > 0
        assert payload["lanes"] and payload["spindles"]
        assert {"executed_at", "spindle_wait_ms"} <= set(payload["events"][0])

    def test_json_to_file_keeps_the_table(self, capsys, tmp_path):
        import json

        target = tmp_path / "report.json"
        code = main(
            [
                "fleet",
                "--files", "6",
                "--hours", "3",
                "--slot-minutes", "30",
                "--seed", "cli-test",
                "--json", str(target),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet audit run" in out  # table still printed
        payload = json.loads(target.read_text())
        assert payload["n_files"] == 6

    def test_work_stealing_strategy_with_replicas_and_spindles(self, capsys):
        code = main(
            [
                "fleet",
                "--files", "8",
                "--providers", "2",
                "--hours", "4",
                "--slot-minutes", "30",
                "--seed", "cli-test",
                "--engine", "event",
                "--strategy", "work-stealing",
                "--replicas", "2",
                "--spindles", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "work-stealing" in out
        assert "Storage spindles" in out

    def test_bad_spindle_count_exits_2(self, capsys):
        code = main(
            ["fleet", "--files", "4", "--providers", "2", "--spindles", "5"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "spindles" in err


class TestEconomics:
    QUICK = [
        "economics",
        "--files", "6",
        "--hours", "12",
        "--seed", "cli-test",
        "--skip-equivalence",
    ]

    def test_prefetch_sweep_meets_bound_exit_zero(self, capsys):
        code = main(
            self.QUICK + ["--cache-fractions", "0", "0.5", "1",
                          "--engine", "slot"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Adversary campaign" in out
        assert "Cache sweep" in out
        assert "Per-tenant defence pricing" in out
        assert "break-even cache size" in out
        assert "detection bound (1 - (cache/file)^k): met" in out

    def test_json_to_stdout_is_machine_readable(self, capsys):
        import json

        code = main(
            self.QUICK
            + ["--cache-fractions", "0", "1", "--engine", "slot",
               "--json", "-"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)  # pure JSON: no table mixed in
        assert payload["bound_satisfied"] is True
        assert payload["break_even_cache_bytes"] > 0
        assert payload["attack"] == "prefetch-relay"
        assert len(payload["cells"]) == 2
        assert len(payload["quotes"]) == 3
        # The full-cache cell escapes detection; the empty cache never.
        by_fraction = {c["cache_fraction"]: c for c in payload["cells"]}
        assert by_fraction[0.0]["observed_detection_rate"] == 1.0
        assert by_fraction[1.0]["observed_detection_rate"] == 0.0

    def test_json_to_file_keeps_the_table(self, capsys, tmp_path):
        import json

        target = tmp_path / "economics.json"
        code = main(
            self.QUICK
            + ["--cache-fractions", "0.5", "--engine", "slot",
               "--json", str(target)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Adversary campaign" in out  # table still printed
        payload = json.loads(target.read_text())
        assert payload["cells"][0]["cache_fraction"] == 0.5

    def test_unknown_engine_exits_2_via_repro_errors(self, capsys):
        code = main(self.QUICK + ["--engine", "threads"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown engine" in err

    def test_unknown_attack_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["economics", "--attack", "teleport"])

    def test_deletion_campaign_runs(self, capsys):
        code = main(
            self.QUICK + ["--attack", "deletion", "--engine", "slot",
                          "--delete-fraction", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "deletion" in out

    def test_deletion_json_is_strictly_valid(self, capsys):
        # Regression pin: deletion cells used to leak NaN into the
        # JSON payload, breaking strict parsers.
        import json

        code = main(
            self.QUICK + ["--attack", "deletion", "--engine", "slot",
                          "--json", "-"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out, parse_constant=lambda c: (
            pytest.fail(f"non-finite constant {c!r} in JSON")
        ))
        assert payload["cells"][0]["detection_probability"] is None


class TestAnalyse:
    def test_paper_scale(self, capsys):
        code = main(
            [
                "analyse",
                "--segments",
                "1000000",
                "--epsilon",
                "0.005",
                "--rounds",
                "1000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Delta-t_max" in out
        assert "relay distance bound" in out


class TestOneErrorPath:
    """Every subcommand reports a bad value the same way: exit 2 and an
    ``error:`` line on stderr.  Before, ``table1``, ``fig6``, ``audit``
    and ``analyse`` ended in a traceback (exit 1), ``analyse`` accepted
    an infinite margin, and ``fleet`` an infinite horizon it never
    reached.  ``table2`` and ``table3`` take no value that can fail."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--read-bytes", "-5"],
            ["fig6", "--rounds", "0"],
            ["audit", "--rounds", "0"],
            ["audit", "--home", "nowhere"],
            ["analyse", "--segments", "0"],
            ["analyse", "--margin-ms", "inf"],
            ["fleet", "--files", "3", "--hours", "inf"],
            ["economics", "--files", "3", "--hours", "0"],
            ["lint", "--rules", "NOPE"],
            ["serve", "--home", "nowhere", "--max-seconds", "0.01"],
            ["audit-client", "file-0", "--port", "1"],
            ["stats", "--port", "1"],
        ],
        ids="_".join,
    )
    def test_bad_value_exits_2_with_an_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
