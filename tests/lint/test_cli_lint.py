"""The `repro lint` subcommand: exit codes, JSON, explain, unused pragmas."""

import json
from pathlib import Path

import pytest

from repro.cli import main

from tests.lint.conftest import SRC

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD = "import time\nstamp = time.time()\n"
GOOD = "def tick(clock):\n    return clock.now_ms()\n"
#: A pragma on a line no rule flags: it exempts nothing.
IDLE_PRAGMA = GOOD + "total_ms = 1  # repro: lint-ok[SIM001] -- stale\n"


def write_tree(tmp_path, source):
    target = tmp_path / SRC
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD)
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_1(self, tmp_path, capsys):
        write_tree(tmp_path, BAD)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD)
        assert main(["lint", str(tmp_path), "--rules", "NOPE"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        write_tree(tmp_path, "def broken(:\n")
        assert main(["lint", str(tmp_path)]) == 2
        assert "syntax error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "removed", [["--baseline", "lint_baseline.json"], ["--update-baseline"]]
    )
    def test_baseline_options_are_gone(self, tmp_path, removed, capsys):
        write_tree(tmp_path, GOOD)
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(tmp_path), *removed])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestJson:
    def test_stdout_json_shape(self, tmp_path, capsys):
        write_tree(tmp_path, BAD)
        assert main(["lint", str(tmp_path), "--json", "-"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version",
            "ok",
            "n_files",
            "rules",
            "findings",
            "n_suppressed",
            "unused_pragmas",
        }
        assert payload["version"] == 2
        assert payload["ok"] is False
        assert payload["n_files"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "SIM001"
        assert finding["line"] == 2
        assert finding["snippet"] == "stamp = time.time()"

    def test_json_to_file(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD)
        out_path = tmp_path / "report.json"
        assert main(["lint", str(tmp_path), "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert f"wrote {out_path}" in capsys.readouterr().out


class TestExplain:
    @pytest.mark.parametrize(
        "rule_id", ["SIM001", "SIM002", "CRY001", "CRY002", "CRY003",
                    "ERR001", "ERR002", "UNT001", "UNT002", "VEC001"]
    )
    def test_every_rule_explains(self, rule_id, capsys):
        assert main(["lint", "--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{rule_id}:")
        assert len(out.splitlines()) >= 3  # title, blank, rationale

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--explain", "XXX999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err


class TestUnusedPragmas:
    def test_idle_pragma_fails_the_run(self, tmp_path, capsys):
        write_tree(tmp_path, IDLE_PRAGMA)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{SRC}:3: unused lint-ok[SIM001] pragma" in out
        assert "0 finding(s)" in out
        assert "1 unused pragma(s)" in out

    def test_idle_pragma_in_json(self, tmp_path, capsys):
        write_tree(tmp_path, IDLE_PRAGMA)
        assert main(["lint", str(tmp_path), "--json", "-"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"] == []
        (pragma,) = payload["unused_pragmas"]
        assert pragma == {
            "path": pragma["path"],
            "line": 3,
            "rules": ["SIM001"],
            "justification": "stale",
        }
        assert pragma["path"].endswith(SRC)

    def test_rules_that_skip_the_pragma_cannot_judge_it(self, tmp_path, capsys):
        write_tree(tmp_path, IDLE_PRAGMA)
        assert main(["lint", str(tmp_path), "--rules", "CRY"]) == 0
        assert "0 unused pragma(s)" in capsys.readouterr().out


class TestRuleSelection:
    def test_rules_subset_only_runs_those(self, tmp_path, capsys):
        write_tree(tmp_path, BAD + "timeout = 5\n")
        assert main(["lint", str(tmp_path), "--rules", "UNT"]) == 1
        out = capsys.readouterr().out
        assert "UNT001" in out
        assert "SIM001" not in out


class TestDogfood:
    def test_repo_tree_lints_clean(self, monkeypatch, capsys):
        """The acceptance gate: the real tree has zero live findings,
        and every pragma in it exempts a finding."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "0 unused pragma(s)" in out
