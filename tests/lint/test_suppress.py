"""Pragma suppression: scope, families, and typo rejection."""

import pytest

from repro.errors import ConfigurationError

from tests.lint.conftest import SRC

pytestmark = pytest.mark.lint

BAD_LINE = "stamp = time.time()"


class TestPragmaScope:
    def test_same_line_pragma_suppresses(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\n"
                  f"{BAD_LINE}  # repro: lint-ok[SIM001] -- fixture\n"}
        )
        assert report.findings == []
        assert report.n_suppressed == 1

    def test_standalone_pragma_covers_next_line(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\n"
                  "# repro: lint-ok[SIM001] -- fixture\n"
                  f"{BAD_LINE}\n"}
        )
        assert report.findings == []
        assert report.n_suppressed == 1

    def test_standalone_pragma_does_not_cover_two_lines_down(
        self, lint_tree
    ):
        report = lint_tree(
            {SRC: "import time\n"
                  "# repro: lint-ok[SIM001] -- fixture\n"
                  "ok_ms = 1\n"
                  f"{BAD_LINE}\n"}
        )
        assert [f.rule for f in report.findings] == ["SIM001"]

    def test_family_pragma_suppresses_member_rule(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\n"
                  f"{BAD_LINE}  # repro: lint-ok[SIM] -- fixture\n"}
        )
        assert report.findings == []
        assert report.n_suppressed == 1

    def test_pragma_for_other_rule_does_not_suppress(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\n"
                  f"{BAD_LINE}  # repro: lint-ok[CRY001] -- wrong rule\n"}
        )
        assert [f.rule for f in report.findings] == ["SIM001"]
        assert report.n_suppressed == 0

    def test_multiple_rules_in_one_pragma(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\n"
                  "timeout = time.time()"
                  "  # repro: lint-ok[SIM001, UNT001] -- fixture\n"}
        )
        assert report.findings == []
        assert report.n_suppressed == 2


class TestPragmaValidation:
    def test_unknown_rule_in_pragma_is_configuration_error(
        self, lint_tree
    ):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            lint_tree({SRC: "x = 1  # repro: lint-ok[NOPE123] -- typo\n"})

    def test_empty_pragma_is_configuration_error(self, lint_tree):
        with pytest.raises(ConfigurationError, match="empty"):
            lint_tree({SRC: "x = 1  # repro: lint-ok[ ] -- nothing\n"})


class TestUnusedPragmas:
    def test_pragma_on_a_clean_line_is_unused(self, lint_tree):
        report = lint_tree(
            {SRC: "ok_ms = 1  # repro: lint-ok[SIM001] -- nothing to exempt\n"}
        )
        assert report.findings == []
        (pragma,) = report.unused_pragmas
        assert (pragma.line, pragma.rules) == (1, ("SIM001",))
        assert pragma.justification == "nothing to exempt"
        assert not report.ok

    def test_pragma_that_suppresses_is_used(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\n"
                  "# repro: lint-ok[SIM001] -- fixture\n"
                  f"{BAD_LINE}\n"}
        )
        assert report.unused_pragmas == []
        assert report.ok

    def test_pragma_for_the_wrong_rule_is_unused(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\n"
                  f"{BAD_LINE}  # repro: lint-ok[CRY001] -- wrong rule\n"}
        )
        assert [f.rule for f in report.findings] == ["SIM001"]
        assert [p.rules for p in report.unused_pragmas] == [("CRY001",)]

    def test_pragma_is_judged_only_when_all_its_rules_ran(self, lint_tree):
        files = {SRC: "ok_ms = 1  # repro: lint-ok[SIM, CRY001] -- fixture\n"}
        for rule_ids in (("CRY",), ("SIM001", "CRY001"), ("SIM",)):
            assert lint_tree(files, rule_ids=rule_ids).unused_pragmas == []
        judged = lint_tree(files, rule_ids=("SIM", "CRY001"))
        assert len(judged.unused_pragmas) == 1

    def test_pragma_shaped_docstring_is_not_a_pragma(self, lint_tree):
        report = lint_tree(
            {SRC: '"""Write it as\n'
                  "# repro: lint-ok[NOPE123] -- or\n"
                  "# repro: lint-ok[SIM001] --\n"
                  '"""\n'}
        )
        assert report.ok
        assert report.unused_pragmas == []
