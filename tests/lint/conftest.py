"""Shared helpers for the lint fixture suite.

Every test builds a throwaway source tree under ``tmp_path`` and lints
it; because :func:`repro.lint.registry.module_name_for` is purely
lexical, a fixture file at ``tmp_path/src/repro/demo/mod.py`` gets the
same "library code" treatment as the real tree, while one at
``tmp_path/benchmarks/bench.py`` is scanned as script code.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import run_lint

#: Canonical fixture locations: library code vs script code.
SRC = "src/repro/demo/mod.py"
SCRIPT = "benchmarks/bench_demo.py"


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""

    def _lint(files, *, rule_ids=None):
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source), encoding="utf-8")
        return run_lint((str(tmp_path),), rule_ids=rule_ids)

    return _lint


def rule_ids_of(report):
    """The multiset of rule ids a report flagged, sorted."""
    return sorted(finding.rule for finding in report.findings)
