"""The lint engine: discover files, walk ASTs, apply pragmas.

One :func:`run_lint` call scans a set of files/directories, runs every
selected rule over each file's AST in a single traversal, then filters
the raw findings through the file's inline pragmas
(:mod:`repro.lint.suppress`), the only way to exempt a finding.  The
result is a :class:`LintReport` that renders for humans, serializes for
the CI artifact, and decides the exit code (``ok``: no findings *and*
no unused pragmas).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import repro.lint.rules  # noqa: F401  -- populates the registry
from repro.errors import ConfigurationError
from repro.lint.findings import Finding
from repro.lint.registry import (
    RULES,
    FileContext,
    Rule,
    known_families,
    module_name_for,
    resolve_rules,
)
from repro.lint.suppress import Pragma, scan_pragmas


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    n_files: int
    rules: tuple[str, ...]
    n_suppressed: int = 0
    #: Pragmas that suppressed nothing although every rule they name ran.
    unused_pragmas: list[Pragma] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.unused_pragmas

    def to_dict(self) -> dict[str, object]:
        return {
            "version": 2,
            "ok": self.ok,
            "n_files": self.n_files,
            "rules": list(self.rules),
            "findings": [finding.to_dict() for finding in self.findings],
            "n_suppressed": self.n_suppressed,
            "unused_pragmas": [pragma.to_dict() for pragma in self.unused_pragmas],
        }

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(
            f"{pragma.path}:{pragma.line}: unused "
            f"lint-ok[{', '.join(pragma.rules)}] pragma: it suppresses no "
            f"finding; remove it"
            for pragma in self.unused_pragmas
        )
        lines.append(
            f"{len(self.findings)} finding(s) across {self.n_files} file(s) "
            f"({self.n_suppressed} pragma-suppressed, "
            f"{len(self.unused_pragmas)} unused pragma(s))"
        )
        return "\n".join(lines)


def discover_files(paths: tuple[str, ...]) -> list[Path]:
    """Expand files/directories to a sorted list of ``.py`` files."""
    if not paths:
        raise ConfigurationError("no paths to lint")
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            if path.suffix != ".py":
                raise ConfigurationError(f"not a python file: {path}")
            files.append(path)
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
    # De-duplicate while keeping order (overlapping dir arguments).
    seen: set[Path] = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _relpath(path: Path) -> str:
    """Path as recorded in findings and pragmas: cwd-relative, POSIX."""
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()


def lint_file(
    path: Path, rules: dict[str, Rule]
) -> tuple[list[Finding], int, list[Pragma]]:
    """Lint one file; returns (kept findings, n suppressed, unused pragmas).

    A pragma counts as unused only when every rule it names is among
    ``rules``: a ``--rules CRY`` run cannot tell whether a SIM pragma
    is still needed, so it does not judge one.
    """
    relpath = _relpath(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {relpath}: {exc}") from exc
    try:
        tree = ast.parse(text, filename=relpath)
    except SyntaxError as exc:
        raise ConfigurationError(
            f"{relpath}:{exc.lineno}: syntax error: {exc.msg}"
        ) from exc
    lines = tuple(text.splitlines())
    parents: dict[ast.AST, ast.AST] = {}
    dispatch: dict[type[ast.AST], list[Rule]] = {}
    for rule in rules.values():
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    ctx = FileContext(
        path=str(path),
        relpath=relpath,
        text=text,
        lines=lines,
        tree=tree,
        module=module_name_for(relpath),
        parents=parents,
    )
    findings: list[Finding] = []
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.visit(node, ctx))
    pragmas = scan_pragmas(
        text,
        known_rules=set(RULES),
        known_families=known_families(),
        relpath=relpath,
    )
    kept: list[Finding] = []
    used: set[Pragma] = set()
    for finding in findings:
        covering = [
            pragma
            for pragma in pragmas
            if pragma.covers(finding.line) and pragma.matches(finding.rule)
        ]
        if covering:
            used.update(covering)
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    unused = [
        pragma
        for pragma in pragmas
        if pragma not in used
        and all(rule_id in rules for rule_id in RULES if pragma.matches(rule_id))
    ]
    return kept, len(findings) - len(kept), unused


def run_lint(
    paths: tuple[str, ...], *, rule_ids: tuple[str, ...] | None = None
) -> LintReport:
    """Lint ``paths`` with the selected rules (``None``: every rule)."""
    rules = resolve_rules(rule_ids)
    files = discover_files(paths)
    report = LintReport(findings=[], n_files=len(files), rules=tuple(sorted(rules)))
    for path in files:
        kept, suppressed, unused = lint_file(path, rules)
        report.findings.extend(kept)
        report.n_suppressed += suppressed
        report.unused_pragmas.extend(unused)
    return report
