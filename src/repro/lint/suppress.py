"""Inline pragma suppressions: ``repro: lint-ok`` comments.

A suppression is a comment of the form ``# repro: lint-ok[SIM001] --
justification``.  Only comment tokens are read, so a docstring or a
string literal that spells out the form is not a pragma.

A pragma silences findings for the named rule(s) on its own physical
line; a pragma on a *standalone* comment line also covers the line
immediately below it (for lines too long to carry a trailing comment).
Rule names may be exact ids (``SIM001``) or a bare family (``SIM``).
The text after the closing bracket is the human justification; the
engine carries it into reports so every exemption stays reviewable.

Pragmas are the only way to exempt a finding, and both ways one can
rot fail the run: a pragma naming an unknown rule is a configuration
error (a typo'd pragma that "works" is worse than a failing lint run),
and a pragma that suppresses nothing is reported as unused once every
rule it names has run (the engine decides that; see
:func:`repro.lint.engine.lint_file`).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.errors import ConfigurationError

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<rules>[A-Za-z0-9_,\s]+)\]\s*"
    r"(?:--\s*(?P<why>.*))?$"
)


@dataclass(frozen=True)
class Pragma:
    """One parsed suppression comment."""

    path: str
    line: int
    rules: tuple[str, ...]
    justification: str
    #: True when the pragma is the whole line (covers the next line too).
    standalone: bool

    def covers(self, line: int) -> bool:
        return line == self.line or (self.standalone and line == self.line + 1)

    def matches(self, rule_id: str) -> bool:
        family = rule_id.rstrip("0123456789")
        return any(token in (rule_id, family) for token in self.rules)

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rules": list(self.rules),
            "justification": self.justification,
        }


def scan_pragmas(
    text: str,
    *,
    known_rules: set[str],
    known_families: set[str],
    relpath: str,
) -> list[Pragma]:
    """Parse every ``lint-ok`` comment in a file, validating rule names."""
    if "lint-ok" not in text:
        return []
    lines = text.splitlines()
    pragmas: list[Pragma] = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        lineno, col = token.start
        tokens = tuple(
            name.strip() for name in match.group("rules").split(",") if name.strip()
        )
        if not tokens:
            raise ConfigurationError(
                f"{relpath}:{lineno}: empty lint-ok pragma"
            )
        for name in tokens:
            if name not in known_rules and name not in known_families:
                raise ConfigurationError(
                    f"{relpath}:{lineno}: lint-ok names unknown rule "
                    f"{name!r}; known rules: {', '.join(sorted(known_rules))}"
                )
        pragmas.append(
            Pragma(
                path=relpath,
                line=lineno,
                rules=tokens,
                justification=(match.group("why") or "").strip(),
                standalone=not lines[lineno - 1][:col].strip(),
            )
        )
    return pragmas
