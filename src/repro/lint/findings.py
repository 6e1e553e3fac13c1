"""Finding records emitted by the invariant checker.

A :class:`Finding` pins one rule violation to one source location and
carries the stripped source line (``snippet``) so a report reads on its
own, without the file at hand.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line.
    snippet: str

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def make_finding(
    rule_id: str, relpath: str, node: ast.AST, message: str, lines: tuple[str, ...]
) -> Finding:
    """Build a :class:`Finding` anchored at ``node``'s source location."""
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
    return Finding(
        rule=rule_id,
        path=relpath,
        line=line,
        col=col,
        message=message,
        snippet=snippet,
    )
