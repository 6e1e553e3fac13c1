"""repro.lint: an AST-enforced invariant checker for this repository.

The paper's guarantees hold in this reproduction only because the code
obeys a handful of unwritten conventions -- all simulated time flows
through injected clocks, all randomness is seeded and PRF-derived, MAC
comparisons are constant-time, errors speak the repro hierarchy, and
every quantity carries its unit in its name.  This package makes those
conventions machine-checked:

    from repro.lint import run_lint
    report = run_lint(("src", "benchmarks", "examples"))
    assert report.ok

or, from the command line (exit 1 on findings or unused pragmas, 2 on
bad usage)::

    python -m repro.cli lint src benchmarks examples
    python -m repro.cli lint src/repro/crypto --rules CRY --json -
    python -m repro.cli lint --explain SIM001

A vetted exemption is an inline pragma, a ``repro: lint-ok`` comment
naming the rule id with a ``-- why`` justification, on the line it
exempts; a pragma that exempts nothing fails the run (see
:mod:`repro.lint.suppress`).  The rules themselves live in
:mod:`repro.lint.rules`; each knows *why* its invariant exists and says
so via ``--explain``.
"""

from repro.lint.engine import LintReport, discover_files, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import RULES, Rule, get_rule, resolve_rules

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "discover_files",
    "get_rule",
    "resolve_rules",
    "run_lint",
]
