"""No public name in ``src/repro`` outlives its last program caller.

The scan reads the program files -- ``src/``, ``benchmarks/``,
``examples/`` and ``perfbench/``, never ``tests/`` -- and reports every
public function, class and method of ``src/repro``, and every
keyword-only option with a default on those, that no program reaches:

* a name is reached by a ``Name`` or ``Attribute`` node, or by a string
  constant equal to it (perfbench patches by name, e.g.
  ``add(ThirdPartyAuditor, "audit_deferred", ...)``), or by the lint
  ``@register`` decorator on a class.  A method (any class member) is
  reached only by an ``Attribute`` node or a string: a bare ``sweep``
  names a module-level or local function, never a ``sweep`` method.
  Import lines, ``__all__`` lists, docstrings and references inside
  the name's own definition are not uses, so a package re-export is
  not a caller;
* an option is reached when a program call to a callee of that name
  passes it by keyword, or when a ``dict(...)`` call or a ``{...}``
  passed as a keyword argument carries it (perfbench spreads
  ``FLEET_KWARGS = dict(...)`` into ``build_demo_fleet``).

Uses inside an unreached definition do not count, so the scan runs to a
fixed point: deleting one name can leave its only callee unreached.

Every unreached name must sit on ``reachability_allow.txt`` beside this
file, one ``qualname`` or ``qualname(option=)`` per line followed by the
reason it stays.  An entry that is now reached or no longer defined
fails too, so the list only shrinks.  Run this file as a script to print
what the scan finds.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOW_LIST = Path(__file__).with_name("reachability_allow.txt")
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")


@dataclass(eq=False)
class Definition:
    qualname: str
    name: str
    parent: Definition | None
    options: tuple[str, ...]
    registered: bool
    bases: tuple[str, ...]
    is_class: bool

    @property
    def public(self) -> bool:
        return not self.name.startswith("_")

    @property
    def member(self) -> bool:
        return self.parent is not None and self.parent.is_class


Stack = tuple[Definition, ...]
_DefNode = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def _simple_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_register(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return _simple_name(target) == "register"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _enclosing_class(stack: Stack) -> str | None:
    return next((d.name for d in reversed(stack) if d.is_class), None)


def _string_keys(node: ast.Dict) -> frozenset[str]:
    return frozenset(
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    )


class _Walker(ast.NodeVisitor):
    """Collects one file's definitions, uses, calls and spread keywords."""

    def __init__(self, module: str | None, found: _Found) -> None:
        self.module = module
        self.found = found
        self.stack: list[Definition] = []
        self.function_depth = 0

    def _define(self, node: _DefNode) -> Definition | None:
        # Names nested in a function body are locals, not API.
        if self.module is None or self.function_depth:
            return None
        parent = self.stack[-1] if self.stack else None
        prefix = parent.qualname if parent is not None else self.module
        if isinstance(node, ast.ClassDef):
            options: tuple[str, ...] = ()
            registered = any(_is_register(d) for d in node.decorator_list)
            bases = tuple(filter(None, map(_simple_name, node.bases)))
        else:
            args = node.args
            options = tuple(
                arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            )
            registered, bases = False, ()
        definition = Definition(
            f"{prefix}.{node.name}", node.name, parent, options, registered,
            bases, isinstance(node, ast.ClassDef),
        )
        self.found.definitions.append(definition)
        return definition

    def _visit_definition(self, node: _DefNode) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        definition = self._define(node)
        if definition is not None:
            self.stack.append(definition)
        is_function = not isinstance(node, ast.ClassDef)
        if isinstance(node, ast.ClassDef):
            for child in [*node.bases, *node.keywords]:
                self.visit(child)
        else:
            self.visit(node.args)
            if node.returns is not None:
                self.visit(node.returns)
            self.function_depth += 1
        for statement in node.body:
            self.visit(statement)
        if is_function:
            self.function_depth -= 1
        if definition is not None:
            self.stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Expr(self, node: ast.Expr) -> None:
        # A bare string statement is a docstring or a comment.
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            return
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and node.target.id == "__all__":
            return
        self.generic_visit(node)

    def _use(self, name: str, bare: bool = False) -> None:
        self.found.uses.setdefault(name, []).append((tuple(self.stack), bare))

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id, bare=True)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._use(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        stack = tuple(self.stack)
        keywords = frozenset(k.arg for k in node.keywords if k.arg is not None)
        callee = _simple_name(node.func)
        if callee is not None:
            self.found.calls.setdefault(callee, []).append((keywords, stack))
        if callee == "dict":
            self.found.spread.append((keywords, stack))
        for keyword in node.keywords:
            if isinstance(keyword.value, ast.Dict):
                self.found.spread.append((_string_keys(keyword.value), stack))
        self.generic_visit(node)


@dataclass
class _Found:
    definitions: list[Definition]
    uses: dict[str, list[tuple[Stack, bool]]]
    calls: dict[str, list[tuple[frozenset[str], Stack]]]
    spread: list[tuple[frozenset[str], Stack]]


def _module_name(path: Path, package: Path) -> str:
    parts = list(path.relative_to(package.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _collect(root: Path) -> _Found:
    found = _Found([], {}, {}, [])
    package = root / "src" / "repro"
    for directory in PROGRAM_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            module = _module_name(path, package) if package in path.parents else None
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            _Walker(module, found).visit(tree)
    return found


def scan(
    root: Path = ROOT, keep: frozenset[str] = frozenset()
) -> tuple[list[str], list[str]]:
    """``(unreached, kept)`` public names and options under ``root/src/repro``.

    ``unreached`` lists what no program reaches and ``keep`` does not
    name.  A kept name counts as reached, and so do its members and
    whatever it calls; ``kept`` lists the entries of ``keep`` that
    still need keeping, so an entry missing from it is stale.
    """
    found = _collect(root)
    # Private helpers ride the fixed point (a helper that only an
    # unreached name calls is unreached, and so are its callees) but
    # are not reported; dunders are reached by the language itself.
    tracked = [d for d in found.definitions if not _is_dunder(d.name)]
    outside = {
        d: [
            stack
            for stack, bare in found.uses.get(d.name, ())
            if d not in stack and not (bare and d.member)
        ]
        for d in tracked
    }
    dead: set[Definition] = set()

    def live(stack: Stack) -> bool:
        return dead.isdisjoint(stack)

    def used(d: Definition) -> bool:
        if d.parent is not None and d.parent in dead:
            return False
        return d.registered or any(map(live, outside[d]))

    def kept_root(d: Definition | None) -> bool:
        while d is not None:
            if d.qualname in keep:
                return True
            d = d.parent
        return False

    roots = {d for d in tracked if kept_root(d)}
    changed = True
    while changed:
        changed = False
        for d in tracked:
            if d not in dead and d not in roots and not used(d):
                dead.add(d)
                changed = True

    names = {d.qualname for d in dead if d.public and d.parent not in dead}
    names |= {d.qualname for d in tracked if d.qualname in keep and not used(d)}
    subclasses: dict[str, set[str]] = {}
    for d in found.definitions:
        for base in d.bases:
            subclasses.setdefault(base, set()).add(d.name)
    spread = {key for keys, stack in found.spread if live(stack) for key in keys}
    for d in found.definitions:
        owner = d.parent if d.name == "__init__" else d
        if not d.options or d in dead or owner is None or not owner.public:
            continue
        if d.name == "__init__":
            # The class, its subclasses, and super().__init__ calls
            # made inside one of those classes.
            family = {owner.name}
            pending = [owner.name]
            while pending:
                for sub in subclasses.get(pending.pop(), ()):
                    if sub not in family:
                        family.add(sub)
                        pending.append(sub)
            calls = [c for name in family for c in found.calls.get(name, ())]
            calls += [
                (keywords, stack)
                for keywords, stack in found.calls.get("__init__", ())
                if _enclosing_class(stack) in family
            ]
        else:
            calls = found.calls.get(d.name, [])
        passed = {
            keyword
            for keywords, stack in calls
            if d not in stack and live(stack)
            for keyword in keywords
        }
        names.update(
            f"{owner.qualname}({option}=)"
            for option in d.options
            if option not in passed and option not in spread
        )
    return sorted(names - keep), sorted(names & keep)


_ENTRY = re.compile(r"^(?P<entry>[\w.]+(?:\(\w+=\))?)(?:\s+(?P<reason>\S.*))?$")


def load_allow_list(path: Path = ALLOW_LIST) -> dict[str, str]:
    """``entry -> reason`` from an allow-list file; ``#`` starts a comment line."""
    entries: dict[str, str] = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _ENTRY.match(line)
        if match is None or match["entry"] in entries:
            raise ValueError(
                f"{path.name}:{number}: malformed or repeated entry: {line!r}"
            )
        entries[match["entry"]] = match["reason"] or ""
    return entries


def check(root: Path, allowed: dict[str, str]) -> list[str]:
    """Problems with ``allowed`` against a scan of ``root``; empty when it holds."""
    unreached, kept = scan(root, frozenset(allowed))
    stale = sorted(allowed.keys() - set(kept))
    unexplained = sorted(n for n, why in allowed.items() if not why)
    return (
        [f"unreached and not allow-listed: {n}" for n in unreached]
        + [f"stale allow-list entry (reached or gone): {n}" for n in stale]
        + [f"allow-list entry without a reason: {n}" for n in unexplained]
    )


class TestRepository:
    def test_allow_list_matches_the_scan(self):
        assert check(ROOT, load_allow_list()) == []

    def test_named_tests_exist(self):
        """A reason that names a test (``tests/...py::name``) names a real one."""
        for entry, reason in load_allow_list().items():
            for path, name in re.findall(r"(tests/[\w/]+\.py)::([\w:]+)", reason):
                source = (ROOT / path).read_text(encoding="utf-8")
                for part in name.split("::"):
                    found = re.search(rf"\b(def|class) {part}\b", source)
                    assert found, (entry, path, part)


def _plant(root: Path, files: dict[str, str]) -> Path:
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


_TREE = {
    "src/repro/__init__.py": (
        "from repro.mod import reexported\n"
        '__all__ = ["reexported"]\n'
    ),
    "src/repro/mod.py": (
        '"""Module docstring naming uncalled and reexported."""\n'
        "def uncalled():\n"
        "    return 1\n"
        "def reexported():\n"
        "    return 2\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def by_string():\n"
        "    return 3\n"
        "def only_from_dead():\n"
        "    return 4\n"
        "def dead_caller():\n"
        "    return only_from_dead()\n"
        "def build(*, size=1, colour='red'):\n"
        "    return size, colour\n"
        "def register(cls):\n"
        "    return cls\n"
        "@register\n"
        "class Rule:\n"
        "    pass\n"
        "class Campaign:\n"
        "    def sweep(self):\n"
        "        return 5\n"
        "    def run(self):\n"
        "        return 6\n"
    ),
    "perfbench/patch.py": (
        "import repro.mod as mod\n"
        "KWARGS = dict(size=2)\n"
        "mod.build(**KWARGS)\n"
        'getattr(mod, "by_string")\n'
        "def sweep():\n"
        "    return mod.Campaign().run()\n"
        "sweep()\n"
    ),
}


class TestScanner:
    @pytest.fixture
    def tree(self, tmp_path):
        return _plant(tmp_path, _TREE)

    @pytest.fixture
    def allowed(self, tree):
        # Keeping dead_caller reaches its callee, so that needs no entry.
        unreached, _ = scan(tree)
        return {
            n: "kept on purpose" for n in unreached if n != "repro.mod.only_from_dead"
        }

    def test_flags_what_no_program_reaches(self, tree):
        assert scan(tree)[0] == [
            "repro.mod.Campaign.sweep",
            "repro.mod.build(colour=)",
            "repro.mod.dead_caller",
            "repro.mod.only_from_dead",
            "repro.mod.recursive",
            "repro.mod.reexported",
            "repro.mod.uncalled",
        ]

    def test_string_register_and_dict_spread_reach(self, tree):
        unreached, _ = scan(tree)
        assert "repro.mod.by_string" not in unreached
        assert "repro.mod.Rule" not in unreached
        assert "repro.mod.build(size=)" not in unreached

    def test_bare_name_does_not_reach_a_method(self, tree):
        """A program's own ``sweep()`` is not a call of ``Campaign.sweep``."""
        unreached, _ = scan(tree)
        assert "repro.mod.Campaign.sweep" in unreached
        assert "repro.mod.Campaign.run" not in unreached

    def test_allow_list_holds_only_the_unreached(self, tree, allowed):
        assert check(tree, allowed) == []

    def test_kept_name_reaches_its_callees(self, tree, allowed):
        allowed["repro.mod.only_from_dead"] = "kept on purpose"
        assert check(tree, allowed) == [
            "stale allow-list entry (reached or gone): repro.mod.only_from_dead"
        ]

    def test_new_uncalled_name_fails(self, tree, allowed):
        _plant(tree, {"src/repro/extra.py": "def fresh():\n    pass\n"})
        assert check(tree, allowed) == [
            "unreached and not allow-listed: repro.extra.fresh"
        ]

    def test_reached_entry_is_stale(self, tree, allowed):
        _plant(tree, {"examples/use.py": "import repro.mod\nrepro.mod.uncalled()\n"})
        assert check(tree, allowed) == [
            "stale allow-list entry (reached or gone): repro.mod.uncalled"
        ]

    def test_entry_needs_a_reason(self, tree, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text(
            "# comment\nrepro.mod.uncalled\nrepro.mod.build(colour=)  a reason\n"
        )
        allowed = load_allow_list(path)
        assert allowed == {
            "repro.mod.uncalled": "",
            "repro.mod.build(colour=)": "a reason",
        }
        problem = "allow-list entry without a reason: repro.mod.uncalled"
        assert problem in check(tree, allowed)


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT
    unreached, kept = scan(root, frozenset(load_allow_list()))
    for name in kept:
        print("kept       " + name)
    for name in unreached:
        print("unreached  " + name)
