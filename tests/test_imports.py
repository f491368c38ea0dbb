"""Every module-level import in the package is used by its module, and
every private module-level name is used somewhere in the package.

The package's ``__init__.py`` only re-exports, and ``from __future__``
imports switch on language features, so both are exempt from the import
check. A private name (one leading underscore, not a dunder) that no
module reads is dead code.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctfrealize"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.parent.rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private_names(node: ast.stmt) -> list[str]:
    """The private names a top-level statement defines: a function, a
    class, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@cache
def _statement_reads(path: Path) -> tuple[frozenset[str], ...]:
    """The names each top-level statement of a source reads, as a
    variable, an attribute or an import."""
    reads = []
    for statement in ast.parse(path.read_text(), filename=str(path)).body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        reads.append(frozenset(names))
    return tuple(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_private_name(path):
    # a name read only inside its own definition (a recursive call) is dead
    elsewhere = set().union(*(r for p in SOURCES if p != path for r in _statement_reads(p)))
    own = _statement_reads(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = sorted(
        f"{name} (line {node.lineno})"
        for i, node in enumerate(tree.body)
        for name in _private_names(node)
        if name not in elsewhere.union(*own[:i], *own[i + 1:])
    )
    assert not dead, f"{path.name} defines private names nothing reads: {', '.join(dead)}"
