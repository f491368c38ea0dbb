"""Every module-level import in the package is used by its module, every
private name defined at module level or in a class body is used
somewhere in the package, and every public module-level name is read by
the package or by the benchmark.

The package's ``__init__.py`` only re-exports, and ``from __future__``
imports switch on language features, so both are exempt from the import
check. A private name (one leading underscore, not a dunder) that no
module reads is dead code. A public name must be read by another package
module (a re-export in ``__init__.py`` counts), by ``bench/``, or by its
own module outside its own definition: a name that only the tests read
belongs beside them, in ``tests/reference.py``.

A shipped model is built by ``models.tabulated_model``, so no other
package module calls ``Mechanism.tabulate`` or ``independent_exogenous``.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ctfrealize"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.parent.rglob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))


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


def _defined(node: ast.stmt) -> list[str]:
    """The names a statement defines: a function, a class, or the targets
    of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return names


def _definitions(body: list[ast.stmt]):
    """(name, statement) for each private name defined at module level or
    in a class body (a method, a nested class, a class attribute)."""
    for node in body:
        for name in _defined(node):
            if name.startswith("_") and not name.startswith("__"):
                yield name, node
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body)


def _reads(node: ast.AST) -> Counter:
    """How often a node reads each name, as a variable, an attribute or an
    import."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


@cache
def _source(path: Path) -> tuple[ast.Module, Counter]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return tree, _reads(tree)


def _unread(path: Path, definitions, readers: list[Path]) -> list[str]:
    """Each (name, statement) of the module's ``definitions`` that no
    other file of ``readers`` reads, and that the module reads only
    inside the statement (a recursive call is no read)."""
    elsewhere = set().union(*(_source(p)[1] for p in readers if p != path))
    reads = _source(path)[1]
    return sorted(
        f"{name} (line {node.lineno})"
        for name, node in definitions
        if name not in elsewhere and reads[name] <= _reads(node)[name]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_private_name(path):
    dead = _unread(path, _definitions(_source(path)[0].body), SOURCES)
    assert not dead, f"{path.name} defines private names nothing reads: {', '.join(dead)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_public_name_only_tests_read(path):
    public = [
        (name, node)
        for node in _source(path)[0].body
        for name in _defined(node)
        if not name.startswith("_")
    ]
    unread = _unread(path, public, SOURCES + BENCH)
    assert not unread, (
        f"{path.name} defines public names that neither the package nor bench/ "
        f"reads: {', '.join(unread)}"
    )


def _builds_by_hand(node: ast.AST) -> bool:
    """Whether a node calls ``Mechanism.tabulate`` or
    ``independent_exogenous``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute) and f.attr == "tabulate":
        return isinstance(f.value, ast.Name) and f.value.id == "Mechanism"
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return name == "independent_exogenous"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "models.py"], ids=lambda p: p.name
)
def test_only_models_tabulates_a_model(path):
    calls = sorted(
        node.lineno for node in ast.walk(_source(path)[0]) if _builds_by_hand(node)
    )
    assert not calls, (
        f"{path.name} builds a model by hand on lines {calls}; "
        "use models.tabulated_model"
    )
