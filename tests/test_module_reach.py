"""Every ``src/repro`` module is reachable from an entry point.

The walk parses ``import`` statements with :mod:`ast`, starting from the
CLI and from every benchmark, example and perfbench script.  A name
imported from a package is followed through the package ``__init__`` to
the module that defines it, so an ``__init__`` re-export alone does not
keep a module alive.  Tests under ``tests/`` are not entry points: a
module only its own tests import is an orphan.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_MODULES = ["repro.cli", "repro.__main__"]
ENTRY_SCRIPTS = [
    *sorted((ROOT / "benchmarks").rglob("*.py")),
    *sorted((ROOT / "examples").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
]

def _module_file(module: str) -> Path | None:
    """The source file of a ``repro`` module or package, else ``None``."""
    base = SRC.joinpath(*module.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _attributes_of(tree: ast.AST, alias: str) -> set[str]:
    """Every ``attr`` read as ``alias.attr`` in ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == alias
    }


def _imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import in ``tree``; ``name`` is
    ``None`` when the whole module is imported.  A module imported by
    ``from package import module`` also yields each ``module.attr`` the
    tree reads.  The repository has no relative imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                out.append((node.module, a.name))
                submodule = f"{node.module}.{a.name}"
                if _module_file(submodule) is not None:
                    attrs = _attributes_of(tree, a.asname or a.name)
                    out += [(submodule, x) for x in attrs]
    return out


def _package_bindings(path: Path) -> dict[str, list[tuple[str, str | None]]]:
    """What each top-level name of a package ``__init__`` leads to.

    An imported name leads to its import.  A name the ``__init__``
    defines itself leads to the imports nested in its definition and to
    the other top-level names it reads.
    """
    tree = ast.parse(path.read_text())
    package = _module_name(path)
    bindings: dict[str, list[tuple[str, str | None]]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                bindings[a.asname or a.name] = [(node.module, a.name)]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        reads = {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in bindings
        }
        leads = _imports(node) + [(package, n) for n in reads]
        for name in names:
            bindings[name] = leads
    return bindings


def reachable_modules() -> set[str]:
    reached: set[str] = set()
    followed: set[tuple[str, str]] = set()
    todo = [(module, None) for module in ENTRY_MODULES]
    for path in ENTRY_SCRIPTS:
        todo += _imports(ast.parse(path.read_text()))
    while todo:
        module, name = todo.pop()
        path = _module_file(module)
        if path is None:
            continue  # outside src/repro: stdlib, NumPy, tests, perfbench
        if path.name != "__init__.py":
            if module not in reached:
                reached.add(module)
                todo += _imports(ast.parse(path.read_text()))
            continue
        # A package: follow only the name asked for.
        if name is None or (module, name) in followed:
            continue
        followed.add((module, name))
        if _module_file(f"{module}.{name}") is not None:
            todo.append((f"{module}.{name}", None))
        else:
            todo += _package_bindings(path).get(name, [])
    return reached


def all_modules() -> set[str]:
    return {
        _module_name(p)
        for p in (SRC / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }


def test_every_module_is_reached_from_an_entry_point():
    unreached = all_modules() - reachable_modules()
    assert not unreached, sorted(unreached)


PACKAGES = sorted(
    _module_name(p) for p in (SRC / "repro").rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    """A deleted module leaves no name behind in a package's
    ``__all__``: ``from package import *`` would fail on it."""
    module = importlib.import_module(package)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, missing
