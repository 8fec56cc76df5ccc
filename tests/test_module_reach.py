"""Every ``src/repro`` module is reachable from an entry point, every
public definition is named outside the tests, and every public dataclass
field and module constant is read outside them.

The walk parses ``import`` statements with :mod:`ast`, starting from the
CLI and from every benchmark, example and perfbench script.  A name
imported from a package is followed through the package ``__init__`` to
the module that defines it, so an ``__init__`` re-export alone does not
keep a module alive.  Tests under ``tests/`` are not entry points: a
module only its own tests import is an orphan.
"""

import ast
import importlib
import re
import textwrap
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


def _module_name(path: Path, src: Path = SRC) -> str:
    parts = path.relative_to(src).with_suffix("").parts
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


# -- public definitions ----------------------------------------------------

#: Public definitions that no entry point names, each kept for a reason.
EXEMPT = {
    "repro.baselines.linreg:RidgeRegression.coef_": (
        "the fitted coefficients; test_regularization_shrinks_coefficients "
        "observes ridge shrinkage through them"
    ),
    "repro.queueing.events:EventLoop.pending": (
        "the event-loop tests observe the heap through it (run until a "
        "time, rejected schedules leave nothing behind)"
    ),
    "repro.queueing.ggk:QueueResult.drop_warmup": (
        "the Stage 3 oracle (tests/test_core/rt_oracle.py) and the kernel "
        "tests cut the warmup through it"
    ),
    "repro.core.io:load_dataset": (
        "reads back the .npz that `repro profile` writes with save_dataset; "
        "the CI layout smoke loads one"
    ),
    "repro.counters.events:synthesize_tick": (
        "the per-tick counter model that synthesize_ticks vectorizes; the "
        "sampler oracle (tests/test_counters/sampler_oracle.py) walks it"
    ),
    "repro.core.profile_vec:STATIC_FEATURE_NAMES": (
        "names the static columns of a feature vector; tests index X_flat "
        "columns by name through it"
    ),
    "repro.core.profile_vec:DYNAMIC_FEATURE_NAMES": (
        "names the dynamic columns of a feature vector; tests index X_flat "
        "columns by name through it"
    ),
}


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _owners(tree: ast.AST, module: str) -> dict[int, set[str]]:
    """``id`` of every node inside a top-level function or class of
    ``tree``, or a method of such a class, to the ``module:name`` (and
    ``module:Class.method``) of each definition whose body holds it."""
    owners: dict[int, set[str]] = {}

    def claim(node, key):
        for n in ast.walk(node):
            owners.setdefault(id(n), set()).add(key)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            claim(node, f"{module}:{node.name}")
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, ast.FunctionDef):
                    claim(m, f"{module}:{node.name}.{m.name}")
    return owners


def _names_read(path: Path) -> set[tuple[str, frozenset[str]]]:
    """Every name ``path`` reads (variables, attributes, names imported
    and identifiers inside strings: ``getattr`` targets, probe specs),
    each with the definitions whose body the read sits in.  A package
    ``__init__`` re-export, an ``__all__`` entry and a docstring are
    not reads."""
    tree = ast.parse(path.read_text())
    owners = _owners(tree, _module_name(path) if path.is_relative_to(SRC) else "")
    skip = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip |= {id(n) for n in ast.walk(node.value)}
    reads: set[tuple[str, frozenset[str]]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names = [a.name for a in node.names]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            names = re.findall(r"[A-Za-z_]\w*", node.value)
        else:
            continue
        where = frozenset(owners.get(id(node), ()))
        reads.update((name, where) for name in names)
    return reads


def public_definitions() -> set[str]:
    """``module:name`` of every public top-level function and class of
    ``src/repro``, and ``module:Class.method`` of every public method of
    a top-level class."""
    out = set()
    for path in (SRC / "repro").rglob("*.py"):
        module = _module_name(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.add(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                out |= {
                    f"{module}:{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                }
    return out


def _reader_files(root: Path) -> list[Path]:
    """Every source file whose reads count: all of ``root`` but ``tests/``."""
    return [
        path
        for top in ("src", "benchmarks", "examples", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
    ]


def unnamed_definitions() -> set[str]:
    """Public definitions whose name no code outside ``tests/`` reads,
    reads inside the definition's own body aside.

    This is a name scan: a method counts as named when an attribute of
    that name is read on any object, so the scan errs toward "named".
    """
    readers: dict[str, list[frozenset[str]]] = {}
    for path in _reader_files(ROOT):
        for name, where in _names_read(path):
            readers.setdefault(name, []).append(where)
    return {
        d
        for d in public_definitions()
        if all(d in where for where in readers.get(re.split("[:.]", d)[-1], ()))
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (f.attr if isinstance(f, ast.Attribute) else f.id) == "dataclass":
            return True
    return False


def _fields_and_constants(src: Path) -> tuple[set[str], set[str]]:
    """``module:Class.field`` of every public field of a top-level
    ``@dataclass`` under ``src/repro``, and ``module:NAME`` of every
    public name a module assigns at its top level."""
    fields: set[str] = set()
    constants: set[str] = set()
    for path in (src / "repro").rglob("*.py"):
        module = _module_name(path, src)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields |= {
                    f"{module}:{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and not item.target.id.startswith("_")
                }
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                targets = []
            constants |= {
                f"{module}:{t.id}" for t in targets if not t.id.startswith("_")
            }
    return fields, constants


def _reads(path: Path) -> tuple[set[str], set[str]]:
    """``(attributes, names)`` that ``path`` reads.

    ``attributes`` are loaded as ``x.name`` or ``getattr(x, "name")``.
    ``names`` adds every variable loaded and every name imported, except
    by a package ``__init__``.  A string annotation is read as the code
    it holds.  Text in any other string, a dict key or f-string label,
    reads nothing; neither does a keyword argument, which writes.
    """
    tree = ast.parse(path.read_text())
    nodes = list(ast.walk(tree))
    annotations = [
        a
        for node in nodes
        for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if a is not None
    ]
    nodes += [
        n
        for a in annotations
        for c in ast.walk(a)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
        for n in ast.walk(ast.parse(c.value, mode="eval"))
    ]
    attributes: set[str] = set()
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            attributes.add(node.args[1].value)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names |= {a.name for a in node.names}
    return attributes, attributes | names


def unread_fields_and_constants(root: Path = ROOT) -> set[str]:
    """Public dataclass fields that no code outside ``root/tests`` reads
    as an attribute, and public module constants it does not read at
    all.  Like the definition scan, this matches by name, and errs
    toward "read"."""
    attributes: set[str] = set()
    names: set[str] = set()
    for path in _reader_files(root):
        a, n = _reads(path)
        attributes |= a
        names |= n
    fields, constants = _fields_and_constants(root / "src")
    return {f for f in fields if f.rsplit(".", 1)[1] not in attributes} | {
        c for c in constants if c.split(":")[1] not in names
    }


def test_every_public_definition_is_named_outside_tests():
    """A function, class or method that only its own tests name is
    deleted, or exempted above with a reason."""
    unexempted = unnamed_definitions() - set(EXEMPT)
    assert not unexempted, sorted(unexempted)


def test_every_field_and_constant_is_read_outside_tests():
    """A dataclass field or module constant that only tests read is
    deleted with the code that computes it, or exempted above."""
    unexempted = unread_fields_and_constants() - set(EXEMPT)
    assert not unexempted, sorted(unexempted)


def test_every_exemption_is_still_needed():
    """An exemption names an existing definition, field or constant that
    is still unread; one that was deleted or gained a reader is removed."""
    stale = set(EXEMPT) - unnamed_definitions() - unread_fields_and_constants()
    assert not stale, sorted(stale)


def _reads_of(tmp_path, source: str) -> set[tuple[str, frozenset[str]]]:
    path = tmp_path / "probe.py"
    path.write_text(textwrap.dedent(source))
    return _names_read(path)


def test_reads_inside_a_definition_belong_to_it(tmp_path):
    """A return annotation naming its own class and a call of a
    same-named method inside a function do not name them elsewhere."""
    reads = _reads_of(
        tmp_path,
        '''
        class Net:
            def fit(self) -> "Net":
                return self

        def timer():
            return registry.timer()
        ''',
    )
    assert {where for name, where in reads if name in ("Net", "timer")} == {
        frozenset({":Net", ":Net.fit"}),
        frozenset({":timer"}),
    }


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def test_only_an_attribute_read_outside_tests_names_a_field(tmp_path):
    """``box.label`` and ``getattr(box, "tag")`` read a field; a keyword
    argument to the constructor, a read under ``tests/``, a dict key and
    f-string text do not."""
    root = _tree(
        tmp_path,
        {
            "src/repro/box.py": """
                from dataclasses import dataclass

                @dataclass
                class Box:
                    size: int
                    label: str
                    tag: str
                    p50: float
                    p99: float

                def make():
                    return Box(size=1, label="a", tag="b", p50=0.5, p99=0.9)
                """,
            "examples/show.py": """
                from repro.box import make

                box = make()
                row = {"p50": box.label, "tag": getattr(box, "tag")}
                print(f"p99 {row}")
                """,
            "tests/test_box.py": """
                from repro.box import make

                def test_size():
                    assert make().size == 1
                """,
        },
    )
    assert unread_fields_and_constants(root) == {
        "repro.box:Box.size",
        "repro.box:Box.p50",
        "repro.box:Box.p99",
    }


def test_a_constant_read_only_by_an_export_or_tests_is_flagged(tmp_path):
    """A module-level read and an import outside ``tests/`` count; the
    assignment itself, an ``__init__`` re-export and ``__all__`` do not."""
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": """
                from repro.names import LIMIT, N_NAMES

                __all__ = ["LIMIT", "N_NAMES"]
                """,
            "src/repro/names.py": """
                NAMES = ("a", "b")
                N_NAMES = len(NAMES)
                LIMIT = 3
                """,
            "src/repro/use.py": """
                from repro.names import N_NAMES

                def size(rng: "RngLike") -> int:
                    return N_NAMES
                """,
            "src/repro/rng.py": 'RngLike = "int | None"\n',
            "tests/test_names.py": "from repro import LIMIT\n",
        },
    )
    assert unread_fields_and_constants(root) == {"repro.names:LIMIT"}


def test_a_sibling_method_or_the_module_names_a_definition(tmp_path):
    reads = _reads_of(
        tmp_path,
        """
        class Log:
            def current(self):
                return None

            def use(self):
                return self.current()

        Log()
        """,
    )
    assert ("current", frozenset({":Log", ":Log.use"})) in reads
    assert ("Log", frozenset()) in reads
