"""No module imports a name it never uses, every script imports, and the
package defines nothing that only the tests read.

No linter ships with the project, so this scans each module's syntax tree:
every name an ``import`` binds must be read somewhere in the same file.
``__init__`` is skipped because its imports would be re-exports.  The
scripts under ``scripts/`` are also imported as modules (which leaves their
``__main__`` blocks unrun), so a renamed name they use fails here.  Every
module-level function and class of the package must be read somewhere in
``src/`` or ``scripts/``, or be a name the benchmark's tracer patches
(``perfbench/tracer.py``'s ``TRACED``); a test-only definition belongs in
``tests/oracles.py``.  The same holds for every method of a package class
other than a dunder or a method ``TRACED`` patches, with the tracer itself
counted as a reader: it reads ``FlowTrack.snap_f`` for a row's stored bytes.

A flow has one grid, and the checks see every snapshot on it, the
diameter included (it measures a meridian column on its own half lattice):
within the package, only ``imcf`` may name the grid choice (``flow_grid``),
the restriction (``_on_grid``) or the start's builder (``start_geometry``).
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "imcf_lab").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + SCRIPTS
)
# imcf.record is the one way to build a track that stores its snapshots, and
# the traced replay wrappers (pinch_bounds_check, distance_chain, ...) accept
# no other track; no program path calls it
UNREAD_ALLOWED = {"imcf.record"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_scan_finds_an_unused_import():
    src = "import ast\nimport json as js\nfrom os import path, sep\n\nprint(js, sep)\n"
    assert unused_imports(src) == ["line 1: ast", "line 3: path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


FUNCTIONS = ast.FunctionDef, ast.AsyncFunctionDef


def _read_names(readers: list[str]) -> set[str]:
    """Every name the sources in ``readers`` read, bare or as an attribute."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unread_definitions(package: dict, readers: list[str], allowed: set[str]) -> list[str]:
    """``module.name`` of each module-level function or class in ``package``
    (module name -> source) that no source in ``readers`` reads by name or as
    an attribute, and that ``allowed`` does not name."""
    read = _read_names(readers)
    return [
        f"{module}.{node.name}"
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef))
        and node.name not in read
        and f"{module}.{node.name}" not in allowed
    ]


def unread_methods(package: dict, readers: list[str], allowed: set[str]) -> list[str]:
    """``module.Class.name`` of each method of a module-level class in
    ``package`` that is not a dunder, that no source in ``readers`` reads by
    name, and that ``allowed`` does not name."""
    read = _read_names(readers)
    return [
        f"{module}.{cls.name}.{node.name}"
        for module, source in package.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
        and f"{module}.{cls.name}.{node.name}" not in allowed
    ]


TRACER = ROOT / "perfbench" / "tracer.py"


def _traced_entries() -> list[tuple[str, str, str]]:
    """``TRACED``'s (span, owner, attribute) entries."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    ]
    return traced


def _traced() -> set[str]:
    """``module.name`` of every definition ``TRACED`` patches (its span name)
    or patches a method of (its owner, when that is a class)."""
    return {name for span, owner, _ in _traced_entries() for name in (span, owner)}


def test_scan_finds_an_unread_definition():
    package = {"a": "def used(): pass\ndef unused(): pass\nclass Kept: pass\n", "b": "class Gone: pass\n"}
    readers = [*package.values(), "from a import used\nused()\nx = 1\nx.Kept\n"]
    assert unread_definitions(package, readers, {"b.Gone"}) == ["a.unused"]


def test_every_package_definition_is_read_outside_the_tests():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [*package.values(), *(p.read_text(encoding="utf-8") for p in SCRIPTS)]
    assert unread_definitions(package, readers, UNREAD_ALLOWED | _traced()) == []


def test_scan_finds_an_unread_method():
    package = {
        "a": "class C:\n    def __init__(self): pass\n    def used(self): pass\n"
             "    def unused(self): pass\n    @property\n    def shape(self): pass\n"
             "    def traced(self): pass\n",
        "b": "def f(c):\n    c.used()\n    return c.shape\n",
    }
    assert unread_methods(package, list(package.values()), {"a.C.traced"}) == ["a.C.unused"]


def test_every_package_method_is_read_outside_the_tests():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [*package.values(), *(p.read_text(encoding="utf-8") for p in [*SCRIPTS, TRACER])]
    traced = {f"{owner}.{attr}" for _, owner, attr in _traced_entries()}
    assert unread_methods(package, readers, traced) == []


GRID_NAMES = {"flow_grid", "_on_grid", "start_geometry"}
GRID_HOMES = {"imcf"}


def _names(node) -> set[str]:
    """Every name ``node`` defines, reads or imports (by its own name), bare
    or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif isinstance(sub, (*FUNCTIONS, ast.ClassDef)):
            out.add(sub.name)
    return out


def grid_name_uses(package: dict) -> list[str]:
    """``scope: name`` of each use of a ``GRID_NAMES`` name in ``package``
    (module name -> source) outside ``GRID_HOMES``; the scope is the
    module-level definition holding the use, or the module itself."""
    uses = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            named = isinstance(node, (*FUNCTIONS, ast.ClassDef))
            scope = f"{module}.{node.name}" if named else module
            if module in GRID_HOMES or scope in GRID_HOMES:
                continue
            uses += [f"{scope}: {name}" for name in sorted(_names(node) & GRID_NAMES)]
    return uses


def test_scan_finds_a_planted_grid_name():
    package = {
        "imcf": "def flow_grid(g): pass\ndef start_geometry(p, g, z): return flow_grid(g)\n",
        "harness": "from . import imcf\n\ndef _diameter(geom, grid):\n"
                   "    return imcf._on_grid(geom, grid)\n\n"
                   "class Acc:\n    def take(self, geom):\n        return imcf.flow_grid(geom.grid)\n",
        "mass": "from .imcf import start_geometry as sg\n",
    }
    assert grid_name_uses(package) == [
        "harness._diameter: _on_grid", "harness.Acc: flow_grid", "mass: start_geometry"
    ]


def test_only_imcf_names_the_flow_grid():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert grid_name_uses(package) == []
