"""The public surface resolves: every name a module exports in ``__all__``
and every function the benchmark tracer wraps.  A deleted or renamed
function fails here in a second instead of in the benchmark self-check.
No public function of the coefficient or lattice modules takes a model
beside its order.  Every export of every module of the package, and every
public method and property of its classes, has a caller outside the tests
or is wrapped by the benchmark tracer.  No module reaches into another's
private names, and no module, script or test imports a name it does not
use.  The command-line import leaves scipy and the lattice unloaded."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracweyl

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = Path(fracweyl.__file__).resolve().parent
MODULES = ["fracweyl"] + sorted(
    m.name for m in pkgutil.iter_modules(fracweyl.__path__, "fracweyl."))
SOURCES = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _trace_targets():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import TARGETS
    finally:
        sys.path.remove(str(BENCH))
    return TARGETS


def test_trace_targets_resolve():
    targets = _trace_targets()
    missing = []
    for module_name, path, name, _ in targets:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert targets and not missing


def _public_members(cls):
    """Names of the public methods and properties a class defines."""
    return [name for name, obj in vars(cls).items() if not name.startswith("_")
            and (inspect.isfunction(obj) or isinstance(obj, property))]


@pytest.mark.parametrize("module_name", MODULES)
def test_exports_have_a_caller(module_name):
    # every export, and every public method and property of a public
    # class, is read by the library or a script (a member through an
    # attribute), or wrapped by the benchmark tracer: none is reached by
    # tests alone
    names, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    traced = {path for traced_module, path, _, _ in _trace_targets()
              if traced_module == module_name}
    module = importlib.import_module(module_name)
    unread = [n for n in getattr(module, "__all__", ())
              if n not in names | attributes | traced]
    for name, obj in vars(module).items():
        if (inspect.isclass(obj) and obj.__module__ == module_name
                and not name.startswith("_")):
            unread += [f"{name}.{m}" for m in _public_members(obj)
                       if m not in attributes and f"{name}.{m}" not in traced]
    assert not unread


@pytest.mark.parametrize("module_name", ["fracweyl.constants", "fracweyl.lattice"])
def test_order_has_one_owner(module_name):
    # the order is the only input a coefficient route or a lattice check
    # takes: no public function or method accepts a model that could
    # carry another order
    module = importlib.import_module(module_name)
    functions = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
            continue
        if inspect.isclass(obj):
            functions += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                          if not m.startswith("_") and inspect.isfunction(f)]
        elif inspect.isfunction(obj):
            functions.append((name, obj))
    assert functions
    assert not [n for n, f in functions if "model" in inspect.signature(f).parameters]


@pytest.mark.parametrize("modules, absent", [
    # the command line imports the lattice, and scipy with it, only inside
    # the lattice commands
    ("fracweyl.cli", ("scipy", "fracweyl.lattice")),
    # scipy serves the lattice alone; scipy.interpolate is a test oracle of
    # the half-line engine's numpy PCHIP, not a dependency
    ("fracweyl.constants, fracweyl.localization", ("scipy",)),
    # the parity blocks are applied by matrix products, not scipy's FFT
    ("fracweyl.lattice", ("scipy.fft",)),
])
def test_fresh_import_leaves_scipy_out(modules, absent):
    probe = (f"import sys, {modules}; print(sorted(m for m in sys.modules if any("
             f"m == p or m.startswith(p + '.') for p in {absent!r})))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _unused_imports(tree):
    """Imported names a module neither reads nor lists in ``__all__``.
    ``import a.b`` counts as used only where ``a.b`` itself is read."""
    used = set()
    for node in ast.walk(tree):
        dotted = _dotted(node)
        if dotted:
            parts = dotted.split(".")
            used.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for a in node.names if (a.asname or a.name) not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert not _unused_imports(ast.parse(path.read_text()))
