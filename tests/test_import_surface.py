"""The public surface resolves: every name a module exports in ``__all__``
and every function the benchmark tracer wraps.  A deleted or renamed
function fails here in a second instead of in the benchmark self-check.
No module reaches into another's private names."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import fracweyl

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(fracweyl.__file__).resolve().parent
MODULES = ["fracweyl"] + sorted(
    m.name for m in pkgutil.iter_modules(fracweyl.__path__, "fracweyl."))


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_trace_targets_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import TARGETS
    finally:
        sys.path.remove(str(BENCH))
    missing = []
    for module_name, path, name, _ in TARGETS:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert TARGETS and not missing


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found
