"""Every public function is used by the package or a demo.

A function in a module's ``__all__`` under ``src/arbsurf`` must be called
from ``src/arbsurf`` outside its own definition, or from a demo.  Functions
that only tests call are deleted rather than kept as public API; the
exceptions below each name why the function stays, and each must still be
needed.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arbsurf"

EXCEPTIONS = {
    "dual_value": "bridge dual objective, an oracle for the bridge tests",
    "primal_value": "bridge primal objective, an oracle for the bridge tests",
    "uniform_weight": "the unweighted reference measure of the weighted norm",
    "chain_energy": "pairwise reference for chain_energy_counts; the "
                    "benchmark harness traces it",
}


def _calls(path: Path):
    """(enclosing top-level definition or None, called name) per call."""
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Name):
                    yield owner, fn.id
                elif isinstance(fn, ast.Attribute):
                    yield owner, fn.attr


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"arbsurf.{path.stem}")
        for name in getattr(mod, "__all__", ()):
            if inspect.isfunction(getattr(mod, name)):
                yield path, name


def test_every_public_function_is_used_outside_tests():
    calls = {path: list(_calls(path)) for path in
             sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))}
    unused = set()
    for home, name in _public_functions():
        if not any(called == name and not (path == home and owner == name)
                   for path, found in calls.items() for owner, called in found):
            unused.add(name)
    assert sorted(unused - set(EXCEPTIONS)) == []
    # an exception whose function has found a caller is dropped from the list
    assert sorted(set(EXCEPTIONS) - unused) == []
