"""Every public function is used, and every public default is set, by the
package or a demo.

A function in a module's ``__all__`` under ``src/arbsurf`` must be called
from ``src/arbsurf`` outside its own definition, or from a demo.  Functions
that only tests call are deleted rather than kept as public API.  Likewise a
parameter with a default, of a public function or a public frozen
dataclass, must be passed a second value by some call there: an argument
that is a literal equal to the default passes none.  A parameter that only
its default reaches is a module constant instead.  The exceptions below
each name why the function or parameter stays, and each must still be
needed.

The same holds for the run config: every ``DEFAULT_CONFIG`` leaf outside
the run's input data (``seed``, ``grid`` and ``market``) must be given a
second value by a config that a run uses: a benchmark workload, the
benchmark's tiny test run, or a demo.
"""

import ast
import dataclasses
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


def _public_objects():
    """(module path, name, object) for every name in a module's ``__all__``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"arbsurf.{path.stem}")
        for name in getattr(mod, "__all__", ()):
            yield path, name, getattr(mod, name)


def _public_functions():
    for path, name, obj in _public_objects():
        if inspect.isfunction(obj):
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


# parameters no package or demo call sets, each kept because a test needs a
# second value
DEFAULT_EXCEPTIONS = {
    "tri_sinkhorn.t_max": "the oracle tests solve to 1e-11, past the default "
                          "sweep budget",
    "tri_sinkhorn.update_middle": "the shadow-price tests free the middle "
                                  "marginal, where the rhs sensitivity is "
                                  "well posed",
    "dual_value.st": "the dual-ascent test reads the dual at the stage of "
                     "every sweep",
    "primal_value.st": "the primal side of the duality-gap oracle takes the "
                       "same stage argument as dual_value",
    "gate_v2.envelope_direction": "the chain gate's negative control: linear "
                                  "growth under a nondecreasing envelope "
                                  "fails",
    "DescentConfig.trust_region_rel": "the noise-floor test switches the "
                                      "trust region off",
    "FdConfig.window_K": "the density and stencil tests use 3- and 7-point "
                         "windows",
    "FdConfig.window_tau": "the density and stencil tests use 3- and 5-point "
                           "windows",
    "FdConfig.clip_lo": "the Dupire clip, whose validation is tested and "
                        "which the Dupire certificate rework keeps",
    "FdConfig.clip_hi": "the Dupire clip, whose validation is tested and "
                        "which the Dupire certificate rework keeps",
    "FdConfig.denom_floor": "the Dupire denominator floor, whose validation "
                            "is tested and which the rework keeps",
    "projection_certificates.grid": "the certificate tests pass raw arrays "
                                    "with their grid",
    "extract_density.fd": "the tiny-grid density test needs 3-point windows",
    "AnisotropyConfig.beta_K": "the index-set tests build anisotropic sets "
                               "(orders 1 to 3)",
    "AnisotropyConfig.beta_tau": "the index-set and monotonicity tests build "
                                 "anisotropic sets (orders 1 and 2)",
}


_UNKNOWN = object()


def _literal(node):
    """The value of a literal argument, or _UNKNOWN for any other
    expression."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _UNKNOWN


def _passed(path: Path):
    """(called name, the values passed by position, the values passed by
    keyword) per call, each value ``_UNKNOWN`` unless it is a literal.  The
    positional values stop at a ``*args``; a ``**kwargs`` fails the test."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        n_args = next((i for i, a in enumerate(node.args)
                       if isinstance(a, ast.Starred)), len(node.args))
        args = [_literal(a) for a in node.args[:n_args]]
        keys = {}
        for kw in node.keywords:
            assert kw.arg is not None, \
                f"{path.name}:{node.lineno}: **kwargs hides what it passes"
            keys[kw.arg] = _literal(kw.value)
        yield name, args, keys


def _public_defaults():
    """(qualified name, parameter name, its position, its default) of every
    parameter with a default of a public function, and every defaulted init
    field of a public frozen dataclass; the position is None for a
    keyword-only one."""
    for _, name, obj in _public_objects():
        if inspect.isfunction(obj):
            params = [p for p in inspect.signature(obj).parameters.values()
                      if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
            for pos, p in enumerate(params):
                if p.default is not p.empty:
                    yield name, p.name, (None if p.kind == p.KEYWORD_ONLY
                                         else pos), p.default
        elif (dataclasses.is_dataclass(obj)
              and obj.__dataclass_params__.frozen):
            fields = [f for f in dataclasses.fields(obj) if f.init]
            for pos, f in enumerate(fields):
                if f.default is not dataclasses.MISSING:
                    yield name, f.name, pos, f.default
                elif f.default_factory is not dataclasses.MISSING:
                    yield name, f.name, pos, _UNKNOWN


def _sets(value, default) -> bool:
    """Whether an argument passes a value other than the default: any
    expression but a literal equal to the default."""
    return value is _UNKNOWN or default is _UNKNOWN or value != default


def test_every_public_default_is_set_outside_tests():
    calls = [c for path in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "demos").glob("*.py")) for c in _passed(path)]
    unset = set()
    for owner, param, pos, default in _public_defaults():
        passed = [keys[param] if param in keys else args[pos]
                  for called, args, keys in calls if called == owner
                  and (param in keys or (pos is not None and pos < len(args)))]
        if not any(_sets(value, default) for value in passed):
            unset.add(f"{owner}.{param}")
    assert sorted(unset - set(DEFAULT_EXCEPTIONS)) == []
    # an exception whose parameter has found a caller is dropped from the dict
    assert sorted(set(DEFAULT_EXCEPTIONS) - unset) == []


def test_a_literal_equal_to_the_default_sets_nothing():
    assert not _sets(8, 8)
    assert not _sets(None, None)
    assert _sets(9, 8)
    assert _sets(_UNKNOWN, 8)
    assert _sets(8, _UNKNOWN)


# the run's input data, which any run may vary
INPUT_SECTIONS = ("seed", "grid", "market")
CONFIG_CALLS = ("run_pipeline", "RunConfig", "PipelineContext")


def _module_constants(tree: ast.Module) -> dict:
    """Module-level names bound to a literal, such as a workload's chain."""
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


def _evaluate(node, constants: dict):
    """A literal that may name the module's literal constants."""
    expr = ast.Expression(node)
    return eval(compile(expr, "<config>", "eval"), {"__builtins__": {}},
                dict(constants))


def _assigned(path: Path, name: str):
    """Every value assigned to ``name`` anywhere in the file."""
    tree = ast.parse(path.read_text())
    constants = _module_constants(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            yield _evaluate(node.value, constants)


def _traffic_configs():
    """The config overrides of every run the benchmark and the demos make."""
    bench = ROOT / "perfbench"
    for workloads in _assigned(bench / "run.py", "WORKLOADS"):
        for overrides, _writes, _markets in workloads.values():
            yield overrides
    for overrides, _writes, _markets in _assigned(bench / "test_perfbench.py",
                                                  "tiny"):
        yield overrides
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in CONFIG_CALLS):
                continue
            args = node.args[:1] + [kw.value for kw in node.keywords
                                    if kw.arg == "config"]
            for arg in args:
                value = _literal(arg)
                assert value is not _UNKNOWN, \
                    f"{path.name}:{node.lineno}: the config is not a literal"
                if value is not None:
                    yield value


def _leaf_paths(tree: dict, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _lookup(tree: dict, path):
    for key in path:
        if not isinstance(tree, dict) or key not in tree:
            return _UNKNOWN
        tree = tree[key]
    return tree


def test_every_config_key_outside_the_input_data_has_traffic():
    from arbsurf.pipeline import DEFAULT_CONFIG
    configs = list(_traffic_configs())
    # the benchmark's two workloads and its tiny test run at least
    assert len(configs) >= 3
    idle = []
    for path in _leaf_paths(DEFAULT_CONFIG):
        if path[0] in INPUT_SECTIONS:
            continue
        default = _lookup(DEFAULT_CONFIG, path)
        values = [_lookup(cfg, path) for cfg in configs]
        if not any(v is not _UNKNOWN and v != default for v in values):
            idle.append("/".join(path))
    assert idle == [], f"no run sets {idle}: make each a module constant"
