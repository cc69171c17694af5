"""scipy is imported only on the quadrature paths, numpy with ``lovasz`` and
``montecarlo`` only off the exact polynomial paths, the CLI parser only on
the first command, and ``dataclasses`` never, checked in fresh interpreters:
a test process has usually loaded all of them already.  The package defines
nothing that only tests reach."""

import ast
import json
import types
from fractions import Fraction
from pathlib import Path

import pytest

import ordinfluence

from conftest import run_fresh
from test_readme import BLOCKS as README_BLOCKS

# Runs cli.main on each (name, argv) pair of the JSON list in argv[1], with
# stdout captured, and records whether scipy was loaded after each run.
CLI_RUNS = """
import contextlib, io, json, sys
from ordinfluence import cli
loaded = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[name] = "scipy" in sys.modules
print(json.dumps(loaded))
"""

# Like CLI_RUNS, for the tuple of module names formatted in for %r: records
# which of them were loaded after each run.
MODULE_RUNS = """
import contextlib, io, json, sys
from ordinfluence import cli
loaded = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[name] = [m for m in %r if m in sys.modules]
print(json.dumps(loaded))
"""

# The modules that load numpy, none of which an exact polynomial command needs.
NUMPY_MODULES = ("numpy", "ordinfluence.lovasz", "ordinfluence.montecarlo")
NUMPY_RUNS = MODULE_RUNS % (NUMPY_MODULES,)

# dataclasses, which generates a record's methods when its class is defined,
# and inspect, which it imports; the package's records are plain classes.
CODEGEN_MODULES = ("dataclasses", "inspect")

PLAIN_DOC = {
    "kind": "plain-polynomial", "arity": 3, "constant": "1/3",
    "terms": [{"coefficient": "3/2", "exponents": {"2": 1}},
              {"coefficient": "-1", "exponents": {"3": 2, "1": 1}}]}

ORDERSTAT_DOC = {
    "kind": "orderstat-polynomial", "arity": 4, "constant": "-1/2",
    "terms": [{"coefficient": "2/3", "exponents": {"1": 2, "4": 1}},
              {"coefficient": "5", "exponents": {"3": 3}}]}

# The quad_vec fallback of multiplicative_indices, reached by a callable
# factor and by a symbolic product above a lowered PRODUCT_FORM_LIMIT, next
# to the exact product form of the same functions.
FALLBACK = """
import json, sys
from fractions import Fraction
from ordinfluence import closedforms, exact
from ordinfluence.closedforms import MultiplicativeSpec, UnaryFactor
before = "scipy" in sys.modules
cube_root = UnaryFactor.from_callable(
    lambda t: t ** (1 / 3), antiderivative=lambda y: 0.75 * y ** (4 / 3))
callable_values = closedforms.multiplicative_indices(
    MultiplicativeSpec.symmetric(cube_root, 6))
after_callable = "scipy" in sys.modules
cs = [Fraction(c, 3) for c in (1, 2, 4, 5, 0, 3)]
symbolic = MultiplicativeSpec(6, tuple(UnaryFactor.power(c) for c in cs))
import scipy.integrate
resolves = closedforms.integrate is scipy.integrate
calls, quad_vec = [], scipy.integrate.quad_vec
scipy.integrate.quad_vec = lambda *a, **kw: calls.append(1) or quad_vec(*a, **kw)
limit, exact.PRODUCT_FORM_LIMIT = exact.PRODUCT_FORM_LIMIT, 10
fallback_values = closedforms.multiplicative_indices(symbolic)
exact.PRODUCT_FORM_LIMIT = limit
print(json.dumps({
    "before": before, "after_callable": after_callable,
    "resolves": resolves, "fallback_quad_vec_calls": len(calls),
    "callable": callable_values, "fallback": fallback_values,
    "exact_callable": [str(v) for v in exact.product_indices([Fraction(1, 3)] * 6)],
    "exact_fallback": [str(v) for v in exact.product_indices(cs)]}))
"""


def write_spec(tmp_path, name, doc):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    return str(path)


def test_package_import_leaves_scipy_out():
    loaded = json.loads(run_fresh("-c", """
import json, sys
import ordinfluence
package = "scipy" in sys.modules
import ordinfluence.cli
print(json.dumps([package, "scipy" in sys.modules]))
""").stdout)
    assert loaded == [False, False]


def test_exact_mc_and_closed_form_commands_leave_scipy_out(tmp_path):
    plain = write_spec(tmp_path, "plain", {
        "kind": "plain-polynomial", "arity": 3, "constant": "1/3",
        "terms": [{"coefficient": "3/2", "exponents": {"2": 1}},
                  {"coefficient": "-1", "exponents": {"3": 2, "1": 1}}]})
    setfn = write_spec(tmp_path, "setfn", {
        "kind": "set-function", "arity": 3,
        "values": [str(Fraction(i * 7 % 11, 5)) for i in range(8)]})
    power = write_spec(tmp_path, "power", {
        "kind": "power-product", "arity": 4, "exponent": "2/3"})
    runs = [
        ("plain-exact", ["influence", plain, "--all", "--method", "exact"]),
        ("plain-approx", ["approx", plain, "--method", "exact"]),
        ("lovasz", ["lovasz", setfn, "--mobius", "--symmetric-part",
                    "--diagnose-equal-influence"]),
        ("setfn-approx", ["approx", setfn, "--method", "exact"]),
        ("mc-approx", ["approx", plain, "--method", "mc", "--samples", "2000",
                       "--seed", "1"]),
        ("power-product-approx", ["approx", power, "--method", "closed-form"]),
    ]
    loaded = json.loads(run_fresh("-c", CLI_RUNS, json.dumps(
        [(name, argv + ["--format", "json"]) for name, argv in runs])).stdout)
    assert loaded == {name: False for name, _ in runs}


def test_quad_vec_fallback_loads_scipy_and_matches_exact_form():
    out = json.loads(run_fresh("-c", FALLBACK).stdout)
    assert not out["before"] and out["after_callable"] and out["resolves"]
    assert out["fallback_quad_vec_calls"] == 1
    for got, want in ((out["callable"], out["exact_callable"]),
                      (out["fallback"], out["exact_fallback"])):
        assert len(got) == len(want) == 6
        for value, exact in zip(got, want):
            assert abs(value - float(Fraction(exact))) <= 1e-9 * abs(float(Fraction(exact)))


def test_cli_import_builds_no_parser():
    builds = json.loads(run_fresh("-c", """
import contextlib, io, json
from ordinfluence import cli
builds = [cli._build_parser.cache_info().misses]
for _ in range(2):
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["influence", "/no/such/spec.json", "--all"]) == 2
    builds.append(cli._build_parser.cache_info().misses)
print(json.dumps(builds))
""").stdout)
    assert builds == [0, 1, 1]


def test_all_names_the_public_bindings():
    # every public name the package binds, submodules aside, is exported,
    # and every exported name is bound; a lazy name is bound once touched
    for name in ordinfluence.__all__:
        getattr(ordinfluence, name)
    bound = {name for name, value in vars(ordinfluence).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(set(ordinfluence.__all__)) == len(ordinfluence.__all__)
    assert set(ordinfluence.__all__) == bound | {"__version__"}
    namespace = {}
    exec("from ordinfluence import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ordinfluence.__all__)


def test_package_import_leaves_numpy_out():
    loaded = json.loads(run_fresh("-c", """
import json, sys
import ordinfluence
package = [m for m in %r if m in sys.modules]
import ordinfluence.cli
print(json.dumps([package, [m for m in %r if m in sys.modules]]))
""" % (NUMPY_MODULES, NUMPY_MODULES)).stdout)
    assert loaded == [[], []]


def test_exact_polynomial_commands_leave_numpy_out(tmp_path):
    plain = write_spec(tmp_path, "plain", PLAIN_DOC)
    orderstat = write_spec(tmp_path, "orderstat", ORDERSTAT_DOC)
    specs = [("plain", plain), ("orderstat", orderstat)]
    for name, n in (("min", 5), ("median", 20), ("variance", 9),
                    ("product", 6)):
        specs.append((name, write_spec(tmp_path, name, {
            "kind": "builtin", "name": name, "arity": n})))
    exact_runs = []
    for name, path in specs:
        exact_runs.append((name + "-influence",
                           ["influence", path, "--all", "--method", "exact"]))
        exact_runs.append((name + "-approx",
                           ["approx", path, "--method", "exact"]))
    setfn = write_spec(tmp_path, "setfn", {
        "kind": "set-function", "arity": 3,
        "values": [str(Fraction(i * 7 % 11, 5)) for i in range(8)]})
    power = write_spec(tmp_path, "power", {
        "kind": "power-product", "arity": 4, "exponent": "2/3"})
    # then, in the same process, each other path loads what it needs
    later_runs = [
        ("setfn-approx", ["approx", setfn, "--method", "exact"]),
        ("lovasz", ["lovasz", setfn, "--mobius"]),
        ("power-product-approx", ["approx", power, "--method", "closed-form"]),
        ("mc-approx", ["approx", plain, "--method", "mc", "--samples", "2000",
                       "--seed", "1"]),
    ]
    runs = exact_runs + later_runs
    loaded = json.loads(run_fresh("-c", NUMPY_RUNS, json.dumps(
        [(name, argv + ["--format", "json"]) for name, argv in runs])).stdout)
    assert loaded == {**{name: [] for name, _ in exact_runs},
                      **{name: list(NUMPY_MODULES) for name, _ in later_runs}}


def test_cli_loads_no_dataclasses(tmp_path):
    # neither the import nor an exact command on a polynomial loads them
    runs = []
    for name, doc in (("plain", PLAIN_DOC), ("orderstat", ORDERSTAT_DOC)):
        path = write_spec(tmp_path, name, doc)
        runs.append((name + "-influence",
                     ["influence", path, "--all", "--method", "exact"]))
        runs.append((name + "-approx", ["approx", path, "--method", "exact"]))
    # sys.modules only grows: what no run loaded, the import did not load
    loaded = json.loads(run_fresh("-c", MODULE_RUNS % (CODEGEN_MODULES,),
                                  json.dumps(runs)).stdout)
    assert loaded == {name: [] for name, _ in runs}


def test_no_package_module_imports_dataclasses():
    importers = []
    for path in sorted(Path(ordinfluence.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.append("%s:%d" % (path.name, node.lineno))
    assert not importers, importers


def test_lazy_names_are_the_defining_modules_objects():
    out = json.loads(run_fresh("-c", """
import json, sys
import ordinfluence
listed = set(ordinfluence.__all__) <= set(dir(ordinfluence))
lazy = sorted(set(ordinfluence.__all__) - set(vars(ordinfluence)))
same, bound = [], []
for name in lazy:
    value = getattr(ordinfluence, name)
    module = sys.modules[value.__module__]
    same.append([value.__module__, getattr(module, name) is value])
    bound.append(vars(ordinfluence)[name] is value)
print(json.dumps({"listed": listed, "lazy": lazy, "same": same,
                  "bound": all(bound),
                  "unknown": hasattr(ordinfluence, "no_such_name")}))
""").stdout)
    lazy_modules = {"ordinfluence.lovasz", "ordinfluence.montecarlo"}
    assert out["listed"] and out["bound"] and not out["unknown"]
    assert {"mobius", "SetFunction", "Evaluator", "derive_seed"} <= set(out["lazy"])
    assert all(module in lazy_modules and same for module, same in out["same"])
    # every exported name that those modules define is lazy
    for name in ordinfluence.__all__:
        value = getattr(ordinfluence, name)
        if getattr(value, "__module__", None) in lazy_modules:
            assert name in out["lazy"], name


@pytest.mark.parametrize("argv", [["--version"],
                                  ["influence", "/no/such/spec.json", "--all"]],
                         ids=["version", "bad-spec-path"])
def test_python_m_ordinfluence_runs_the_cli(argv):
    package, cli = (run_fresh("-m", module, *argv)
                    for module in ("ordinfluence", "ordinfluence.cli"))
    assert ((package.returncode, package.stdout, package.stderr)
            == (cli.returncode, cli.stdout, cli.stderr))
    assert package.returncode == (0 if argv == ["--version"] else 2)
    assert package.stdout + package.stderr


def _names_used(node):
    """Every name, attribute, imported name and identifier-like string
    constant under ``node``: ``cli.ESTIMATORS`` names estimators by string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            yield sub.value


def test_every_src_definition_has_a_package_caller():
    # a top-level function or class that no package module names outside its
    # own body is test-only code, unless a README python block names it and
    # __all__ exports it; __init__'s re-exports call nothing
    readme = {name for block in README_BLOCKS
              for name in _names_used(ast.parse(block))}
    used = set(ordinfluence.__all__) & readme
    defined = []
    for path in sorted(Path(ordinfluence.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = set(_names_used(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append("%s.%s" % (path.stem, node.name))
                names.discard(node.name)
            if path.stem != "__init__":
                used |= names
    used |= {"__getattr__", "__dir__"}  # module hooks, called by Python
    unused = [name for name in defined if name.rpartition(".")[2] not in used]
    assert not unused, unused
