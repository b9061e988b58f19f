"""Every public name of quenchlab is used by the program.

Each module's `__all__` names must resolve, and each must occur as a
name in src/quenchlab somewhere other than its own `def` or `class`
line (the `__all__` entries are strings and do not count).  A public
function that nothing in the package calls fails here unless the
allowlist below names it with its reason.  Every name the benchmark
tracer wraps is one the program looks up on that module when it calls
it, or is allowlisted with its reason.

Every banded solve goes through `mesh.solve_banded`: no module imports
a solver from scipy.linalg, and `dynamics` and `steady` look the kernel
up under that name (the benchmark tracer wraps it there).  The CLI runs
without importing scipy.linalg at all: `mesh` loads LAPACK dgtsv from its
extension file, which is the routine scipy.linalg.lapack exports.  In
`steady`, the operator G and its Jacobian are used only by the curve kit
`_Curve`, whose corrector is the one Newton, and by the eigen solve;
only `minimal_states` and the one branch walk `_walk` call that corrector.
Only `_Curve` builds the Laplacian bands and evaluates f, so every eigen
solve of a state runs on its curve's operator.
That corrector takes the roundoff floor of a residual from the one
`mesh.residual_floor`, and `steady` raises nothing to a constant power
above 2, which numpy takes by libm pow per element.  The
profile's Hoelder constant is read only by the large-lam sandwich, and
only `mesh` forms quadrature weights (no other module calls `sphere_area`).
Only `dynamics.detect_quench` builds a `QuenchReport`, and the touchdown
report takes `RateFit`'s fields by name.
Every solver fault is a `csvio.SolverFailure`, and only `cli.main`
turns a failure into an exit code.  Each config section's and kind's keys
are its constructor's fields, so a renamed field renames the key, and one
reader, `cli._build`, reads every section.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import quenchlab

SRC = Path(quenchlab.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(quenchlab.__path__))

# public names that nothing in src/quenchlab calls, and why they stay
ALLOWED_UNREFERENCED = {
    ("bounds", "blowup_time_F"): "the near-fold passage time that ROADMAP item 3 will report",
}

TRACING = SRC.parent.parent / "perfbench" / "tracing.py"
# tracer targets that no call in src/quenchlab looks up on their module, and why they stay
ALLOWED_UNTRACED = {
    ("quenchlab.bounds", "build_mesh"): "imported only for the tracer; a benchmark change drops it (ROADMAP item 7)",
    ("quenchlab.mesh", "laplacian_bands"): "dynamics and steady bind it at import; the tracer wraps those too",
    ("quenchlab.profiles", "holder_constant"): "bounds binds it at import; the tracer wraps that too",
}


@functools.lru_cache(maxsize=None)
def references():
    """Occurrences of each name token in src/quenchlab, definitions excluded."""
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        previous = None
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    counts[tok.string] = counts.get(tok.string, 0) + 1
                previous = tok.string
    return counts


@pytest.mark.parametrize("modname", MODULES)
def test_public_names_resolve_and_are_used(modname):
    mod = importlib.import_module("quenchlab." + modname)
    unused = []
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), "quenchlab.%s.__all__ lists %s, which it lacks" % (modname, name)
        if not references().get(name) and (modname, name) not in ALLOWED_UNREFERENCED:
            unused.append(name)
    assert not unused, "quenchlab.%s exports names nothing uses: %s" % (modname, ", ".join(unused))


def test_allowlist_is_current():
    # an allowlisted name that the package now uses, or no longer exports, leaves the list
    for (modname, name), reason in ALLOWED_UNREFERENCED.items():
        mod = importlib.import_module("quenchlab." + modname)
        assert name in mod.__all__, (modname, name)
        assert not references().get(name), "%s.%s is used now (%s)" % (modname, name, reason)


def tracer_targets():
    """The (module, attribute) pairs in the TARGETS table of perfbench/tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return {site for sites in ast.literal_eval(node.value).values() for site in sites}
    raise AssertionError("perfbench/tracing.py has no TARGETS table")


def attribute_calls():
    """(module, name) pairs that a call in src/quenchlab looks up on the module
    at call time: a module calling its own global `name`, or a function that
    does `from .module import name` and then calls it."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = set()
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own.add(top.name)
            elif isinstance(top, (ast.Import, ast.ImportFrom)):
                own.update(alias.asname or alias.name for alias in top.names)
            elif isinstance(top, ast.Assign):
                own.update(t.id for t in top.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in own:
                found.add(("quenchlab." + path.stem, node.func.id))
            if isinstance(node, ast.FunctionDef):
                imported = {alias.asname or alias.name: ("quenchlab." + imp.module, alias.name)
                            for imp in ast.walk(node)
                            if isinstance(imp, ast.ImportFrom) and imp.level == 1 and imp.module
                            for alias in imp.names}
                found.update(imported[call.func.id] for call in ast.walk(node)
                             if isinstance(call, ast.Call) and getattr(call.func, "id", None) in imported)
    return found


def test_tracer_targets_are_on_the_program_path():
    # a wrapper on an attribute that no call looks up never records a span
    unresolved = tracer_targets() - attribute_calls()
    assert unresolved == set(ALLOWED_UNTRACED), unresolved ^ set(ALLOWED_UNTRACED)


def test_one_banded_solve_path():
    from quenchlab import dynamics, mesh, steady

    assert dynamics.solve_banded is mesh.solve_banded
    assert steady.solve_banded is mesh.solve_banded
    # only the kernel's own LAPACK routines come from scipy.linalg
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.linalg"):
                imports += [(path.stem, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imports += [(path.stem, alias.name, None) for alias in node.names
                            if alias.name.startswith("scipy.linalg")]
    assert imports == [("mesh", "scipy.linalg.lapack", "dgtsv"), ("mesh", "scipy.linalg.lapack", "dptsv")]


# run in a fresh interpreter: other tests import scipy.linalg into this one
_CLI_WITHOUT_SCIPY_LINALG = """
import sys
from quenchlab import cli, mesh
assert cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
import scipy.linalg.lapack
assert mesh.dgtsv is scipy.linalg.lapack.dgtsv
assert mesh.dptsv is scipy.linalg.lapack.dptsv
"""


def test_cli_runs_without_scipy_linalg(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node_count": 101, "lambda": 10.0}))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _CLI_WITHOUT_SCIPY_LINALG, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "out" / "quench.json").exists()


def test_one_steady_newton():
    # minimal_states and the branch walk reach G = 0 through _Curve.correct
    callers = set()
    for top in ast.parse((SRC / "steady.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_residual", "_jacobian"):
                callers.add(top.name)
    assert callers <= {"_Curve", "linearized_eigenpair"}, callers


def test_one_steady_operator_build():
    # linearized_eigenpair takes the Laplacian and f from the _Curve it is given
    callers = set()
    for top in ast.parse((SRC / "steady.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("laplacian_bands", "_interior_forcing"):
                callers.add(top.name)
    assert callers == {"_Curve"}, callers


def test_one_branch_walk():
    # continue_branch and locate_fold walk the branch through _walk, and
    # minimal_states is the corrector at fixed lam; nothing else corrects
    callers = set()
    for top in ast.parse((SRC / "steady.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "correct":
                callers.add(top.name)
    assert callers == {"minimal_states", "_walk"}, callers


def test_steady_takes_no_power_above_the_square():
    # numpy squares in a fast path, but a cube costs a libm pow per element
    # (16.6 against 5.0 us for np.square(gap) * gap at 6000 values)
    powers = []
    for node in ast.walk(ast.parse((SRC / "steady.py").read_text())):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            exponent = node.value
        else:
            continue
        value = getattr(exponent, "value", None)
        if type(value) in (int, float) and value >= 3 and float(value).is_integer():
            powers.append((node.lineno, ast.unparse(node)))
    assert not powers, powers


def call_sites(name):
    """(module, top-level definition) pairs in src/quenchlab that call `name`,
    as a bare name or as an attribute."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    callers.add((path.stem, top.name))
    return callers


def test_one_holder_sampling():
    # K is read in bounds.large_lambda_bounds and nowhere else
    callers = call_sites("holder_constant")
    assert callers == {("bounds", "large_lambda_bounds")}, callers


def test_one_quench_report_build():
    # detect_quench alone builds the report, and the touchdown report takes
    # RateFit's fields by name from one **vars(rate_fit(...)), so a field
    # that RateFit gains or renames reaches quench.json as it is
    from quenchlab.dynamics import QuenchReport, RateFit

    callers = call_sites("QuenchReport")
    assert callers == {("dynamics", "detect_quench")}, callers
    fields = [{f.name for f in dataclasses.fields(cls)} for cls in (RateFit, QuenchReport)]
    assert fields[0] <= fields[1], fields[0] - fields[1]
    keywords = [(kw.arg, ast.unparse(kw.value)) for node in ast.walk(ast.parse((SRC / "dynamics.py").read_text()))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "QuenchReport"
                for kw in node.keywords]
    assert len(keywords) == 1 and keywords[0][0] is None and keywords[0][1].startswith("vars(rate_fit("), keywords


def test_one_quadrature_rule():
    # the trapezoid rule, and on a ball its sphere area r^(N-1), is formed in
    # mesh.trapezoid_weights alone; selfsim's energy weighs its y-grid with it
    callers = call_sites("sphere_area")
    assert callers == {("mesh", "trapezoid_weights")}, callers


def test_one_residual_floor():
    # the steady corrector takes its roundoff floor from mesh.residual_floor
    # (the Crank-Nicolson stage is one linearized update and tests no
    # residual); only it and the eigen solve's own floor read eps
    callers = call_sites("residual_floor")
    assert callers == {("steady", "_Curve")}, callers
    readers = call_sites("finfo")
    assert readers == {("mesh", "residual_floor"), ("steady", "smallest_eigenvalue_bands")}, readers


def test_one_solver_failure_type():
    from quenchlab import csvio, dynamics, steady

    faults = [getattr(mod, name) for mod in (steady, dynamics) for name in mod.__all__]
    faults = [cls for cls in faults if isinstance(cls, type) and issubclass(cls, RuntimeError)]
    assert len(faults) == 5
    assert all(issubclass(cls, csvio.SolverFailure) for cls in faults), faults


def test_config_kinds_take_their_constructors_fields():
    # cli reads every config section, and a kind's keys, defaults and value
    # types, off its constructor's signature: that signature is the
    # constructor's fields (the table loader takes a path), each field's type
    # has a reader, and the default geometry and profile of DEFAULTS are the
    # constructors' defaults; time and rescale name no kind
    from quenchlab import cli

    assert set(cli.KINDS) == {"geometry", "profile", "time", "rescale"}
    for section, kinds in cli.KINDS.items():
        if not isinstance(kinds, dict):
            kinds = {None: kinds}
        for kind, ctor in kinds.items():
            params = inspect.signature(ctor, eval_str=True).parameters
            fields = [f.name for f in dataclasses.fields(ctor)] if dataclasses.is_dataclass(ctor) else ["path"]
            assert list(params) == fields, (section, kind)
            assert all(p.annotation in cli._READERS for p in params.values()), (section, kind)
        default = dict(cli.DEFAULTS.get(section, {}))
        if default:
            params = inspect.signature(kinds[default.pop("kind")]).parameters
            assert default == {name: p.default for name, p in params.items()}, section
    assert cli.DEFAULTS["time"] == {}


def test_one_config_reader():
    # _build is the one function that turns a config section into an object:
    # no other function in cli calls a section's constructor or a kind's
    from quenchlab import cli

    ctors = {"TimeConfig", "RescaleConfig"} | {ctor.__name__ for kinds in cli.KINDS.values()
                                               if isinstance(kinds, dict) for ctor in kinds.values()}
    callers = {top for name in ctors for mod, top in call_sites(name) if mod == "cli"}
    assert callers == set(), callers


def test_exit_codes_set_in_main_only():
    # cli catches solver faults as SolverFailure alone, and maps failures to codes in main
    tree = ast.parse((SRC / "cli.py").read_text())
    users = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id.startswith("EXIT_"):
                users.add((getattr(top, "name", None), node.id))
    assert users == {("main", code) for code in ("EXIT_OK", "EXIT_CONFIG", "EXIT_SOLVER", "EXIT_MISSING")}, users
    with open(SRC / "cli.py", "rb") as fh:
        named = {tok.string for tok in tokenize.tokenize(fh.readline) if tok.type == tokenize.NAME}
    faults = {"StepFailure", "IterationLimit", "NewtonFailure", "StepUnderflow", "StepLimit"}
    assert not named & faults, named & faults
