import ast
import glob
import json
import os
import subprocess
import sys

import qiopa

# runs in a fresh interpreter: the test process has loaded scipy.linalg,
# scipy.special, scipy.stats and numpy.random already.  Every command (a
# montecarlo sweep and its p-value included) and one HG oracle round
# (propagator, partial traces, g1, closed-form entropies) must leave the three
# scipy modules unloaded; an eigensolved spectrum loads scipy.linalg on first
# use through scipy's lazy submodule access, and no code path loads
# scipy.special or scipy.stats (which would double the package's import time
# and add ~40 MB).  numpy.random costs every process 12 to 16 ms to import,
# so only Monte Carlo code may load it.
SCRIPT = """
import contextlib, io, json, math, sys

import numpy
eager = "numpy.random" in sys.modules   # numpy 1.x imports it with numpy
from qiopa import cli
from qiopa.amplifier import AmplifierConfig, amplify, propagate_hamiltonian
from qiopa.density import entropy, partial_trace, rho1_closed_form, rho2_closed_form
from qiopa.fock import fidelity
from qiopa.montecarlo import DetectorConfig, run
from qiopa.observables import g1_closed_form, g1_oracle
from qiopa.polarization import BlochPath, Qubit

def lazy():
    return [m for m in ("scipy.linalg", "scipy.special", "scipy.stats", "numpy.random")
            if m in sys.modules]

loaded = {"import qiopa": lazy()}
for cmd in ("pairs", "entropy", "fringe", "montecarlo"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([cmd, "--preset", "HG"])
    loaded[cmd] = lazy() + ([] if code == 0 else [f"exit {code}"])
cfg = AmplifierConfig.for_gain(1.13, 100)
q = Qubit(2 ** -0.5, 2 ** -0.5, 0.0)
run(q, cfg, DetectorConfig(pulses=1000))
loaded["run(Qubit)"] = lazy()

state = propagate_hamiltonian(q, cfg)
defect = 1.0 - fidelity(state, amplify(q, cfg))
traced = [partial_trace(state, mode) for mode in ("mode1", "mode2")]
pair = g1_oracle(q, cfg)
closed = [entropy(build(q, cfg)) for build in (rho1_closed_form, rho2_closed_form)]
loaded["oracle round"] = lazy()

oracle = entropy(traced[0])
angles = tuple(2 * math.pi * k / 8 for k in range(8))
sweep = run(BlochPath("z", angles, q), cfg, DetectorConfig(pulses=1000))
print(json.dumps({"loaded": loaded, "after": lazy(), "eager": eager,
                  "fidelity_defect": defect,
                  "g1_error": abs(pair.difference - g1_closed_form(q, cfg.gain).difference),
                  "entropy_error": abs(oracle - closed[0]),
                  "null_pvalue": sweep.null_pvalue}))
"""


def test_closed_forms_leave_scipy_linalg_and_special_unloaded():
    src = os.path.dirname(os.path.dirname(qiopa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    rand = ["numpy.random"]
    early = rand if report["eager"] else []
    assert report["loaded"] == {"import qiopa": early, "pairs": early, "entropy": early,
                                "fringe": early, "montecarlo": rand, "run(Qubit)": rand,
                                "oracle round": rand}
    # the eigensolved spectrum still runs; the sweep's p-value loads nothing
    assert report["after"] == ["scipy.linalg", "numpy.random"]
    assert report["fidelity_defect"] <= 1e-8
    assert report["g1_error"] <= 1e-9
    assert report["entropy_error"] <= 1e-12
    assert 0.0 <= report["null_pvalue"] <= 1.0


def _unused_imports(path):
    """Names a module imports and never reads, as "path:line name"."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:   # "import a.b" binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path}:{imported[name]} {name}" for name in sorted(set(imported) - read)]


def test_every_imported_name_is_read():
    # __init__.py imports to re-export, so it is left out
    package = os.path.dirname(qiopa.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    modules = [path for path in glob.glob(os.path.join(package, "*.py"))
               if os.path.basename(path) != "__init__.py"]
    modules += glob.glob(os.path.join(tests, "*.py"))
    assert len(modules) > 10
    assert [entry for path in sorted(modules) for entry in _unused_imports(path)] == []



def test_outside_numbers_are_checked_only_in_errors():
    # as_int and as_real are the one check of each kind of outside number; a
    # module that needs numbers, operator or math.isfinite is writing another
    found = set()
    for path in glob.glob(os.path.join(os.path.dirname(qiopa.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found |= {f"{os.path.basename(path)}:{node.lineno} {name}" for name in names
                      if name in ("numbers", "operator", "math.isfinite")}
    assert {entry.partition(":")[0] for entry in found} == {"errors.py"}, sorted(found)
