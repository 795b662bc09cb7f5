"""Which parts of scipy, and which BLAS libraries, a fresh process loads on each route.

Every route needs numpy and click, and no part of scipy: the builders hand a
small matrix over as an ndarray and a large one as its upper band, the dense
route decomposes a real or a complex matrix with numpy, the shift-invert
route factors, solves and multiplies through numpy's own OpenBLAS, and the
superradiant displacement is closed-form arithmetic.  So a process maps
one OpenBLAS, numpy's, which a tensor evaluation holds to one thread;
finite differences at theta != 0 (the one complex dense spectrum) are
checked for that.  The only scipy import left in the package
is the banded fallback for a numpy that exposes no OpenBLAS LAPACKE
symbols.  No matrix route loads ``numpy.ma``, which ``np.unique`` would
import, and the command-line front end and the Gaussian route load neither
``json`` nor ``configparser``.  Each test runs in a fresh interpreter, since
this process has long loaded everything.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import adicke

SRC = os.path.dirname(os.path.dirname(os.path.abspath(adicke.__file__)))

HEAVY = ("scipy", "scipy.sparse", "scipy.linalg", "scipy.sparse.linalg", "concurrent.futures")


def _last_json(code: str, **env):
    """The JSON object on the last line a fresh interpreter prints after running ``code``."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_after(code: str, modules=HEAVY) -> set[str]:
    """Which of ``modules`` are in sys.modules after a fresh interpreter runs ``code``.

    The report is printed with ``__import__("json")`` only after the check.
    """
    return set(_last_json(code + f"\nimport sys\nloaded = [m for m in {modules!r} "
                          "if m in sys.modules]\nprint(__import__('json').dumps(loaded))\n"))


GAUSSIAN_ROUTE = """
import adicke.cli
from adicke import ModelParams, SweepSpec, qfi_omega, run_sweep
p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
assert qfi_omega("cs_np", p) > 0
rows = run_sweep(SweepSpec(model="auto_cs", param="g", start=0.5, stop=1.5, points=2,
                           gamma=2.0, j=10.0, n_max=40, n_max_b=40))
assert [row.method for row in rows] == ["gaussian", "gaussian"]
"""


def test_cli_and_the_gaussian_route_load_no_scipy_submodule():
    assert _loaded_after(GAUSSIAN_ROUTE) == set()


def test_cli_and_the_gaussian_route_load_no_json_or_configparser():
    # only write_json and a --config run need them
    assert _loaded_after(GAUSSIAN_ROUTE, ("json", "configparser")) == set()


def test_matrix_routes_load_no_numpy_ma():
    # np.unique imports numpy.ma on its first call; building a piece pattern
    # does without it, both for the set-up probe's small matrix and above the limit
    assert _loaded_after("""
import adicke.cli
from adicke import FockCutoff, ModelParams, Truncation, qgt_components, qfi_omega
p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
assert qfi_omega("co_np", p, FockCutoff(8)) > 0
p = ModelParams.from_ratios(0.8, gamma=2.0, j=10.0)
comp = qgt_components("full", p, Truncation.for_spin(60, 10.0))  # a sector of dimension 641
assert comp.method == "linear_solve" and comp.qfi("omega").value > 0
""", ("numpy.ma",)) == set()


def test_small_dense_matrices_load_no_scipy_submodule():
    assert _loaded_after("""
from adicke import FockCutoff, ModelParams, Truncation, qgt_components, qfi_omega
p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
assert qfi_omega("co_np", p, FockCutoff(8)) > 0
p = ModelParams.from_ratios(0.8, gamma=2.0, j=2.0)
comp = qgt_components("full", p, Truncation.for_spin(20, 2.0))
assert comp.method == "sum_over_states" and comp.qfi("omega").value > 0
""") == set()


def test_explicit_solve_on_a_small_matrix_loads_no_scipy_submodule():
    assert _loaded_after("""
from adicke import FockCutoff, ModelParams, qfi_omega
p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
assert qfi_omega("co_np", p, FockCutoff(8), method="solve") > 0
""") == set()


def test_full_model_solve_above_the_limit_loads_no_scipy_submodule():
    assert _loaded_after("""
from adicke import ModelParams, Truncation, qgt_components
p = ModelParams.from_ratios(0.8, gamma=2.0, j=10.0)
comp = qgt_components("full", p, Truncation.for_spin(60, 10.0))  # a sector of dimension 641
assert comp.method == "linear_solve" and comp.qfi("omega").value > 0
""") == set()


def test_the_displacement_solution_loads_no_scipy_submodule():
    assert _loaded_after("""
from adicke import ModelParams, displacement_solution
p = ModelParams.from_ratios(1.25, gamma=1.0, eta=1.0, theta=0.5, j=0.5)
assert abs(displacement_solution(p).alpha) > 0  # superradiant: displaced
""") == set()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.skipif(not adicke._blas.libraries(), reason="numpy bundles no OpenBLAS")
def test_fd_route_at_nonzero_theta_maps_one_openblas_on_one_thread():
    # OPENBLAS_NUM_THREADS=2 starts the library at a count other than the scope's 1.
    # Finite differences at theta != 0 decompose complex dense matrices
    result = _last_json(f"""
import json, sys
from adicke import FockCutoff, ModelParams, Truncation, _blas, qfi_omega, spectra

def openblas_paths():
    with open("/proc/self/maps") as maps:
        return sorted({{line.split()[-1] for line in maps
                       if len(line.split()) >= 6 and "openblas" in line.split()[-1]}})

p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
assert qfi_omega("co_np", p, FockCutoff(8)) > 0
dense = openblas_paths()
p = ModelParams.from_ratios(0.9, gamma=2.0, j=5.0)
assert qfi_omega("full", p, Truncation.for_spin(60, 5.0)) > 0
banded = openblas_paths()
seen = []
gauge_fix = spectra.gauge_fix

def spy(states):
    seen.append([get() for get, _ in _blas.libraries()])
    return gauge_fix(states)

spectra.gauge_fix = spy
p = ModelParams.from_ratios(0.8, gamma=2.0, theta=0.3, j=2.0)
assert qfi_omega("full", p, Truncation.for_spin(20, 2.0), method="fd") > 0
print(json.dumps({{"dense": dense, "banded": banded, "complex": openblas_paths(),
                  "seen": seen, "heavy": [m for m in {HEAVY!r} if m in sys.modules]}}))
""", OPENBLAS_NUM_THREADS="2")
    assert len(result["dense"]) == 1
    assert result["banded"] == result["dense"]
    assert result["complex"] == result["dense"]
    assert result["heavy"] == []
    assert result["seen"]
    assert all(counts == [1] for counts in result["seen"])


def _scipy_imports(path: str) -> list[str]:
    """The function (dotted, or ``<module>``) around each scipy import in a source file."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module or ""]
            else:
                modules = []
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def test_the_banded_fallback_is_the_only_scipy_import_in_the_package():
    package = os.path.dirname(os.path.abspath(adicke.__file__))
    found = {name: _scipy_imports(os.path.join(package, name))
             for name in sorted(os.listdir(package)) if name.endswith(".py")}
    assert {name: where for name, where in found.items() if where} == {
        "_blas.py": ["_scipy_banded"]}
