"""Which parts of scipy a fresh process loads on each route.

The exact Gaussian route and the command-line front end need numpy and
click only; ``scipy.sparse`` comes in with the first truncated matrix and
``scipy.linalg`` / ``scipy.sparse.linalg`` with the first shift-invert
solve.  Each test runs in a fresh interpreter, since this process has long
loaded everything.
"""

import json
import os
import subprocess
import sys

import adicke

SRC = os.path.dirname(os.path.dirname(os.path.abspath(adicke.__file__)))

HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg", "concurrent.futures")


def _loaded_after(code: str) -> set[str]:
    """The HEAVY modules in sys.modules after a fresh interpreter runs ``code``."""
    script = (code + "\nimport json, sys\n"
              f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_cli_and_the_gaussian_route_load_no_scipy_submodule():
    assert _loaded_after("""
import adicke.cli
from adicke import ModelParams, SweepSpec, qfi_omega, run_sweep
p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
assert qfi_omega("cs_np", p) > 0
rows = run_sweep(SweepSpec(model="auto_cs", param="g", start=0.5, stop=1.5, points=2,
                           gamma=2.0, j=10.0, n_max=40, n_max_b=40))
assert [row.method for row in rows] == ["gaussian", "gaussian"]
""") == set()


def test_small_dense_matrix_loads_sparse_but_no_solver():
    loaded = _loaded_after("""
from adicke import FockCutoff, ModelParams, qfi_omega
p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
assert qfi_omega("co_np", p, FockCutoff(8)) > 0
""")
    assert "scipy.sparse" in loaded
    assert loaded.isdisjoint({"scipy.linalg", "scipy.sparse.linalg"})


def test_full_model_solve_loads_the_solvers():
    loaded = _loaded_after("""
from adicke import ModelParams, Truncation, qfi_omega
p = ModelParams.from_ratios(0.8, gamma=2.0, j=3.0)
assert qfi_omega("full", p, Truncation.for_spin(20, 3.0), method="solve") > 0
""")
    assert {"scipy.sparse", "scipy.linalg", "scipy.sparse.linalg"} <= loaded
