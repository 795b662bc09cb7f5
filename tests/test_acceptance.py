"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 6 is split into its two halves.  The classical-spin half
checks that the two-mode limit prefers one coupling (a strictly monotone,
gamma -> 1/gamma asymmetric ladder) against the exact Gaussian ground state;
which coupling it prefers is reported, not asserted, because the abstract's
rotating-wave preference is not settled for this limit (see the README).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

from adicke import (FockCutoff, ModelParams, SweepSpec, Truncation,
                    bogoliubov_modes, berry_curvature_np, berry_curvature_sp,
                    dense_eigensystem, full_hamiltonian, qgt_components,
                    qgt_finite_difference, qfi_omega, ratio_scan, rows_to_csv, run_sweep)
from adicke.effective import cs_normal_form
from adicke.families import ground_pair, photon_number_diagonal
from adicke.model import as_dense
from adicke.squeezed import squeezed_family_builder
from operators import parity_operator


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


GRID_G = (0.2, 0.5, 0.8)
GRID_GAMMA = (0.5, 1.0, 2.0, 4.0)


def _grid_points():
    for g in GRID_G:
        for gamma in GRID_GAMMA:
            yield ModelParams.from_ratios(g, gamma=gamma, eta=1.0, theta=0.3, j=5.0)


def _rel(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def test_c01_cross_method_agreement():
    start = time.monotonic()
    trunc = Truncation.for_spin(30, 5.0, "positive")
    labels = ("omega", "theta")
    worst = 0.0
    for p in _grid_points():
        tensors = [qgt_components("full", p, trunc, labels=labels, method=m)
                   for m in ("sum", "solve", "fd")]
        for i in range(3):
            for k in range(i + 1, 3):
                for idx in ((0, 0), (1, 1), (1, 0)):
                    worst = max(worst, _rel(tensors[i].q[idx], tensors[k].q[idx]))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 120.0
    assert report("01 cross-method agreement", ok,
                  f"12-point grid, worst pairwise rel diff {worst:.2e}, {elapsed:.0f}s")


def test_c02_theta_generator_identity():
    trunc = Truncation.for_spin(30, 5.0, "positive")
    nd = photon_number_diagonal("full", trunc)
    worst = 0.0
    for p in _grid_points():
        comp = qgt_components("full", p, trunc, labels=("theta",), method="sum")
        _, psi, _ = ground_pair("full", p, trunc)
        probs = np.abs(psi) ** 2
        variance = float((probs * nd**2).sum() - (probs * nd).sum() ** 2)
        worst = max(worst, abs(comp.q[0, 0].real - variance))
    ok = worst < 1e-8
    assert report("02 theta-generator identity", ok,
                  f"max |Q_tt - Var(n)| = {worst:.2e}")


def test_c03_parity_and_theta_spectrum():
    trunc = Truncation.for_spin(20, 3.0, "full")
    worst_comm = 0.0
    rng = np.random.default_rng(41)
    for _ in range(3):
        p = ModelParams.from_ratios(rng.uniform(0.2, 1.4), gamma=rng.uniform(0.5, 3),
                                    eta=rng.uniform(0.5, 2), theta=rng.uniform(0, 6),
                                    j=3.0)
        h = as_dense(full_hamiltonian(p, trunc))
        pi = parity_operator(trunc).toarray()
        worst_comm = max(worst_comm, float(np.max(np.abs(h @ pi - pi @ h))))
    spectra = []
    for theta in (0.0, 1.1):
        p = ModelParams.from_ratios(0.8, gamma=2.0, eta=1.0, theta=theta, j=3.0)
        spectra.append(np.linalg.eigvalsh(as_dense(full_hamiltonian(p, trunc))))
    drift = float(np.max(np.abs(spectra[0] - spectra[1])))
    ok = worst_comm < 1e-12 and drift < 1e-9
    assert report("03 parity + theta-spectrum invariance", ok,
                  f"max |[H,Pi]| = {worst_comm:.2e}, spectral drift {drift:.2e}")


def test_c04_critical_gap_law():
    gaps_exact = []
    for g in (0.3, 0.6, 0.9, 0.99):
        p = ModelParams.from_ratios(g, gamma=1.0, eta=1.0, j=5.0)
        gaps_exact.append(abs(bogoliubov_modes(cs_normal_form(p)).gap
                              - math.sqrt(1.0 - g)))
    closeness = max(gaps_exact)
    slopes = []
    gs = 1.0 - np.geomspace(1e-3, 0.1, 12)
    for gamma in (1.0, 2.0):
        gaps = [bogoliubov_modes(cs_normal_form(
            ModelParams.from_ratios(float(g), gamma=gamma, eta=1.0, j=5.0))).gap
            for g in gs]
        slope = np.polyfit(np.log(1.0 - gs), np.log(gaps), 1)[0]
        slopes.append(float(slope))
    ok = closeness < 1e-12 and all(abs(s - 0.5) <= 0.02 for s in slopes)
    assert report("04 critical gap law", ok,
                  f"|gap - sqrt(1-g)| <= {closeness:.1e}, log-log slopes {slopes}")


def test_c05_one_mode_coupling_symmetry():
    worst = 0.0
    for g in (0.9, 0.99):
        for gamma in (2.0, 3.0, 5.0):
            vals = []
            for ratio in (gamma, 1.0 / gamma):
                p = ModelParams.from_ratios(g, gamma=ratio, eta=1.0, j=10.0)
                vals.append(qfi_omega("co_np", p, FockCutoff(70), method="sum"))
            worst = max(worst, abs(vals[0] - vals[1]))
    ok = worst < 1e-8
    assert report("05 one-mode coupling symmetry", ok,
                  f"max |I(gamma) - I(1/gamma)| = {worst:.2e}")


GAMMA_LADDER = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)


def _sym_power(m: np.ndarray, power: float) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * w**power) @ v.T


def _cs_np_gaussian_qfi_omega(p: ModelParams) -> float:
    """Exact omega Fisher information of the two-mode limit at theta = 0.

    With a = (x + ip)/sqrt(2) the form is H = x'Ax/2 + p'Bp/2 + const, whose
    ground state is the real Gaussian exp(-x'Gx/2) with
    G = A^1/2 (A^1/2 B A^1/2)^-1/2 A^1/2, the positive root of G B G = A.
    Differentiating that identity gives a Sylvester equation for dG/domega,
    and I = Tr[(G^-1 dG)^2] / 2.
    """
    lam_x, lam_p = p.lambda1 + p.lambda2, p.lambda1 - p.lambda2
    a = np.array([[p.omega, lam_x], [lam_x, p.Omega]])
    b = np.array([[p.omega, lam_p], [lam_p, p.Omega]])
    root_a = _sym_power(a, 0.5)
    gauss = root_a @ _sym_power(root_a @ b @ root_a, -0.5) @ root_a
    d_ab = np.diag([1.0, 0.0])  # d/domega of both A and B
    d_gauss = scipy.linalg.solve_sylvester(gauss @ b, b @ gauss,
                                           d_ab - gauss @ d_ab @ gauss)
    m = np.linalg.solve(gauss, d_gauss)
    return 0.5 * float(np.trace(m @ m))


def test_c06a_classical_spin_gamma_monotonicity():
    values, exact = [], []
    for gamma in GAMMA_LADDER:
        p = ModelParams.from_ratios(0.99, gamma=gamma, eta=1.0, j=10.0)
        values.append(qfi_omega("cs_np", p, FockCutoff(80, 80), method="solve"))
        exact.append(_cs_np_gaussian_qfi_omega(p))
    worst = max(abs(v - e) / e for v, e in zip(values, exact))
    steps = np.sign(np.diff(values))
    monotone = steps[0] != 0 and bool(np.all(steps == steps[0]))
    by_gamma = dict(zip(GAMMA_LADDER, values))
    asymmetry = [abs(by_gamma[gamma] - by_gamma[1.0 / gamma]) for gamma in (2.0, 3.0)]
    # Asserted: the values are those of the exact Gaussian ground state, and
    # they single out one coupling (strictly monotone, and far from the
    # gamma -> 1/gamma symmetry that c05 holds the one-mode limit to).  The
    # direction is only reported: the abstract prefers the rotating-wave
    # coupling, while this quantity in this limit falls with gamma.
    ok = worst < 1e-6 and monotone and min(asymmetry) > 1.0
    detail = ("I(gamma) = " + ", ".join(f"{v:.4f}" for v in values)
              + f" ({'increasing' if steps[0] > 0 else 'decreasing'})"
              + f"; worst rel diff from exact Gaussian {worst:.1e}"
              + "; |I(gamma) - I(1/gamma)| = "
              + ", ".join(f"{d:.2f}" for d in asymmetry))
    assert report("06a classical-spin gamma monotonicity", ok, detail)


def test_cs_np_gaussian_route_matches_the_sylvester_closed_form():
    # two independent exact routes: the normal-mode pair sum (no cutoff) and
    # the Sylvester equation for the Gaussian width matrix
    worst = 0.0
    for gamma in GAMMA_LADDER:
        p = ModelParams.from_ratios(0.99, gamma=gamma, eta=1.0, j=10.0)
        exact = _cs_np_gaussian_qfi_omega(p)
        worst = max(worst, abs(qfi_omega("cs_np", p) - exact) / exact)
    assert worst < 1e-10, f"worst rel diff {worst:.1e}"


def test_cs_np_gaussian_closed_form_limits():
    # Near g = 1 the exact Fisher information approaches 1/(32 (1-g)^2) at
    # omega = Omega = 1 whatever gamma is.
    eps = 1e-5
    lead = [32 * eps**2 * _cs_np_gaussian_qfi_omega(
        ModelParams.from_ratios(1.0 - eps, gamma=gamma, eta=1.0, j=10.0))
        for gamma in GAMMA_LADDER]
    # With lambda2 = 0 the form conserves a'a + b'b and its ground state is the
    # vacuum for every omega, so the pure rotating-wave end carries no
    # information; the pure counter-rotating end is squeezed and does.
    rotating = ModelParams(lambda1=0.9, j=10.0)
    counter = ModelParams(lambda2=0.9, j=10.0)
    ends = [qfi_omega("cs_np", p, FockCutoff(30, 30), method="solve")
            for p in (rotating, counter)]
    ok = (max(abs(x - 1.0) for x in lead) < 1e-4 and ends[0] < 1e-12
          and _cs_np_gaussian_qfi_omega(rotating) < 1e-12
          and abs(ends[1] / _cs_np_gaussian_qfi_omega(counter) - 1.0) < 1e-6)
    assert ok, f"32 (1-g)^2 I = {lead}; I(lambda2 = 0), I(lambda1 = 0) = {ends}"


def test_c06b_full_model_gamma_monotonicity():
    values = []
    for gamma in GAMMA_LADDER:
        p = ModelParams.from_ratios(0.99, gamma=gamma, eta=1.0, j=10.0)
        t = Truncation.for_spin(60, 10.0, "positive")
        values.append(qfi_omega("full", p, t, method="solve"))
    increasing = all(b > a for a, b in zip(values, values[1:]))
    detail = "I(gamma) = " + ", ".join(f"{v:.4f}" for v in values)
    assert report("06b finite-scale gamma monotonicity", increasing, detail)


def test_c07_curvature_sign_flip_and_closed_forms():
    sign_ok = all(berry_curvature_np(g, 1.0) > 0 for g in np.linspace(0.5, 0.95, 8))
    sign_ok &= all(berry_curvature_sp(g, 1.0, first_term_only=True) < 0
                   for g in np.linspace(1.05, 1.5, 8))
    worst = 0.0
    for branch, gs in (("np", np.linspace(0.5, 0.95, 8)),
                       ("sp", np.linspace(1.05, 1.5, 8))):
        builder = squeezed_family_builder(branch, 140)
        for g in gs:
            p = ModelParams.from_ratios(float(g), gamma=1.0, eta=1.0, theta=0.4, j=0.5)
            comp = qgt_finite_difference(builder, p, ("theta", "omega"),
                                         richardson=True)
            numeric = comp.berry()[0, 1]
            closed = (berry_curvature_np(float(g), 1.0) if branch == "np"
                      else berry_curvature_sp(float(g), 1.0, first_term_only=True))
            worst = max(worst, abs(numeric - closed) / abs(closed))
    ok = sign_ok and worst < 1e-6
    assert report("07 curvature sign flip + closed forms", ok,
                  f"signs {'ok' if sign_ok else 'WRONG'}, worst fd rel diff {worst:.2e}")


def test_c08_divergence_proxy_every_effective_model():
    ratios = {}
    for model, pair in (("cs_np", (0.9, 0.999)), ("co_np", (0.9, 0.999)),
                        ("cs_sp", (1.1, 1.001)), ("co_sp", (1.1, 1.001))):
        vals = []
        for g in pair:
            p = ModelParams.from_ratios(g, gamma=2.0, eta=1.0, j=10.0)
            cut = FockCutoff(80, 80) if model.startswith("cs") else FockCutoff(80)
            vals.append(qfi_omega(model, p, cut, method="solve"))
        ratios[model] = vals[1] / vals[0]
    ok = all(r > 10 for r in ratios.values())
    detail = ", ".join(f"{m}: {r:.0f}x" for m, r in ratios.items())
    assert report("08 divergence proxy", ok, detail)


def test_c09_thermodynamic_approach_trend():
    start = time.monotonic()
    rows = ratio_scan([5.0, 10.0], [1.0, 2.0], [2.0, 5.0, 10.0, 20.0], 0.99,
                      n_max=60, method="solve")
    table = {(r.j, r.gamma, r.eta): r.ratio for r in rows}
    eta_series = [table[(10.0, 2.0, eta)] for eta in (2.0, 5.0, 10.0, 20.0)]
    monotone = all(b > a for a, b in zip(eta_series, eta_series[1:]))
    approaches_one = all(0 < r < 1 for r in eta_series)
    joint = table[(10.0, 2.0, 10.0)]
    beats_single = (joint > table[(10.0, 1.0, 10.0)]
                    and joint > table[(5.0, 2.0, 10.0)]
                    and joint > table[(10.0, 2.0, 5.0)])
    converged = all(r.converged for r in rows)
    elapsed = time.monotonic() - start
    ok = monotone and approaches_one and beats_single and converged and elapsed < 600
    assert report("09 thermodynamic-approach trend", ok,
                  f"eta series {[f'{r:.3f}' for r in eta_series]}, joint {joint:.3f}, "
                  f"{elapsed:.0f}s")


def test_c10_cutoff_reproducibility_at_reference_scale():
    p = ModelParams.from_ratios(0.95, gamma=2.0, eta=1.0, j=10.0)
    results = {}
    for n_max in (80, 100):
        t = Truncation.for_spin(n_max, 10.0, "positive")
        e0, _, _ = ground_pair("full", p, t)
        results[n_max] = (e0, qfi_omega("full", p, t, method="solve"))
    de = abs(results[100][0] - results[80][0]) / abs(results[100][0])
    di = abs(results[100][1] - results[80][1]) / abs(results[100][1])
    ok = de < 1e-4 and di < 1e-4
    assert report("10 cutoff reproducibility", ok,
                  f"rel changes: energy {de:.1e}, Fisher information {di:.1e}")


def test_c11_worker_count_determinism(tmp_path):
    spec = SweepSpec(model="auto_cs", param="g", start=0.6, stop=1.4, points=6,
                     gamma=2.0, eta=1.0, j=5.0, n_max=24, n_max_b=24)
    serial = rows_to_csv(run_sweep(spec))
    parallel = rows_to_csv(run_sweep(dataclasses.replace(spec, workers=3)))
    again = rows_to_csv(run_sweep(dataclasses.replace(spec, workers=2)))
    ok = serial == parallel == again
    assert report("11 worker-count determinism", ok,
                  f"byte-identical across worker counts: {ok}")
