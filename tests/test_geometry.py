"""Tests for the three tensor methods and their derived quantities."""

import math

import numpy as np
import pytest

from adicke import (DegeneracyError, FockCutoff, ModelParams, StencilError,
                    Truncation, berry, dense_eigensystem, full_hamiltonian,
                    metric, param_derivative, qfi, qgt_components,
                    qgt_finite_difference)
from adicke.families import (derivative_matrix, ground_pair, ground_state,
                             hamiltonian_matrix, photon_number_diagonal)
from adicke.geometry import (QFIValue, QGTComponents, qgt_matrix_solve,
                             qgt_matrix_sum)
from adicke.model import BandStack, as_band
from adicke.spectra import Eigensystem, gauge_fix


def from_g(g, gamma=1.0, eta=1.0, theta=0.0, j=5.0):
    return ModelParams.from_ratios(g, gamma=gamma, eta=eta, theta=theta, j=j)


def entry(comp, mu, nu):
    """One entry of a tensor, by its labels."""
    return complex(comp.q[comp.index(mu), comp.index(nu)])


def solve_alone(ham, energy, psi, derivs, labels):
    """``qgt_matrix_solve`` of one matrix, as a stack of one: its tensor, or its error raised."""
    [comp] = qgt_matrix_solve(BandStack(as_band(ham)), [energy], psi[None],
                              [BandStack(as_band(d)) for d in derivs], labels)
    if isinstance(comp, Exception):
        raise comp
    return comp


def variance_of_photon_number(model, psi, trunc):
    nd = photon_number_diagonal(model, trunc)
    probs = np.abs(psi) ** 2
    return float((probs * nd**2).sum() - (probs * nd).sum() ** 2)


# ---------------------------------------------------------------------------
# sum over states


def test_sum_vanishes_when_decoupled():
    p = ModelParams(omega=1.0, Omega=1.0, j=2.0)
    t = Truncation.for_spin(10, p.j, "positive")
    es = dense_eigensystem(full_hamiltonian(p, t))
    d_omega = param_derivative(p, t, "omega")
    assert qgt_matrix_sum(es, [d_omega], ("omega",)).q[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_sum_refuses_degenerate_state():
    es = Eigensystem(energies=np.array([0.0, 1e-14, 1.0]),
                     states=np.eye(3, dtype=complex))
    d = np.eye(3, dtype=complex)
    with pytest.raises(DegeneracyError):
        qgt_matrix_sum(es, [d], ("omega",))


@pytest.mark.parametrize("model,g,trunc", [
    ("full", 0.8, Truncation.for_spin(25, 2.0, "positive")),
    ("co_np", 0.8, FockCutoff(40)),
    ("co_sp", 1.3, FockCutoff(40)),
    ("cs_np", 0.8, FockCutoff(18, 18)),
])
def test_theta_entry_equals_photon_variance(model, g, trunc):
    j = 2.0 if model == "full" else 3.0
    p = from_g(g, gamma=2.0, theta=0.6, j=j)
    comp = qgt_components(model, p, trunc, labels=("theta",), method="sum")
    _, psi, _ = ground_pair(model, p, trunc)
    assert comp.q[0, 0].real == pytest.approx(
        variance_of_photon_number(model, psi, trunc), abs=1e-10)


# ---------------------------------------------------------------------------
# linear solve


def test_linear_solve_agrees_with_sum():
    p = from_g(0.8, gamma=2.0, theta=0.3, j=5.0)
    t = Truncation.for_spin(30, p.j, "positive")
    ham = hamiltonian_matrix("full", p, t)
    es = dense_eigensystem(ham)
    d_t = derivative_matrix("full", p, t, "theta")
    d_w = derivative_matrix("full", p, t, "omega")
    labels = ("theta", "omega")
    reference = entry(qgt_matrix_sum(es, [d_t, d_w], labels), "theta", "omega")
    solved = entry(solve_alone(ham, float(es.energies[0]), es.states[:, 0], [d_t, d_w],
                               labels), "theta", "omega")
    assert abs(solved - reference) < 1e-10 * max(1.0, abs(reference))


def test_linear_solve_reports_residual_on_singular_shift():
    # shifting by an excited eigenvalue leaves an unprotected null direction
    from adicke import ConvergenceError
    p = from_g(0.6, gamma=2.0, theta=0.3, j=2.0)
    t = Truncation.for_spin(14, p.j, "positive")
    ham = hamiltonian_matrix("full", p, t)
    es = dense_eigensystem(ham)
    d_w = derivative_matrix("full", p, t, "omega")
    with pytest.raises(ConvergenceError) as info:
        solve_alone(ham, float(es.energies[1]), es.states[:, 0], [d_w], ("omega",))
    assert info.value.residual is not None and info.value.residual > 1e-10


def test_linear_solve_decoupled_zero():
    p = ModelParams(omega=1.0, Omega=1.0, j=1.0)
    t = Truncation.for_spin(8, p.j, "positive")
    ham = hamiltonian_matrix("full", p, t)
    e0, psi, _ = ground_pair("full", p, t)
    d_w = derivative_matrix("full", p, t, "omega")
    assert abs(solve_alone(ham, e0, psi, [d_w], ("omega",)).q[0, 0]) < 1e-14


def test_linear_solve_at_reference_cutoff_scale():
    # sector dimension 1061: shift-invert and the preconditioned resolvent carry it
    p = from_g(0.9, gamma=2.0, eta=1.0, j=10.0)
    t = Truncation.for_spin(100, p.j, "positive")
    comp = qgt_components("full", p, t, labels=("omega",), method="solve")
    value = comp.q[0, 0].real
    smaller = qgt_components(
        "full", p, Truncation.for_spin(80, p.j, "positive"),
        labels=("omega",), method="solve").q[0, 0].real
    assert value > 0 and value == pytest.approx(smaller, rel=1e-6)


# ---------------------------------------------------------------------------
# finite differences


def test_fd_gauge_robustness():
    p = from_g(0.7, gamma=2.0, theta=0.4, j=2.0)
    t = Truncation.for_spin(16, p.j, "positive")
    rng = np.random.default_rng(31)

    def noisy_builder(q):
        return ground_state("full", q, t) * np.exp(1j * rng.uniform(0, 2 * math.pi))

    clean = qgt_finite_difference(lambda q: ground_state("full", q, t), p,
                                  ("theta", "omega"), richardson=False)
    noisy = qgt_finite_difference(noisy_builder, p, ("theta", "omega"), richardson=False)
    assert np.max(np.abs(clean.q - noisy.q)) < 1e-12


def test_fd_matches_sum_on_sample_points():
    for g in (0.2, 0.5, 0.8):
        p = from_g(g, gamma=2.0, theta=0.3, j=5.0)
        t = Truncation.for_spin(30, p.j, "positive")
        fd = qgt_components("full", p, t, labels=("theta", "omega"), method="fd")
        ref = qgt_components("full", p, t, labels=("theta", "omega"), method="sum")
        scale = np.abs(ref.q).max()
        assert np.max(np.abs(fd.q - ref.q)) < 1e-6 * scale


def test_fd_distance_expansion():
    # 1 - |<psi(p)|psi(p+dp)>|^2 = sum G dp dp to third order
    p = from_g(0.6, gamma=1.5, theta=0.5, j=3.0)
    t = Truncation.for_spin(20, p.j, "positive")
    comp = qgt_components("full", p, t, labels=("theta", "omega"), method="sum")
    gmat = comp.metric()
    delta = 1e-4
    steps = {"theta": delta, "omega": -0.5 * delta}
    shifted = p
    for label, step in steps.items():
        shifted = shifted.shifted(label, step)
    psi0 = ground_state("full", p, t)
    psi1 = ground_state("full", shifted, t)
    lhs = 1.0 - abs(np.vdot(psi0, psi1)) ** 2
    vec = np.array([steps["theta"], steps["omega"]])
    rhs = float(vec @ gmat @ vec)
    assert lhs == pytest.approx(rhs, rel=2e-3)


def test_fd_detects_crossing():
    flip = {"count": 0}

    def pathological(q):
        flip["count"] += 1
        v = np.zeros(4, dtype=complex)
        v[flip["count"] % 2] = 1.0  # orthogonal states on neighboring points
        return v

    with pytest.raises(StencilError):
        qgt_finite_difference(pathological, from_g(0.5), ("omega",), richardson=False)


def test_fd_single_label_matches_sum():
    p = from_g(0.5, gamma=2.0, theta=0.3, j=2.0)
    t = Truncation.for_spin(16, p.j, "positive")
    builder = lambda q: ground_state("full", q, t)
    val = entry(qgt_finite_difference(builder, p, ("theta",)), "theta", "theta")
    ref = qgt_components("full", p, t, labels=("theta",), method="sum").q[0, 0]
    assert val.real == pytest.approx(ref.real, rel=1e-6)


# ---------------------------------------------------------------------------
# metric / curvature / Fisher information


def test_metric_and_berry_of_diagonal_tensor():
    comp = QGTComponents(labels=("theta", "omega"),
                         q=np.diag([0.3, 0.1]).astype(complex), method="sum_over_states")
    assert np.max(np.abs(comp.berry())) == 0.0
    assert np.allclose(comp.metric(), np.diag([0.3, 0.1]))


def test_berry_antisymmetry_exact():
    q = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    comp = QGTComponents(labels=("theta", "omega"), q=q, method="sum_over_states")
    f = comp.berry()
    assert f[0, 1] == -f[1, 0]
    assert f[0, 1] == pytest.approx(2 * 0.2)


def test_qfi_is_four_times_metric_diagonal():
    q = np.array([[0.5, 0.1j], [-0.1j, 0.25]])
    comp = QGTComponents(labels=("theta", "omega"), q=q, method="sum_over_states")
    assert comp.qfi("omega").value == pytest.approx(1.0)
    assert qfi(comp, "theta").value == pytest.approx(2.0)


def test_metric_rejects_non_hermitian():
    comp = QGTComponents(labels=("a", "b"),
                         q=np.array([[1.0, 0.1j], [-0.1j, 1.0]]), method="x")
    object.__setattr__(comp, "q", np.array([[1.0, 0.5], [0.1, 1.0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermiticity"):
        metric(comp)
    with pytest.raises(ValueError, match="Hermiticity"):
        berry(comp)


def test_qfi_value_rejects_negative():
    with pytest.raises(ValueError):
        QFIValue(label="omega", value=-1e-3)


# ---------------------------------------------------------------------------
# cross-method triangle and sign structure


TRIANGLE_LABELS = ("omega", "Omega", "lambda1", "lambda2", "theta")


def test_cross_method_triangle_both_phases():
    grid = [(g, gamma, theta)
            for g in (0.5, 0.8, 1.2)
            for gamma in (1.0, 2.0)
            for theta in (0.3, 1.0)]
    assert len(grid) == 12
    worst_sum_solve = 0.0
    worst_solve_fd = 0.0
    for g, gamma, theta in grid:
        p = from_g(g, gamma=gamma, theta=theta, j=2.0)
        t = Truncation.for_spin(18, p.j, "positive")
        c_sum = qgt_components("full", p, t, labels=TRIANGLE_LABELS, method="sum")
        c_sol = qgt_components("full", p, t, labels=TRIANGLE_LABELS, method="solve")
        c_fd = qgt_components("full", p, t, labels=TRIANGLE_LABELS, method="fd")
        scale = max(1.0, float(np.abs(c_sum.q).max()))
        worst_sum_solve = max(worst_sum_solve, float(np.abs(c_sum.q - c_sol.q).max()) / scale)
        worst_solve_fd = max(worst_solve_fd, float(np.abs(c_sol.q - c_fd.q).max()) / scale)
        gmat = c_sum.metric()
        assert np.linalg.eigvalsh(gmat)[0] > -1e-10
        for label in TRIANGLE_LABELS:
            assert c_sum.qfi(label).value > -1e-10
    assert worst_sum_solve < 1e-8
    assert worst_solve_fd < 1e-6


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_berry_sign_structure_one_mode_models(gamma):
    for g in (0.5, 0.7, 0.95):
        p = from_g(g, gamma=gamma, theta=0.4, j=3.0)
        comp = qgt_components("co_np", p, FockCutoff(50), labels=("theta", "omega"),
                              method="sum")
        assert comp.berry()[0, 1] > 0.0
    for g in (1.05, 1.2, 1.5):
        p = from_g(g, gamma=gamma, theta=0.4, j=3.0)
        comp = qgt_components("co_sp", p, FockCutoff(50), labels=("theta", "omega"),
                              method="sum")
        assert comp.berry()[0, 1] < 0.0


def test_gauge_fix_reused_by_methods():
    p = from_g(0.75, gamma=2.0, theta=0.2, j=2.0)
    t = Truncation.for_spin(14, p.j, "positive")
    psi = ground_state("full", p, t)
    assert np.array_equal(psi, gauge_fix(psi))


# ---------------------------------------------------------------------------
# stacks: the resolvent tangents of several points in one iteration


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_stacked_tangents_match_each_member_alone(theta):
    from adicke import geometry, lowest_k
    from adicke.model import full_hamiltonian_stack, param_derivative_stack
    from adicke.spectra import bogoliubov_modes
    from adicke.effective import cs_normal_form
    t = Truncation.for_spin(60, 5.0, "positive")
    points = [from_g(0.9, gamma=gamma, eta=eta, theta=theta)
              for gamma, eta in ((2.0, 1.0), (math.inf, 2.0), (0.5, 3.0))]
    estimates = [bogoliubov_modes(cs_normal_form(p)) for p in points]
    stack = full_hamiltonian_stack(points, t)
    systems = lowest_k(stack, 2, estimate=estimates)
    labels = ("omega", "lambda1")
    derivs = [param_derivative_stack(points, t, label) for label in labels]
    stacked = geometry.resolvent_tangent(
        stack, [es.energies[0] for es in systems], np.stack([es.states[:, 0] for es in systems]),
        derivs, factor=[es.factor for es in systems], gap=[es.gap for es in systems])
    for p, es, x in zip(points, systems, stacked):
        ham = full_hamiltonian(p, t)
        [want] = geometry.resolvent_tangent(
            BandStack(ham), [es.energies[0]], es.states[:, 0][None],
            [BandStack(param_derivative(p, t, label)) for label in labels], factor=[es.factor],
            gap=[es.gap])
        assert x.shape == want.shape == (ham.shape[0], 2)
        assert np.max(np.abs(x - want)) < 1e-12 * max(1.0, float(np.max(np.abs(want))))
