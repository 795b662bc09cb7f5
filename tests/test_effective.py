"""Tests for the four effective quadratic models and their plumbing."""

import cmath
import math

import numpy as np
import pytest

from adicke import (FockCutoff, ModelParams, TruncationError, bogoliubov_modes,
                    dense_eigensystem, displacement_solution, effective, form_matrix,
                    qgt_components)
from adicke.effective import (QuadraticBosonForm, co_normal_form, co_superradiant_form,
                              cs_normal_form, cs_superradiant_form,
                              effective_form, effective_param_derivative,
                              form_param_derivative, theta_derivative_matrix)
from adicke.families import ground_state
from adicke.model import Piece, as_dense
from forms import boson_parity_labels, quadratic_form


def from_g(g, gamma=1.0, eta=1.0, theta=0.0, j=10.0, omega=1.0):
    return ModelParams.from_ratios(g, gamma=gamma, eta=eta, omega=omega,
                                   theta=theta, j=j)


# ---------------------------------------------------------------------------
# displacement


def test_displacement_at_critical_point():
    sol = displacement_solution(from_g(1.0, gamma=2.0))
    assert sol.alpha == 0.0 and sol.cos_delta == 1.0 and sol.valid_region


def test_displacement_cos_delta_substitution():
    # g^2 = 2 means omega Omega / (lambda1+lambda2)^2 = 1/2
    sol = displacement_solution(from_g(math.sqrt(2.0)))
    assert sol.cos_delta == pytest.approx(0.5, rel=1e-14)
    assert cmath.phase(sol.alpha) == pytest.approx(0.0, abs=1e-14)


def test_displacement_phase_tracks_theta():
    sol = displacement_solution(from_g(1.4, theta=0.8))
    assert cmath.phase(sol.alpha) == pytest.approx(0.8, abs=1e-13)


def test_displacement_trivial_below_critical():
    sol = displacement_solution(from_g(0.7))
    assert sol.alpha == 0.0 and not sol.valid_region


def test_displacement_cancels_linear_terms():
    # residuals of the two linear-term coefficients the solution must zero out
    p = from_g(1.3, gamma=2.5, eta=1.7, theta=0.4, j=6.0)
    sol = displacement_solution(p)
    lam = p.lambda1 + p.lambda2
    sin_delta = math.sqrt(1.0 - sol.cos_delta**2)
    res_a = p.omega * abs(sol.alpha) - math.sqrt(p.j / 2) * lam * sin_delta
    res_b = lam * abs(sol.alpha) * sol.cos_delta - p.Omega * math.sqrt(p.j / 2) * sin_delta
    assert abs(res_a) < 1e-12 and abs(res_b) < 1e-12


# ---------------------------------------------------------------------------
# normal-phase builders


def test_cs_normal_decoupled_ground():
    p = ModelParams(omega=1.0, Omega=1.0, j=4.0)
    es = dense_eigensystem(form_matrix(effective_form("cs_np", p), FockCutoff(8, 8)))
    assert es.energies[0] == pytest.approx(-4.0, abs=1e-13)


def test_cs_normal_excitations_at_half_critical():
    # resonant symmetric point at g = 0.5 (lambda1 = lambda2 = 0.25)
    p = from_g(0.5)
    assert p.lambda1 == pytest.approx(0.25)
    es = dense_eigensystem(form_matrix(effective_form("cs_np", p), FockCutoff(26, 26)))
    assert es.energies[1] - es.energies[0] == pytest.approx(math.sqrt(0.5), abs=1e-10)
    # the stiff-mode quantum lies between the first and second soft quanta
    assert es.energies[2] - es.energies[0] == pytest.approx(math.sqrt(1.5), abs=1e-9)


def test_cs_normal_gap_closes_monotonically():
    gaps = [bogoliubov_modes(cs_normal_form(from_g(g))).gap
            for g in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert gaps == pytest.approx([math.sqrt(1 - g) for g in (0.9, 0.99, 0.999)], rel=1e-12)


def test_co_normal_decoupled():
    p = ModelParams(omega=0.8, Omega=1.3, j=2.5)
    form = co_normal_form(p)
    assert form.n_a == pytest.approx(0.8)
    assert form.squeeze == 0j
    assert form.const == pytest.approx(-p.j * p.Omega)


def test_co_normal_squeeze_coefficient():
    p = ModelParams(omega=1.0, Omega=2.0, lambda1=0.6, lambda2=0.3, theta=0.0, j=1.0)
    assert co_normal_form(p).squeeze == pytest.approx(-0.6 * 0.3 / 2.0, rel=1e-14)


def test_co_normal_gap_vanishes_at_critical_point():
    p = from_g(1.0, gamma=2.0, eta=4.0)
    modes = bogoliubov_modes(co_normal_form(p))
    assert modes.gap == pytest.approx(0.0, abs=1e-12)


def test_co_normal_coupling_swap_symmetry():
    p1 = ModelParams(omega=1.0, Omega=1.5, lambda1=0.5, lambda2=0.2, theta=0.7, j=3.0)
    p2 = ModelParams(omega=1.0, Omega=1.5, lambda1=0.2, lambda2=0.5, theta=0.7, j=3.0)
    f1, f2 = co_normal_form(p1), co_normal_form(p2)
    assert f1.n_a == pytest.approx(f2.n_a, rel=1e-14)
    assert f1.squeeze == pytest.approx(f2.squeeze, rel=1e-14)
    assert f1.const != pytest.approx(f2.const, rel=1e-6)  # only the scalar differs
    cut = FockCutoff(40)
    overlap = abs(np.vdot(ground_state("co_np", p1, cut), ground_state("co_np", p2, cut)))
    assert overlap > 1 - 1e-10


# ---------------------------------------------------------------------------
# superradiant builders


def test_cs_superradiant_rejects_normal_phase():
    with pytest.raises(ValueError):
        cs_superradiant_form(from_g(0.99))
    with pytest.raises(ValueError):
        co_superradiant_form(from_g(1.0))


def test_cs_superradiant_continuous_at_critical_point():
    p_np = from_g(1.0, gamma=2.0)
    p_sp = from_g(1.0 + 1e-9, gamma=2.0)
    f_np, f_sp = cs_normal_form(p_np), cs_superradiant_form(p_sp)
    assert f_sp.hop == pytest.approx(f_np.hop, rel=1e-7)
    assert f_sp.pair == pytest.approx(f_np.pair, rel=1e-7)
    assert f_sp.n_b == pytest.approx(f_np.n_b, rel=1e-7)
    assert f_sp.const == pytest.approx(f_np.const, rel=1e-7)


def test_cs_superradiant_gap_closes():
    gaps = [bogoliubov_modes(cs_superradiant_form(from_g(g, gamma=2.0))).gap
            for g in (1.001, 1.01, 1.1)]
    assert 0 < gaps[0] < gaps[1] < gaps[2]


def test_co_superradiant_structure_and_gap():
    p = from_g(1.2, gamma=2.0, eta=3.0, theta=0.3)
    form = co_superradiant_form(p)
    assert form.modes == 1 and form.hop == 0j and form.pair == 0j
    assert form.squeeze != 0j
    gaps = [bogoliubov_modes(co_superradiant_form(from_g(g, gamma=2.0))).gap
            for g in (1.001, 1.01, 1.1)]
    assert 0 < gaps[0] < gaps[1] < gaps[2]


def test_co_superradiant_matches_normal_form_substitution():
    # quadratic coefficients equal the normal-phase expansion evaluated at the
    # displaced-frame parameters: spin frequency Omega g^2 and couplings
    # (sqrt(omega Omega)/g +- (lambda1 - lambda2))/2
    for gamma in (1.0, 2.7):
        p = from_g(1.35, gamma=gamma, eta=2.0, theta=0.6, j=4.0)
        g = p.g
        root = math.sqrt(p.omega * p.Omega) / g
        diff = p.lambda1 - p.lambda2
        sub = ModelParams(omega=p.omega, Omega=p.Omega * g**2,
                          lambda1=(root + diff) / 2, lambda2=(root - diff) / 2,
                          theta=p.theta, j=p.j)
        direct = co_superradiant_form(p)
        oracle = co_normal_form(sub)
        assert direct.n_a == pytest.approx(oracle.n_a, rel=1e-13)
        assert direct.squeeze == pytest.approx(oracle.squeeze, rel=1e-13)
        # the scalar offsets differ exactly by the displaced-frame energy shift
        expected_shift = p.j * sub.Omega - 0.5 * p.j * p.Omega * (g**2 + g**-2)
        assert direct.const - oracle.const == pytest.approx(expected_shift, rel=1e-12)


def test_co_superradiant_coupling_swap_symmetry():
    cut = FockCutoff(40)
    p1 = from_g(1.4, gamma=3.0, theta=0.2, j=2.0)
    p2 = from_g(1.4, gamma=1 / 3.0, theta=0.2, j=2.0)
    overlap = abs(np.vdot(ground_state("co_sp", p1, cut), ground_state("co_sp", p2, cut)))
    assert overlap > 1 - 1e-10


def test_cs_ground_states_differ_under_coupling_swap():
    cut = FockCutoff(40, 40)
    v1 = ground_state("cs_np", from_g(0.9, gamma=2.0), cut)
    v2 = ground_state("cs_np", from_g(0.9, gamma=0.5), cut)
    assert abs(np.vdot(v1, v2)) < 1 - 1e-6


# ---------------------------------------------------------------------------
# shared invariants


@pytest.mark.parametrize("model", ["cs_np", "cs_sp", "co_np", "co_sp"])
def test_hermiticity_and_parity(model):
    rng = np.random.default_rng(23)
    for _ in range(3):
        g = rng.uniform(1.1, 1.9) if model.endswith("sp") else rng.uniform(0.1, 0.95)
        p = from_g(g, gamma=rng.uniform(0.4, 2.5), eta=rng.uniform(0.5, 2.0),
                   theta=rng.uniform(0, 2 * math.pi), j=3.0)
        cut = FockCutoff(12, 12) if model.startswith("cs") else FockCutoff(12)
        ham = form_matrix(effective_form(model, p), cut)
        assert abs(ham - ham.conj().T).max() < 1e-12
        labels = boson_parity_labels(cut)
        mat = as_dense(ham)
        comm = labels[:, None] * mat - mat * labels[None, :]
        assert np.max(np.abs(comm)) < 1e-12


def test_branch_constants_reduce_to_decoupled_spin_energy():
    # at the critical point both phases quote the same scalar, -j Omega on resonance
    p = from_g(1.0 + 1e-12, gamma=1.0, j=5.0)
    assert cs_superradiant_form(p).const == pytest.approx(-5.0, rel=1e-9)


# ---------------------------------------------------------------------------
# coefficient extraction


@pytest.mark.parametrize("model,g", [("cs_np", 0.6), ("cs_sp", 1.3),
                                     ("co_np", 0.6), ("co_sp", 1.3)])
def test_quadratic_form_round_trip(model, g):
    p = from_g(g, gamma=1.8, eta=1.4, theta=0.9, j=2.5)
    form = effective_form(model, p)
    cut = FockCutoff(9, 9) if form.modes == 2 else FockCutoff(9)
    extracted = quadratic_form(form_matrix(form, cut), cut)
    assert extracted.n_a == pytest.approx(form.n_a, abs=1e-13)
    assert extracted.n_b == pytest.approx(form.n_b, abs=1e-13)
    assert extracted.hop == pytest.approx(form.hop, abs=1e-13)
    assert extracted.pair == pytest.approx(form.pair, abs=1e-13)
    assert extracted.squeeze == pytest.approx(form.squeeze, abs=1e-13)
    assert extracted.const == pytest.approx(form.const, abs=1e-13)


def test_quadratic_form_reads_hop_coefficient():
    p = from_g(0.7, gamma=2.0, theta=0.5, j=1.0)
    form = cs_normal_form(p)
    assert form.hop == pytest.approx(p.lambda1 * cmath.exp(0.5j), rel=1e-14)


def test_quadratic_form_decoupled_keeps_only_numbers():
    p = ModelParams(omega=1.1, Omega=0.9, j=2.0)
    form = quadratic_form(form_matrix(effective_form("cs_np", p), FockCutoff(6, 6)),
                          FockCutoff(6, 6))
    assert form.hop == 0j and form.pair == 0j and form.squeeze == 0j
    assert form.n_a == pytest.approx(1.1) and form.n_b == pytest.approx(0.9)


def test_quadratic_form_rejects_cubic_perturbation():
    p = from_g(0.5, j=1.0)
    cut = FockCutoff(8)
    mat = as_dense(form_matrix(effective_form("co_np", p), cut))
    a = np.zeros((9, 9))
    a[np.arange(8), np.arange(1, 9)] = np.sqrt(np.arange(1, 9))
    cubic = a.T @ a.T @ a.T
    mat += 1e-3 * (cubic + cubic.T)
    with pytest.raises(ValueError, match="quadratic"):
        quadratic_form(mat, cut)


# ---------------------------------------------------------------------------
# parameter derivatives of the effective models


@pytest.mark.parametrize("model,g", [("cs_np", 0.7), ("cs_sp", 1.25),
                                     ("co_np", 0.7), ("co_sp", 1.25)])
def test_theta_derivative_is_commutator(model, g):
    p = from_g(g, gamma=2.0, eta=1.5, theta=0.35, j=3.0)
    cut = FockCutoff(10, 10) if model.startswith("cs") else FockCutoff(14)
    d = as_dense(effective_param_derivative(model, p, cut, "theta"))
    h = 1e-5
    plus = as_dense(form_matrix(effective_form(model, p.shifted("theta", h)), cut))
    minus = as_dense(form_matrix(effective_form(model, p.shifted("theta", -h)), cut))
    assert np.max(np.abs((plus - minus) / (2 * h) - d)) < 1e-8


@pytest.mark.parametrize("which", ["omega", "Omega", "lambda1", "lambda2"])
@pytest.mark.parametrize("model,g", [("cs_np", 0.7), ("cs_sp", 1.25),
                                     ("co_np", 0.7), ("co_sp", 1.25)])
def test_scalar_derivatives_match_matrix_stencil(model, g, which):
    p = from_g(g, gamma=2.0, eta=1.5, theta=0.35, j=3.0)
    cut = FockCutoff(8, 8) if model.startswith("cs") else FockCutoff(10)
    d = as_dense(effective_param_derivative(model, p, cut, which))
    h = 1e-5
    plus = as_dense(form_matrix(effective_form(model, p.shifted(which, h)), cut))
    minus = as_dense(form_matrix(effective_form(model, p.shifted(which, -h)), cut))
    assert np.max(np.abs((plus - minus) / (2 * h) - d)) < 5e-7


def test_cs_normal_omega_derivative_is_mode_a_number():
    p = from_g(0.6, gamma=2.0, theta=0.4, j=2.0)
    dform = form_param_derivative("cs_np", p, "omega")
    assert dform.n_a == 1.0
    assert dform.n_b == 0.0 and dform.hop == 0j and dform.pair == 0j
    assert dform.squeeze == 0j and dform.const == 0.0


@pytest.mark.parametrize("which", ["omega", "Omega", "lambda1", "lambda2"])
@pytest.mark.parametrize("model", ["cs_sp", "co_sp"])
def test_superradiant_derivatives_just_above_the_critical_point(model, which):
    # one-sided second-order difference in the direction that raises g, so
    # every point stays in the superradiant domain
    p = from_g(1.0 + 1e-6, gamma=2.0, eta=1.5, theta=0.35, j=3.0)
    cut = FockCutoff(8, 8) if model.startswith("cs") else FockCutoff(10)
    sign = 1.0 if which.startswith("lambda") else -1.0
    h = 1e-5
    f0, f1, f2 = (as_dense(form_matrix(effective_form(model, p.shifted(which, sign * k * h)),
                                       cut)) for k in range(3))
    want = sign * (-3 * f0 + 4 * f1 - f2) / (2 * h)
    got = as_dense(effective_param_derivative(model, p, cut, which))
    assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))


@pytest.mark.parametrize("model", ["cs_sp", "co_sp"])
def test_superradiant_derivative_rejects_the_normal_phase(model):
    for g in (0.9, 1.0):
        with pytest.raises(ValueError, match="g > 1"):
            form_param_derivative(model, from_g(g), "omega")


@pytest.mark.parametrize("model", ["cs_np", "co_np", "cs_sp"])
def test_derivative_rejects_an_unknown_label(model):
    for which in ("j", "g", "bogus"):
        with pytest.raises(ValueError, match="unknown parameter"):
            form_param_derivative(model, from_g(1.2 if model == "cs_sp" else 0.5), which)


# ---------------------------------------------------------------------------
# parameter-free pieces, cached once per cutoff


def _dense_form_matrix(form: QuadraticBosonForm, cut: FockCutoff) -> np.ndarray:
    """The form's matrix from dense Kronecker products of the ladder matrices."""
    a = np.diag(np.sqrt(np.arange(1.0, cut.n_a + 1)), 1)
    eye_a = np.eye(cut.n_a + 1)
    if cut.modes == 1:
        terms = [(form.n_a, a.T @ a, False), (form.squeeze, a.T @ a.T, True)]
    else:
        b = np.diag(np.sqrt(np.arange(1.0, cut.n_b + 1)), 1)
        eye_b = np.eye(cut.n_b + 1)
        terms = [(form.n_a, np.kron(a.T @ a, eye_b), False),
                 (form.n_b, np.kron(eye_a, b.T @ b), False),
                 (form.hop, np.kron(a.T, b), True),
                 (form.pair, np.kron(a.T, b.T), True),
                 (form.squeeze, np.kron(a.T @ a.T, eye_b), True)]
    ham = form.const * np.eye(cut.dim, dtype=complex)
    for coeff, piece, with_adjoint in terms:
        ham += coeff * piece
        if with_adjoint:
            ham += np.conj(coeff) * piece.T
    return ham


@pytest.mark.parametrize("model,g,cut", [("cs_np", 0.7, FockCutoff(5, 7)),
                                         ("cs_sp", 1.3, FockCutoff(7, 5)),
                                         ("co_np", 0.7, FockCutoff(9)),
                                         ("co_sp", 1.3, FockCutoff(9))])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_form_matrix_from_cached_pieces_matches_dense_products(model, g, cut, theta):
    p = from_g(g, gamma=2.0, eta=1.5, theta=theta, j=3.0)
    for form in (effective_form(model, p), form_param_derivative(model, p, "omega")):
        built = form_matrix(form, cut)
        if theta == 0.0:
            assert built.dtype == np.float64
        want = _dense_form_matrix(form, cut)
        assert np.max(np.abs(as_dense(built) - want)) <= 1e-14 * np.max(np.abs(want))


def test_cutoffs_differing_in_one_field_get_their_own_pieces():
    pieces = effective._form_pieces(FockCutoff(5, 6))
    assert effective._form_pieces(FockCutoff(5, 6)) is pieces
    for other in (FockCutoff(6, 5), FockCutoff(5, 7), FockCutoff(5)):
        theirs = effective._form_pieces(other)
        assert theirs is not pieces
        assert theirs[0][0].shape == (other.dim, other.dim)


def test_effective_guards_run_before_the_piece_cache():
    effective._form_pieces.cache_clear()
    form = effective_form("cs_np", from_g(0.5))
    with pytest.raises(TruncationError):
        form_matrix(form, FockCutoff(20, 20), max_dim=100)
    with pytest.raises(ValueError, match="mode"):
        form_matrix(form, FockCutoff(20))
    with pytest.raises(ValueError, match="mode"):
        effective_param_derivative("cs_np", from_g(0.5), FockCutoff(20), "omega")
    assert effective._form_pieces.cache_info().currsize == 0


@pytest.mark.parametrize("model,g", [("cs_np", 0.7), ("co_sp", 1.3)])
def test_derivative_matrices_do_not_rebuild_the_hamiltonian(model, g, monkeypatch):
    p = from_g(g, gamma=2.0, eta=1.5, theta=0.35, j=3.0)
    cut = FockCutoff(6, 6) if model.startswith("cs") else FockCutoff(10)
    expected = {which: as_dense(form_matrix(form_param_derivative(model, p, which), cut))
                for which in ("omega", "Omega", "lambda1", "lambda2")}
    expected["theta"] = as_dense(theta_derivative_matrix(effective_form(model, p), cut))
    builds = []
    monkeypatch.setattr(effective, "form_matrix", lambda *a, **k: builds.append(a))
    for which, want in expected.items():
        assert np.array_equal(as_dense(effective_param_derivative(model, p, cut, which)), want)
    assert builds == []


def test_points_on_one_cutoff_build_the_kronecker_products_once(monkeypatch):
    calls = []
    kron = Piece.kron

    def counting_kron(*args, **kwargs):
        calls.append(1)
        return kron(*args, **kwargs)

    monkeypatch.setattr(Piece, "kron", counting_kron)
    effective._form_pieces.cache_clear()
    cut = FockCutoff(8, 8)
    for k, g in enumerate(np.linspace(0.2, 0.9, 8)):
        p = from_g(g, gamma=2.0, eta=1.5, theta=0.1 * k, j=3.0)
        form_matrix(effective_form("cs_np", p), cut)
        for which in ("omega", "Omega", "lambda1", "lambda2", "theta"):
            effective_param_derivative("cs_np", p, cut, which)
        assert len(calls) == 5


@pytest.mark.parametrize("model,g,cut", [("cs_np", 0.8, FockCutoff(10, 10)),
                                         ("co_np", 0.8, FockCutoff(20))])
def test_tensor_evaluation_leaves_the_cached_form_pieces_unchanged(model, g, cut):
    p = from_g(g, gamma=2.0, eta=1.5, theta=0.7, j=3.0)
    pieces = effective._form_pieces(cut)
    cached = [piece for piece, _ in pieces]
    before = [[arr.copy() for arr in (m.rows, m.cols, m.vals)] for m in cached]
    labels = ("theta", "omega", "Omega", "lambda1", "lambda2")
    for method in ("sum", "solve", "fd"):
        qgt_components(model, p, cut, labels=labels, method=method)
    assert effective._form_pieces(cut) is pieces
    for mat, copy in zip(cached, before):
        for arr, saved in zip((mat.rows, mat.cols, mat.vals), copy):
            assert np.array_equal(arr, saved)
    with pytest.raises(ValueError):
        cached[0].vals[0] = 1.0


@pytest.mark.parametrize("g", [0.3, 0.9])
def test_co_normal_counterrotating_derivative_at_infinite_gamma(g):
    # lambda2 = 0 here, the edge of the coupling domain
    p = from_g(g, gamma=math.inf, eta=1.5, j=3.0)
    dform = form_param_derivative("co_np", p, "lambda2")
    assert dform.squeeze == pytest.approx(-p.lambda1 / p.Omega, abs=1e-8)
    assert dform.n_a == pytest.approx(0.0, abs=1e-8)
    assert dform.const == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("model,cut", [("cs_np", FockCutoff(6, 6)), ("co_np", FockCutoff(10))])
@pytest.mark.parametrize("which", ["lambda1", "lambda2"])
def test_coupling_derivatives_exist_at_zero_coupling(model, cut, which):
    p = from_g(0.0, eta=1.5, j=3.0)
    h = 1e-3
    f0, f1, f2 = (as_dense(form_matrix(effective_form(model, p.shifted(which, k * h)), cut))
                  for k in range(3))
    # both forms are at most quadratic in a coupling, where this stencil is exact
    want = (-3 * f0 + 4 * f1 - f2) / (2 * h)
    got = as_dense(effective_param_derivative(model, p, cut, which))
    assert np.max(np.abs(got - want)) < 1e-8
