"""Tests for eigensolvers, gauge fixing and the symplectic oracle."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from adicke import (ConvergenceError, DegeneracyError, FockCutoff, ModelParams,
                    NormalModes, Truncation, TruncationError, bogoliubov_modes,
                    _blas, dense_eigensystem, full_hamiltonian, gauge_fix, lowest_k,
                    spectra)
from adicke.effective import (QuadraticBosonForm, co_normal_form, cs_normal_form,
                              cs_superradiant_form, co_superradiant_form,
                              effective_form, form_matrix)
from adicke.spectra import (DENSE_SOLVE_LIMIT, check_symplectic, gershgorin_floor,
                            single_particle_matrix, symplectic_transform)


def test_dense_diagonal_matrix():
    diag = np.array([3.0, -1.0, 2.0, 0.0])
    es = dense_eigensystem(np.diag(diag))
    assert np.allclose(es.energies, np.sort(diag))


def test_dense_decoupled_ground():
    p = ModelParams(omega=1.0, Omega=1.0, j=2.0)
    t = Truncation.for_spin(6, p.j, "positive")
    es = dense_eigensystem(full_hamiltonian(p, t))
    assert es.energies[0] == pytest.approx(-p.j * p.Omega, abs=1e-13)


def test_dense_random_hermitian_reconstruction():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    herm = (raw + raw.conj().T) / 2
    es = dense_eigensystem(herm)
    rebuilt = es.states @ np.diag(es.energies) @ es.states.conj().T
    assert np.max(np.abs(rebuilt - herm)) < 1e-10
    es.check(herm)  # residuals and orthonormality


@pytest.mark.parametrize("n_max", [15, 42, 63])
def test_complex_dense_spectrum_matches_scipy(n_max):
    # numpy's eigh decomposes every dense matrix; scipy's is the oracle of the
    # complex one, at sector dimensions 64, 172 and 256
    import scipy.linalg as la
    p = ModelParams.from_ratios(0.9, gamma=2.0, eta=1.0, theta=0.7, j=3.5)
    ham = full_hamiltonian(p, Truncation.for_spin(n_max, p.j, "positive"))
    assert ham.dtype == np.complex128 and 64 <= ham.shape[0] <= DENSE_SOLVE_LIMIT
    es = dense_eigensystem(ham)
    energies, states = la.eigh(ham)
    assert np.max(np.abs(es.energies - energies)) <= 1e-12 * np.max(np.abs(energies))
    assert np.max(np.abs(es.states - gauge_fix(states))) <= 1e-10


@pytest.mark.parametrize("energies,states", [
    ([math.nan, 2.0], np.full((3, 2), math.nan)),
    ([1.0, math.nan], np.eye(3)[:, :2]),
])
def test_check_refuses_nan_pairs(energies, states):
    es = spectra.Eigensystem(energies=np.array(energies), states=states)
    with pytest.raises(ConvergenceError, match="residual"):
        es.check(np.diag([1.0, 2.0, 3.0]))


def test_dense_limit_error():
    big = np.eye(10)
    with pytest.raises(TruncationError, match="lowest_k"):
        dense_eigensystem(big, dense_limit=5)


def test_lowest_k_matches_dense_ground():
    p = ModelParams.from_ratios(0.8, gamma=2.0, eta=1.0, theta=0.2, j=5.0)
    t = Truncation.for_spin(30, p.j, "positive")
    ham = full_hamiltonian(p, t)
    dense = dense_eigensystem(ham)
    partial = lowest_k(ham, 3)
    assert abs(partial.energies[0] - dense.energies[0]) < 1e-9
    assert np.max(np.abs(partial.energies - dense.energies[:3])) < 1e-9


def test_lowest_k_diagonal():
    diag = np.array([5.0, 1.0, 4.0, 0.5, 2.0, 9.0, 7.0, 3.0])
    es = lowest_k(np.diag(diag), 3)
    assert np.allclose(es.energies, [0.5, 1.0, 2.0], atol=1e-12)


def test_lowest_k_resolves_cross_sector_doublet():
    # above the transition the two parity sectors host a near-degenerate pair
    p = ModelParams.from_ratios(1.2, gamma=2.0, eta=1.0, j=5.0)
    t = Truncation.for_spin(40, p.j, "full")
    ham = full_hamiltonian(p, t)
    dense = dense_eigensystem(ham)
    partial = lowest_k(ham, 2)
    assert np.max(np.abs(partial.energies - dense.energies[:2])) < 1e-9
    splitting = dense.energies[1] - dense.energies[0]
    next_gap = dense.energies[2] - dense.energies[1]
    assert splitting < 0.1 * next_gap  # genuinely close pair, resolved anyway


def test_lowest_k_gauge_determinism():
    p = ModelParams.from_ratios(0.9, gamma=1.5, eta=1.0, theta=0.6, j=3.0)
    t = Truncation.for_spin(25, p.j, "positive")
    ham = full_hamiltonian(p, t)
    first = lowest_k(ham, 2)
    second = lowest_k(ham, 2)
    assert np.max(np.abs(first.states - second.states)) < 1e-12


def test_lowest_k_goes_on_past_an_invariant_subspace():
    # five levels, each 60-fold: one start vector's Krylov space is spent after
    # five steps, and each new direction finds every level once more
    levels = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 60)
    es = lowest_k(np.diag(levels), 3)
    assert np.max(np.abs(es.energies - 1.0)) < 1e-12
    es.check(np.diag(levels))


def test_gauge_fix_identity_on_compliant():
    v = np.array([0.1, 0.9, 0.3], dtype=complex)
    v /= np.linalg.norm(v)
    assert np.array_equal(gauge_fix(v), v)


def test_gauge_fix_phase_invariance():
    rng = np.random.default_rng(2)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    assert np.max(np.abs(gauge_fix(v * np.exp(0.7j)) - gauge_fix(v))) < 1e-14


def test_gauge_fix_tie_breaks_to_lowest_index():
    amp = 1 / math.sqrt(2)
    v = np.array([amp, (amp - 1e-14) * np.exp(1.3j)], dtype=complex)
    out = gauge_fix(v)
    assert out[0].imag == 0.0 and out[0].real > 0


def _gauge_fix_one(v, tie_tol=1e-12):
    """The rule gauge_fix applies, one state at a time, as a loop would."""
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v.copy()
    pivot = int(np.flatnonzero(mags >= top * (1.0 - tie_tol))[0])
    phase = v[pivot] / mags[pivot]
    return v * np.conj(phase)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_gauge_fix_columns_match_the_per_column_rule(dtype):
    rng = np.random.default_rng(11)
    states = rng.normal(size=(8, 6)).astype(dtype)
    if dtype is np.complex128:
        states = states + 1j * rng.normal(size=(8, 6))
    phase = np.exp(0.4j) if dtype is np.complex128 else -1.0
    states[:, 1] = 0.0
    states[[2, 5], 1] = [-0.6, 0.6 * phase]                  # exact tie: index 2 wins
    states[:, 2] = 0.1
    states[[1, 6], 2] = [0.3 * (1 - 1e-13) * phase, -0.3]   # tie within tie_tol: index 1
    states[:, 3] = 0.0                                      # zero column stays zero
    states[4, 4] = -10.0                                    # negative pivot
    columns = np.stack([_gauge_fix_one(states[:, k]) for k in range(states.shape[1])], axis=1)
    fixed = gauge_fix(states)
    assert fixed.dtype == states.dtype
    assert np.array_equal(fixed, columns)
    assert np.array_equal(gauge_fix(states[:, 2]), columns[:, 2])
    vectors = np.linalg.eigh(states.T.conj() @ states)[1]
    assert np.array_equal(gauge_fix(vectors), np.stack(
        [_gauge_fix_one(vectors[:, k]) for k in range(vectors.shape[1])], axis=1))


# ---------------------------------------------------------------------------
# the certified shift of the sparse route


def _above_limit_hamiltonian(theta=0.0):
    p = ModelParams.from_ratios(0.9, gamma=2.0, eta=1.0, theta=theta, j=5.0)
    ham = full_hamiltonian(p, Truncation.for_spin(60, p.j, "positive"))
    assert ham.shape[0] > DENSE_SOLVE_LIMIT
    return p, ham


def _assert_pairs_match_dense(es, ham, tol=1e-9):
    dense = dense_eigensystem(ham)
    assert np.max(np.abs(es.energies - dense.energies[:es.count])) < tol
    assert np.max(np.abs(es.states - dense.states[:, :es.count])) < tol


def test_estimate_above_the_ground_energy_is_widened(monkeypatch):
    _, ham = _above_limit_hamiltonian()
    dense = dense_eigensystem(ham)
    e0, gap = float(dense.energies[0]), dense.gap
    calls = []
    factor = _blas.pbtrf
    monkeypatch.setattr(_blas, "pbtrf", lambda *a, **k: calls.append(1) or factor(*a, **k))
    estimate = NormalModes(energies=np.array([gap]), ground_energy=e0 + 0.2 * gap, stable=True)
    es = lowest_k(ham, 2, estimate=estimate)
    # e0 + 0.1 gap fails the certificate; the next shift, 4x further down, passes
    assert len(calls) == 2
    assert es.factor.sigma == pytest.approx(e0 - 0.2 * gap, abs=1e-12)
    _assert_pairs_match_dense(es, ham)


@pytest.mark.parametrize("case", ["missing", "nan", "unstable"])
def test_missing_or_unstable_estimate_starts_at_the_gershgorin_floor(case):
    _, ham = _above_limit_hamiltonian()
    dense = dense_eigensystem(ham)
    # the unstable estimate carries a usable energy that must still be ignored
    estimate = {
        "missing": None,
        "nan": NormalModes(energies=np.array([math.nan]), ground_energy=math.nan, stable=True),
        "unstable": NormalModes(energies=np.array([dense.gap]),
                                ground_energy=float(dense.energies[0]), stable=False),
    }[case]
    es = lowest_k(ham, 2, estimate=estimate)
    floor = gershgorin_floor(ham)
    assert floor < es.energies[0]
    assert es.factor.sigma == floor - 1e-8 * max(1.0, abs(floor))
    _assert_pairs_match_dense(es, ham)


@pytest.mark.parametrize("case", ["nan_diagonal", "nan_coupling", "above_without_floor"])
def test_no_pairs_without_a_certified_shift(case, monkeypatch):
    _, ham = _above_limit_hamiltonian()
    dense = dense_eigensystem(ham)
    e0, gap = float(dense.energies[0]), dense.gap
    estimate = NormalModes(energies=np.array([gap]), ground_energy=e0 + 0.5 * gap, stable=True)
    ham = ham.toarray()
    partner = int(np.flatnonzero(ham[100]).max())  # coupled to state 100
    if case == "nan_diagonal":
        ham[100, 100] = math.nan
    elif case == "nan_coupling":
        ham[100, partner] = ham[partner, 100] = math.nan
    else:
        # every shift the ladder tries, the last resort included, is above E0
        monkeypatch.setattr(spectra, "gershgorin_floor", lambda op: e0 + 0.25 * gap)
    with pytest.raises(ConvergenceError):
        lowest_k(ham, 2, estimate=estimate)


def test_shift_invert_pairs_of_a_complex_hermitian_matrix():
    p, ham = _above_limit_hamiltonian(theta=0.7)
    assert ham.dtype == np.complex128
    es = lowest_k(ham, 3, estimate=bogoliubov_modes(cs_normal_form(p)))
    assert es.factor.sigma < es.energies[0]
    _assert_pairs_match_dense(es, ham)


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_lanczos_pairs_match_arpack(theta):
    import scipy.sparse.linalg as spla
    p, ham = _above_limit_hamiltonian(theta)
    es = lowest_k(ham, 2, estimate=bogoliubov_modes(cs_normal_form(p)))
    dim = ham.shape[0]
    opinv = spla.LinearOperator((dim, dim), matvec=es.factor.solve, dtype=ham.dtype)
    energies, states = spla.eigsh(sp.csr_array(ham.toarray()), k=2, sigma=es.factor.sigma,
                                  which="LM", OPinv=opinv, v0=spectra._start_vector(dim))
    order = np.argsort(energies)
    assert np.max(np.abs(es.energies - energies[order])) < 1e-13
    assert np.max(np.abs(es.states - gauge_fix(states[:, order]))) < 1e-12


@pytest.mark.parametrize("kind", ["ndarray"])
def test_lowest_k_takes_any_hermitian_input(kind):
    p, ham = _above_limit_hamiltonian(theta=0.7)
    estimate = bogoliubov_modes(cs_normal_form(p))
    other = ham.toarray()
    want, got = lowest_k(ham, 2, estimate=estimate), lowest_k(other, 2, estimate=estimate)
    assert np.array_equal(got.factor.factor, want.factor.factor)
    assert np.array_equal(got.energies, want.energies)
    assert np.array_equal(got.states, want.states)


def test_lanczos_step_cap_raises_and_returns_no_pair(monkeypatch):
    p, ham = _above_limit_hamiltonian()
    estimate = bogoliubov_modes(cs_normal_form(p))
    assert lowest_k(ham, 2, estimate=estimate).count == 2
    monkeypatch.setattr(spectra, "LANCZOS_MAXITER", 4)
    with pytest.raises(ConvergenceError, match="no 2 converged pairs in 4 steps"):
        lowest_k(ham, 2, estimate=estimate)


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_banded_routines_fall_back_to_scipy_bit_for_bit(theta, monkeypatch):
    p, ham = _above_limit_hamiltonian(theta)
    estimate = bogoliubov_modes(cs_normal_form(p))
    rhs = np.random.default_rng(3).normal(size=(ham.shape[0], 2)).astype(ham.dtype)
    factor = spectra.shift_invert(ham, estimate.ground_energy, estimate.gap)
    bundled = (factor.factor, factor.solve(rhs), ham @ rhs)
    monkeypatch.setattr(_blas, "_openblas", lambda: ())  # numpy bundles nothing
    _blas._banded.cache_clear()
    try:
        fallback = spectra.shift_invert(ham, estimate.ground_energy, estimate.gap)
        assert fallback.sigma == factor.sigma
        assert np.array_equal(fallback.factor, bundled[0])
        np.testing.assert_allclose(fallback.solve(rhs), bundled[1], rtol=1e-13)
        np.testing.assert_allclose(ham @ rhs, bundled[2], rtol=1e-13)
        kind = "z" if theta else "d"
        assert _blas._banded(kind).pbtrf.__qualname__.startswith("_scipy_banded")
    finally:
        _blas._banded.cache_clear()


# ---------------------------------------------------------------------------
# symplectic normal modes


def test_bogoliubov_no_squeezing_returns_coefficient():
    form = QuadraticBosonForm(modes=1, n_a=0.73, const=0.0)
    modes = bogoliubov_modes(form)
    assert modes.stable and modes.energies[0] == pytest.approx(0.73, abs=1e-15)


def test_bogoliubov_one_mode_closed_form():
    p = ModelParams.from_ratios(0.5, gamma=1.0, eta=1.0, j=1.0)
    modes = bogoliubov_modes(co_normal_form(p))
    a_coeff = 1.0 - (p.lambda1**2 + p.lambda2**2)
    b_coeff = 2 * p.lambda1 * p.lambda2
    assert modes.energies[0] == pytest.approx(math.sqrt(a_coeff**2 - b_coeff**2), rel=1e-14)


def test_bogoliubov_instability_flagged():
    form = QuadraticBosonForm(modes=1, n_a=0.4, squeeze=0.5 + 0j, const=0.0)
    modes = bogoliubov_modes(form)
    assert not modes.stable
    assert math.isnan(modes.ground_energy)


def test_bogoliubov_two_mode_known_values():
    # resonant symmetric couplings at g = 0.5: normal modes sqrt(1 -+ g)
    p = ModelParams.from_ratios(0.5, gamma=1.0, eta=1.0, j=10.0)
    modes = bogoliubov_modes(cs_normal_form(p))
    assert modes.energies == pytest.approx([math.sqrt(0.5), math.sqrt(1.5)], rel=1e-12)


def test_bogoliubov_ground_energy_matches_matrix():
    p = ModelParams.from_ratios(0.5, gamma=1.0, eta=1.0, j=10.0)
    modes = bogoliubov_modes(cs_normal_form(p))
    es = dense_eigensystem(form_matrix(cs_normal_form(p), FockCutoff(24, 24)))
    assert es.energies[0] == pytest.approx(modes.ground_energy, abs=1e-10)


@pytest.mark.parametrize("model,g_range", [
    ("cs_np", (0.2, 0.9)), ("cs_sp", (1.15, 2.0)),
    ("co_np", (0.2, 0.9)), ("co_sp", (1.15, 2.0)),
])
def test_bogoliubov_matches_matrix_gap(model, g_range):
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = ModelParams.from_ratios(rng.uniform(*g_range),
                                    gamma=rng.uniform(0.5, 3.0),
                                    eta=rng.uniform(0.5, 2.0),
                                    theta=rng.uniform(0, 2 * math.pi), j=4.0)
        form = effective_form(model, p)
        modes = bogoliubov_modes(form)
        assert modes.stable
        cut = FockCutoff(60, 60) if model.startswith("cs") else FockCutoff(60)
        es = lowest_k(form_matrix(form, cut), 2)
        matrix_gap = es.energies[1] - es.energies[0]
        assert matrix_gap == pytest.approx(modes.gap, rel=1e-6)


# ---------------------------------------------------------------------------
# the symplectic transform of a quadratic form


@pytest.mark.parametrize("model,g", [("cs_np", 0.7), ("cs_sp", 1.3), ("co_np", 0.7),
                                     ("co_sp", 1.3)])
def test_single_particle_matrix_is_the_documented_block_form(model, g):
    # theta = 0.7 makes hop, pair and squeeze complex
    form = effective_form(model, ModelParams.from_ratios(g, gamma=2.0, eta=1.5, theta=0.7,
                                                         j=4.0))
    assert any(np.iscomplex(c) for c in (form.hop, form.pair, form.squeeze))
    h = np.array([[form.n_a, form.hop], [np.conj(form.hop), form.n_b]], dtype=complex)
    delta = np.array([[2.0 * form.squeeze, form.pair], [form.pair, 0.0]], dtype=complex)
    want = np.block([[h, delta], [np.conj(delta), np.conj(h)]])
    if form.modes == 1:
        want = want[np.ix_((0, 2), (0, 2))]
    got = single_particle_matrix(form)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model,g", [("cs_np", 0.7), ("cs_sp", 1.3), ("co_np", 0.7),
                                     ("co_sp", 1.3)])
@pytest.mark.parametrize("theta", [0.0, 0.9])
def test_symplectic_transform_diagonalizes_every_form(model, g, theta):
    form = effective_form(model, ModelParams.from_ratios(g, gamma=2.0, eta=1.5, theta=theta,
                                                         j=4.0))
    eps, t = symplectic_transform(form)
    check_symplectic(form, eps, t)
    eta = np.repeat([1.0, -1.0], form.modes)
    assert np.abs(t.conj().T @ np.diag(eta) @ t - np.diag(eta)).max() < 1e-12
    diag = t.conj().T @ single_particle_matrix(form) @ t
    assert np.abs(diag - np.diag(np.r_[eps, eps])).max() < 1e-12
    # the Bogoliubov (alpha = T beta) structure: the lower columns are the
    # conjugate swap of the upper ones
    n = form.modes
    assert np.abs(t[n:, n:] - t[:n, :n].conj()).max() < 1e-12
    assert eps == pytest.approx(bogoliubov_modes(form).energies, rel=1e-12)


def test_symplectic_transform_refuses_an_unstable_form():
    # each normal-phase form past the critical coupling
    for model in ("co_np", "cs_np"):
        form = effective_form(model, ModelParams.from_ratios(1.2, gamma=1.0, j=4.0))
        assert not bogoliubov_modes(form).stable
        with pytest.raises(ConvergenceError, match="positive definite"):
            symplectic_transform(form)


def test_check_symplectic_refuses_a_perturbed_transform():
    for model, g in (("cs_np", 0.7), ("co_sp", 1.3)):
        form = effective_form(model, ModelParams.from_ratios(g, gamma=2.0, j=4.0))
        eps, t = symplectic_transform(form)
        with pytest.raises(ConvergenceError, match="defect"):
            check_symplectic(form, eps, t + 1e-6 * np.abs(t).max())
        with pytest.raises(ConvergenceError, match="defect"):
            check_symplectic(form, eps * (1.0 + 1e-6), t)


def test_check_symplectic_refuses_a_mode_softer_than_roundoff():
    # within 1e-9 of the critical point the soft mode (about 3e-5) moves by
    # more than MODE_RTOL of itself under one unit of roundoff in M
    for g, resolved in ((1.0 - 1e-6, True), (1.0 - 1e-9, False)):
        form = cs_normal_form(ModelParams.from_ratios(g, gamma=2.0, j=10.0))
        eps, t = symplectic_transform(form)
        if resolved:
            check_symplectic(form, eps, t)
        else:
            with pytest.raises(DegeneracyError, match="gapless"):
                check_symplectic(form, eps, t)


# ---------------------------------------------------------------------------
# stacks: several matrices of one size in one shift-invert Lanczos


def _stack_of_three():
    # gamma = inf drops the a'J+ coupling, so that member's band is one
    # superdiagonal narrower and the stack pads it
    t = Truncation.for_spin(60, 5.0, "positive")
    points = [ModelParams.from_ratios(0.9, gamma=gamma, eta=eta, j=5.0)
              for gamma, eta in ((2.0, 1.0), (math.inf, 2.0), (0.5, 3.0))]
    alone = [full_hamiltonian(p, t) for p in points]
    estimates = [bogoliubov_modes(cs_normal_form(p)) for p in points]
    return points, t, alone, estimates


def test_stacked_pairs_match_each_member_alone():
    from adicke.model import full_hamiltonian_stack
    points, t, alone, estimates = _stack_of_three()
    widths = [ham.band.shape[0] for ham in alone]
    assert len(set(widths)) == 2
    stack = full_hamiltonian_stack(points, t)
    assert stack.matrix.band.shape == (max(widths), 3 * alone[0].shape[0])
    stacked = lowest_k(stack, 2, estimate=estimates)
    for es, ham, estimate in zip(stacked, alone, estimates):
        want = lowest_k(ham, 2, estimate=estimate)
        assert es.factor.sigma == want.factor.sigma
        assert np.max(np.abs(es.energies - want.energies)) < 1e-12
        assert abs(es.gap - want.gap) < 1e-12
        assert np.max(np.abs(es.states - want.states)) < 1e-12
        es.check(ham)


def test_a_failed_member_fails_alone(monkeypatch):
    from adicke.model import BandStack, HermitianBand
    points, t, alone, estimates = _stack_of_three()
    band = np.asfortranarray(np.concatenate(
        [np.pad(ham.band, ((alone[0].band.shape[0] - ham.band.shape[0], 0), (0, 0)))
         for ham in alone], axis=1))
    band[-1, alone[0].shape[0] + 100] = math.nan  # the middle member has no factor
    stacked = lowest_k(BandStack(HermitianBand(band), 3), 2, estimate=estimates)
    assert isinstance(stacked[1], ConvergenceError)
    for b in (0, 2):
        want = lowest_k(alone[b], 2, estimate=estimates[b])
        assert np.max(np.abs(stacked[b].states - want.states)) < 1e-12
    # without an estimate the first member starts at the Gershgorin floor and
    # needs more steps than the others: a cap between fails it alone
    monkeypatch.setattr(spectra, "LANCZOS_MAXITER", 21)
    stacked = lowest_k(BandStack(HermitianBand(band), 3), 2,
                       estimate=[None, estimates[1], estimates[2]])
    assert isinstance(stacked[0], ConvergenceError) and "in 21 steps" in str(stacked[0])
    assert isinstance(stacked[1], ConvergenceError) and isinstance(stacked[2], spectra.Eigensystem)
    with pytest.raises(ValueError, match="estimates"):
        lowest_k(BandStack(HermitianBand(band), 3), 2, estimate=estimates[:2])
