"""Tests for the product-basis model builders."""

import math

import numpy as np
import pytest

from adicke import (ModelParams, Truncation, TruncationError, full_hamiltonian, model,
                    param_derivative, project_parity, qgt_components)
from adicke.model import (PARAMETER_LABELS, HermitianBand, Piece, as_band, as_dense,
                          parity_indices, photon_number_diagonal)
from operators import boson_operators, parity_operator, spin_operators


def dense(op):
    """An operator as an ndarray: a matrix, dense or banded, or a cached piece's triplets."""
    if isinstance(op, Piece):
        out = np.zeros(op.shape)
        out[op.rows, op.cols] = op.vals
        return out
    return as_dense(op)


# ---------------------------------------------------------------------------
# parameters and derived ratios


def test_derived_couplings_critical_symmetric_point():
    p = ModelParams(omega=1, Omega=1, lambda1=0.5, lambda2=0.5)
    assert (p.g, p.gamma, p.eta) == (1.0, 1.0, 1.0)


def test_derived_couplings_asymmetric():
    p = ModelParams(omega=1, Omega=1, lambda1=0.5, lambda2=0.25)
    g, gamma, eta = p.g, p.gamma, p.eta
    assert g == pytest.approx(0.75, abs=1e-15)
    assert gamma == pytest.approx(2.0, abs=1e-15)
    assert eta == 1.0


def test_derived_couplings_decoupled():
    p = ModelParams(omega=0.1, Omega=1, lambda1=0.0, lambda2=0.0)
    g, gamma, eta = p.g, p.gamma, p.eta
    assert g == 0.0
    assert gamma == 1.0  # symmetric decoupled point, not an error
    assert eta == pytest.approx(10.0)


def test_gamma_infinite_flag():
    p = ModelParams(lambda1=0.3, lambda2=0.0)
    assert math.isinf(p.gamma)


def test_from_ratios_round_trip():
    p = ModelParams.from_ratios(0.8, gamma=3.0, eta=2.0, omega=0.7, theta=0.4, j=4.5)
    assert p.g == pytest.approx(0.8, rel=1e-14)
    assert p.gamma == pytest.approx(3.0, rel=1e-14)
    assert p.eta == pytest.approx(2.0, rel=1e-14)
    pinf = ModelParams.from_ratios(0.5, gamma=math.inf)
    assert pinf.lambda2 == 0.0 and math.isinf(pinf.gamma)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega=-1.0)
    with pytest.raises(ValueError):
        ModelParams(lambda1=-0.1)
    with pytest.raises(ValueError):
        ModelParams(j=0.7)
    with pytest.raises(ValueError):
        Truncation(n_max=0, spin_dim=2)
    with pytest.raises(ValueError):
        Truncation(n_max=4, spin_dim=2, parity_sector="bogus")


# ---------------------------------------------------------------------------
# elementary operators


def test_boson_two_level():
    a, adag, n = boson_operators(1)
    assert np.array_equal(dense(a), [[0, 1], [0, 0]])
    assert np.array_equal(dense(adag), dense(a).T)
    assert np.array_equal(dense(n), np.diag([0.0, 1.0]))


def test_boson_ladder_element():
    a, _, _ = boson_operators(5)
    assert dense(a)[4, 5] == pytest.approx(math.sqrt(5), rel=1e-15)


@pytest.mark.parametrize("n_max", [1, 6, 17])
def test_boson_commutator_corner_defect(n_max):
    # truncation confines the [a, a'] defect to the single corner entry, where
    # (a a')_{n_max,n_max} falls to zero and the commutator reads -(n_max + 1) - 0
    a, adag, _ = boson_operators(n_max)
    defect = dense(a) @ dense(adag) - dense(adag) @ dense(a) - np.eye(n_max + 1)
    assert defect[n_max, n_max] == pytest.approx(-(n_max + 1), abs=1e-12)
    defect[n_max, n_max] = 0.0
    assert np.max(np.abs(defect)) < 1e-12


def test_spin_half_jz():
    _, _, jz = spin_operators(0.5)
    assert np.array_equal(dense(jz), np.diag([-0.5, 0.5]))


def test_spin_one_lowering_element():
    jp, jm, _ = spin_operators(1.0)
    # <1,0| J- |1,1>: m=1 column is index 2, m=0 row is index 1
    assert dense(jm)[1, 2] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert np.allclose(dense(jm), dense(jp).conj().T)


def test_spin_casimir_identity():
    j = 10.0
    jp, jm, jz = (dense(o) for o in spin_operators(j))
    casimir = jp @ jm + jm @ jp + 2 * jz @ jz
    assert np.max(np.abs(casimir - 2 * j * (j + 1) * np.eye(int(2 * j) + 1))) < 1e-10


def test_spin_commutation_exact():
    jp, jm, jz = (dense(o) for o in spin_operators(3.5))
    assert np.max(np.abs(jz @ jp - jp @ jz - jp)) < 1e-12
    assert np.max(np.abs(jz @ jm - jm @ jz + jm)) < 1e-12


# ---------------------------------------------------------------------------
# full Hamiltonian


def _independent_full_matrix(p: ModelParams, n_max: int) -> np.ndarray:
    """Loop-built oracle for the product-basis Hamiltonian (photon-major)."""
    sdim = p.spin_dim
    dim = (n_max + 1) * sdim
    h = np.zeros((dim, dim), dtype=complex)
    ms = [-p.j + k for k in range(sdim)]
    norm = 1.0 / math.sqrt(2 * p.j)
    phase = np.exp(1j * p.theta)

    def idx(n, k):
        return n * sdim + k

    for n in range(n_max + 1):
        for k, m in enumerate(ms):
            h[idx(n, k), idx(n, k)] += p.omega * n + p.Omega * m
            # e^{i theta} a' J- |n, m> -> sqrt(n+1) sqrt(j(j+1)-m(m-1)) |n+1, m-1>
            if n + 1 <= n_max and k - 1 >= 0:
                amp = math.sqrt(n + 1) * math.sqrt(p.j * (p.j + 1) - m * (m - 1))
                h[idx(n + 1, k - 1), idx(n, k)] += p.lambda1 * norm * phase * amp
            # e^{i theta} a' J+ |n, m> -> sqrt(n+1) sqrt(j(j+1)-m(m+1)) |n+1, m+1>
            if n + 1 <= n_max and k + 1 < sdim:
                amp = math.sqrt(n + 1) * math.sqrt(p.j * (p.j + 1) - m * (m + 1))
                h[idx(n + 1, k + 1), idx(n, k)] += p.lambda2 * norm * phase * amp
    return h + h.conj().T - np.diag(np.diag(h).real)


def test_decoupled_hamiltonian_is_diagonal():
    p = ModelParams(omega=1.0, Omega=1.0, j=2.0)
    t = Truncation.for_spin(8, p.j, "full")
    h = dense(full_hamiltonian(p, t))
    assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-15
    assert np.min(np.diag(h).real) == pytest.approx(-p.j * p.Omega, abs=1e-14)


def test_reduces_to_conventional_dicke():
    # symmetric couplings: entrywise equal to (lam/sqrt(2j)) (a+a')(J+ + J-) + diag
    lam = 0.35
    p = ModelParams(omega=1.0, Omega=0.8, lambda1=lam, lambda2=lam, theta=0.0, j=1.5)
    t = Truncation.for_spin(6, p.j, "full")
    h = dense(full_hamiltonian(p, t))
    a, adag, n = (dense(o) for o in boson_operators(6))
    jp, jm, jz = (dense(o) for o in spin_operators(p.j))
    eye_b, eye_s = np.eye(7), np.eye(4)
    dicke = (p.omega * np.kron(n, eye_s) + p.Omega * np.kron(eye_b, jz)
             + (lam / math.sqrt(2 * p.j)) * np.kron(a + adag, jp + jm))
    assert np.max(np.abs(h - dicke)) < 1e-13


def test_ground_energy_against_dense_oracle():
    p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, theta=0.0, j=10.0)
    t = Truncation.for_spin(40, p.j, "positive")
    h = dense(full_hamiltonian(p, t))
    package_e0 = np.linalg.eigvalsh(h)[0]
    oracle = np.linalg.eigvalsh(_independent_full_matrix(p, 40))[0]
    assert package_e0 == pytest.approx(oracle, abs=1e-10)


def test_full_matrix_matches_independent_builder_with_phase():
    p = ModelParams.from_ratios(0.7, gamma=3.0, eta=1.4, theta=0.9, j=2.5)
    t = Truncation.for_spin(7, p.j, "full")
    assert np.max(np.abs(dense(full_hamiltonian(p, t))
                         - _independent_full_matrix(p, 7))) < 1e-13


def test_hermiticity_random_points():
    rng = np.random.default_rng(11)
    for _ in range(4):
        p = ModelParams(omega=rng.uniform(0.5, 2), Omega=rng.uniform(0.5, 2),
                        lambda1=rng.uniform(0, 1), lambda2=rng.uniform(0, 1),
                        theta=rng.uniform(0, 2 * math.pi), j=2.0)
        t = Truncation.for_spin(10, p.j, "full")
        h = full_hamiltonian(p, t)
        assert abs(h - h.conj().T).max() < 1e-12


def test_dimension_guard(monkeypatch):
    monkeypatch.setattr(model, "DEFAULT_MAX_DIM", 100)
    p = ModelParams(j=1.0)
    t = Truncation.for_spin(50, p.j)
    with pytest.raises(TruncationError):
        full_hamiltonian(p, t)


# ---------------------------------------------------------------------------
# parity


def test_parity_eigenvalues_and_square():
    t = Truncation.for_spin(3, 1.5, "full")
    pi = dense(parity_operator(t))
    assert np.array_equal(pi, np.diag(np.diag(pi)))
    assert set(np.unique(np.diag(pi).real)) == {-1.0, 1.0}
    assert np.max(np.abs(pi @ pi - np.eye(t.dim))) == 0.0
    # |0, -j> has parity +1, |1, -j> has parity -1
    assert pi[0, 0] == 1.0
    assert pi[t.spin_dim, t.spin_dim] == -1.0


def test_hamiltonian_commutes_with_parity():
    rng = np.random.default_rng(3)
    p = ModelParams(omega=1.2, Omega=0.7, lambda1=rng.uniform(0, 1),
                    lambda2=rng.uniform(0, 1), theta=1.3, j=2.0)
    t = Truncation.for_spin(12, p.j, "full")
    h = dense(full_hamiltonian(p, t))
    pi = dense(parity_operator(t))
    assert np.max(np.abs(h @ pi - pi @ h)) < 1e-12


def test_sector_dimensions_by_enumeration():
    t = Truncation.for_spin(1, 0.5, "full")
    # four states: (n, m+j) in {(0,0),(0,1),(1,0),(1,1)}; parity (-1)^(n+m+j)
    labels = [(-1) ** (n + k) for n in (0, 1) for k in (0, 1)]
    assert labels.count(1) == 2 and labels.count(-1) == 2
    assert len(parity_indices(t, "positive")) == 2
    assert len(parity_indices(t, "negative")) == 2


def test_projection_identity_and_ground():
    p = ModelParams(omega=1.0, Omega=1.0, j=1.0)
    t = Truncation.for_spin(5, p.j, "full")
    eye = np.eye(t.dim)
    block, idx = project_parity(eye, t, "positive")
    assert block.shape[0] == len(idx)
    assert np.array_equal(dense(block), np.eye(len(idx)))
    # decoupled Hamiltonian: positive sector contains |0, -j> with energy -j Omega
    tp = Truncation.for_spin(5, p.j, "positive")
    h = dense(full_hamiltonian(p, tp))
    assert np.min(np.diag(h).real) == pytest.approx(-p.j * p.Omega, abs=1e-14)


def test_projection_rejects_parity_breaking_operator():
    t = Truncation.for_spin(4, 1.0, "full")
    a, _, _ = boson_operators(4)
    mixed = np.kron(dense(a), np.eye(t.spin_dim))
    with pytest.raises(ValueError, match="parity"):
        project_parity(mixed, t, "positive")


# ---------------------------------------------------------------------------
# parameter derivatives


def test_derivative_omega_is_photon_number():
    p = ModelParams(lambda1=0.2, lambda2=0.1, j=1.0)
    t = Truncation.for_spin(6, p.j, "full")
    d = dense(param_derivative(p, t, "omega"))
    n_expected = np.diag(np.repeat(np.arange(7.0), t.spin_dim))
    assert np.max(np.abs(d - n_expected)) == 0.0


def test_derivative_theta_vanishes_when_decoupled():
    p = ModelParams(j=1.0)
    t = Truncation.for_spin(5, p.j, "full")
    assert np.max(np.abs(dense(param_derivative(p, t, "theta")))) == 0.0


@pytest.mark.parametrize("which", ["omega", "Omega", "lambda1", "lambda2", "theta"])
def test_derivative_central_difference_oracle(which):
    p = ModelParams(omega=1.1, Omega=0.9, lambda1=0.4, lambda2=0.3, theta=0.7, j=1.5)
    t = Truncation.for_spin(8, p.j, "full")
    h = 1e-4
    fd = (dense(full_hamiltonian(p.shifted(which, h), t))
          - dense(full_hamiltonian(p.shifted(which, -h), t))) / (2 * h)
    exact = dense(param_derivative(p, t, which))
    # H is linear in all parameters but theta; there the stencil error is O(h^2)
    tol = 1e-8 if which == "theta" else 1e-10
    assert np.max(np.abs(fd - exact)) < tol


def test_derivatives_commute_with_parity():
    p = ModelParams(omega=1.0, Omega=1.3, lambda1=0.5, lambda2=0.2, theta=0.4, j=1.5)
    t = Truncation.for_spin(8, p.j, "full")
    pi = dense(parity_operator(t))
    for which in ("omega", "Omega", "lambda1", "lambda2", "theta"):
        d = dense(param_derivative(p, t, which))
        assert np.max(np.abs(d @ pi - pi @ d)) < 1e-12
        assert np.max(np.abs(d - d.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# spectral invariances


def test_theta_spectrum_invariance():
    t = Truncation.for_spin(20, 3.0, "positive")
    e_ref = None
    for theta in (0.0, 1.1):
        p = ModelParams.from_ratios(0.7, gamma=2.0, eta=1.0, theta=theta, j=3.0)
        energies = np.linalg.eigvalsh(dense(full_hamiltonian(p, t)))
        if e_ref is None:
            e_ref = energies
        else:
            assert np.max(np.abs(energies - e_ref)) < 1e-9


def test_cutoff_convergence_of_ground_energy():
    p = ModelParams.from_ratios(0.95, gamma=2.0, eta=1.0, j=10.0)
    energies = []
    for n_max in (60, 80):
        t = Truncation.for_spin(n_max, p.j, "positive")
        energies.append(np.linalg.eigvalsh(dense(full_hamiltonian(p, t)))[0])
    assert abs(energies[1] - energies[0]) < 1e-8


def test_photon_number_diagonal_sector():
    t = Truncation.for_spin(2, 0.5, "positive")
    nd = photon_number_diagonal(t)
    # positive-sector states of (n, m+j): (0,0), (1,1), (2,0)
    assert np.array_equal(nd, [0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# parameter-free pieces, cached once per truncation


def _product_pieces(t: Truncation):
    """(a'a, Jz, a'J-, a'J+) on the full product basis, as dense Kronecker products."""
    _, adag, n_op = (dense(o) for o in boson_operators(t.n_max))
    jp, jm, jz = (dense(o) for o in spin_operators((t.spin_dim - 1) / 2))
    eye_b, eye_s = np.eye(t.n_max + 1), np.eye(t.spin_dim)
    return (np.kron(n_op, eye_s), np.kron(eye_b, jz), np.kron(adag, jm), np.kron(adag, jp))


def _on_sector(mat: np.ndarray, t: Truncation) -> np.ndarray:
    if t.parity_sector == "full":
        return mat
    return dense(project_parity(mat, t, t.parity_sector)[0])


def _product_operators(p: ModelParams, t: Truncation) -> dict:
    """H and every dH on the full product basis, built from the pieces in the test."""
    number, jz, up_minus, up_plus = _product_pieces(t)
    phase = np.exp(1j * p.theta)
    norm = 1.0 / math.sqrt(2 * p.j)
    rw = norm * (phase * up_minus + np.conj(phase) * up_minus.T)
    cr = norm * (phase * up_plus + np.conj(phase) * up_plus.T)
    coupling = p.lambda1 * rw + p.lambda2 * cr
    n = np.diag(number)  # i [a'a, C] has entries i (n_row - n_col) C, exactly
    return {"H": p.omega * number + p.Omega * jz + coupling,
            "omega": number, "Omega": jz, "lambda1": rw, "lambda2": cr,
            "theta": 1j * (n[:, None] - n[None, :]) * coupling}


@pytest.mark.parametrize("sector", ["positive", "negative", "full"])
@pytest.mark.parametrize("j", [2.0, 1.5])
def test_cached_sector_pieces_are_projected_product_pieces(sector, j):
    t = Truncation.for_spin(7, j, sector)
    cached = model._sector_pieces(t)
    for block, product in zip(cached, _product_pieces(t)):
        assert block.shape == (len(photon_number_diagonal(t)),) * 2
        assert np.array_equal(dense(block), _on_sector(product, t))


@pytest.mark.parametrize("sector", ["positive", "negative", "full"])
@pytest.mark.parametrize("j", [2.0, 1.5])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_operators_from_cached_pieces_match_the_product_basis(sector, j, theta):
    p = ModelParams.from_ratios(0.8, gamma=2.0, eta=1.3, theta=theta, j=j)
    t = Truncation.for_spin(7, j, sector)
    built = {"H": full_hamiltonian(p, t)}
    built.update((which, param_derivative(p, t, which)) for which in PARAMETER_LABELS)
    for key, reference in _product_operators(p, t).items():
        got, want = dense(built[key]), _on_sector(reference, t)
        if theta == 0.0:
            # real pieces stay float64; dH/dtheta = i [a'a, H] is imaginary
            assert built[key].dtype == (np.complex128 if key == "theta" else np.float64)
            assert np.array_equal(got, want), key
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), key


def test_truncations_differing_in_one_field_get_their_own_pieces():
    base = Truncation(n_max=5, spin_dim=4, parity_sector="positive")
    others = [Truncation(5, 4, "negative"), Truncation(5, 4, "full"),
              Truncation(6, 4, "positive"), Truncation(5, 5, "positive")]
    pieces = model._sector_pieces(base)
    assert model._sector_pieces(Truncation(5, 4, "positive")) is pieces
    for other in others:
        theirs = model._sector_pieces(other)
        assert theirs is not pieces
        for their, product in zip(theirs, _product_pieces(other)):
            assert np.array_equal(dense(their), _on_sector(product, other))
        assert any(mine.shape != their.shape or not np.array_equal(dense(mine), dense(their))
                   for mine, their in zip(pieces, theirs))


def test_guards_run_before_the_piece_cache(monkeypatch):
    monkeypatch.setattr(model, "DEFAULT_MAX_DIM", 100)
    model._sector_pieces.cache_clear()
    p = ModelParams(lambda1=0.3, j=1.0)
    with pytest.raises(TruncationError):
        full_hamiltonian(p, Truncation.for_spin(50, p.j))
    mismatched = Truncation.for_spin(5, 1.5)
    with pytest.raises(ValueError, match="spin_dim"):
        full_hamiltonian(p, mismatched)
    with pytest.raises(ValueError, match="spin_dim"):
        param_derivative(p, mismatched, "omega")
    assert model._sector_pieces.cache_info().currsize == 0


def test_tensor_evaluation_leaves_the_cached_pieces_unchanged():
    p = ModelParams.from_ratios(0.9, gamma=2.0, eta=1.0, theta=0.7, j=2.0)
    t = Truncation.for_spin(12, p.j, "positive")
    pieces = model._sector_pieces(t)
    before = [Piece(piece.shape, *(arr.copy() for arr in piece[1:])) for piece in pieces]
    for method in ("sum", "solve", "fd"):
        qgt_components("full", p, t, labels=PARAMETER_LABELS, method=method)
    assert model._sector_pieces(t) is pieces
    for piece, copy in zip(pieces, before):
        assert piece.vals.dtype == copy.vals.dtype
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(piece, name), getattr(copy, name))
    with pytest.raises(ValueError):
        pieces[0].vals[0] = 1.0
    derivative = param_derivative(p, t, "omega")
    derivative[...] = 0.0  # a returned matrix is the caller's own
    assert np.array_equal(dense(pieces[0]), dense(before[0]))


def test_points_on_one_truncation_build_the_kronecker_products_once(monkeypatch):
    calls = []
    kron = Piece.kron

    def counting_kron(*args, **kwargs):
        calls.append(args[0].shape)
        return kron(*args, **kwargs)

    monkeypatch.setattr(Piece, "kron", counting_kron)
    model._sector_pieces.cache_clear()
    t = Truncation.for_spin(10, 3.0, "full")
    for k, g in enumerate(np.linspace(0.2, 0.9, 8)):
        p = ModelParams.from_ratios(g, gamma=2.0, eta=1.5, theta=0.1 * k, j=3.0)
        full_hamiltonian(p, t)
        for which in PARAMETER_LABELS:
            param_derivative(p, t, which)
        assert len(calls) == 4


# ---------------------------------------------------------------------------
# the upper band that holds every matrix above the dense limit


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_band_matrices_act_as_their_dense_form(theta):
    p = ModelParams.from_ratios(0.9, gamma=2.0, eta=1.0, theta=theta, j=5.0)
    t = Truncation.for_spin(60, p.j, "positive")
    rng = np.random.default_rng(4)
    for which in (None,) + PARAMETER_LABELS:
        mat = full_hamiltonian(p, t) if which is None else param_derivative(p, t, which)
        assert isinstance(mat, HermitianBand) and mat.band.flags.f_contiguous
        full = mat.toarray()
        assert np.array_equal(full, full.conj().T)
        # the band reaches the farthest nonzero entry and no further
        assert np.array_equal(as_band(full).band, mat.band)
        assert mat.norm() == pytest.approx(np.linalg.norm(full), rel=1e-14)
        for x in (rng.normal(size=full.shape[0]), rng.normal(size=(full.shape[0], 2)) * (1 + 1j)):
            np.testing.assert_allclose(mat @ x, full @ x, rtol=0, atol=1e-12)
    assert param_derivative(p, t, "omega").band.shape[0] == 1  # a diagonal keeps one row
    with pytest.raises(ValueError, match="does not fit"):  # checked before the library reads it
        full_hamiltonian(p, t) @ np.ones(t.dim)


def test_as_band_reads_the_upper_triangle():
    want = np.array([[1.0, 0.0, 3.0], [0.0, 2.5, 0.0], [3.0, 0.0, 5.0]])
    band = as_band(want)
    assert np.array_equal(band.band, [[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [1.0, 2.5, 5.0]])
    assert np.array_equal(band.toarray(), want)
    # only the upper triangle is read: the lower one is taken as its conjugate
    lower_differs = want.copy()
    lower_differs[2, 0] = 7.0
    assert np.array_equal(as_band(lower_differs).band, band.band)


def test_a_stack_is_its_members_laid_end_to_end():
    t = Truncation.for_spin(60, 5.0, "positive")
    points = [ModelParams.from_ratios(0.9, gamma=gamma, eta=eta, j=5.0)
              for gamma, eta in ((2.0, 1.0), (math.inf, 2.0), (0.5, 3.0))]
    alone = [full_hamiltonian(p, t) for p in points]
    stack = model.full_hamiltonian_stack(points, t)
    kd = stack.matrix.band.shape[0] - 1
    assert [ham.band.shape[0] - 1 for ham in alone] == [kd, kd - 1, kd]
    assert stack.matrix.band.flags.f_contiguous and stack.size == alone[0].shape[0]
    dense = stack.matrix.toarray()
    n = stack.size
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, n))
    y = stack.product(x)
    for b, ham in enumerate(alone):
        # each block is the member's matrix, and nothing joins two blocks
        block = slice(b * n, (b + 1) * n)
        assert np.array_equal(dense[block, block], ham.toarray())
        assert not np.any(np.delete(dense[block], np.arange(b * n, (b + 1) * n), axis=1))
        assert np.array_equal(stack.member(b).toarray(), ham.toarray())
        np.testing.assert_allclose(y[:, b], (ham @ x[:, b].T).T, rtol=0, atol=1e-12)
    levels = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(stack.shifted(levels).matrix.toarray(),
                                  dense - np.diag(np.repeat(levels, n)))
    assert stack.select([0, 1, 2]) is stack
    assert np.array_equal(stack.select([2, 0]).matrix.toarray()[:n, :n], alone[2].toarray())
    derivative = model.param_derivative_stack(points, t, "lambda1")
    for b, p in enumerate(points):
        assert np.array_equal(derivative.member(b).toarray(),
                              param_derivative(p, t, "lambda1").toarray())
    with pytest.raises(ValueError, match="does not fit"):
        stack.product(np.ones((2, n)))
