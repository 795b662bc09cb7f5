"""Tests for the model-variant dispatch layer."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from adicke import (FockCutoff, ModelParams, Truncation, _blas, bogoliubov_modes,
                    dense_eigensystem, effective_form, families, geometry, spectra, sweep)
from adicke.families import (default_truncation, derivative_matrix, ground_eigensystem,
                             ground_pair, hamiltonian_matrix, qgt_components, resolve_branch)
from adicke.geometry import qgt_matrix_sum
from adicke.model import BandStack, HermitianBand
from adicke.spectra import DENSE_SOLVE_LIMIT


def test_resolve_branch():
    assert resolve_branch("auto_cs", 0.8) == "cs_np"
    assert resolve_branch("auto_cs", 1.2) == "cs_sp"
    assert resolve_branch("auto_co", 1.0) == "co_np"  # normal at the point itself
    assert resolve_branch("co_sp", 0.5) == "co_sp"
    with pytest.raises(ValueError):
        resolve_branch("bogus", 1.0)


def test_default_truncations():
    p = ModelParams.from_ratios(0.5, j=3.0)
    assert isinstance(default_truncation("full", p, 20), Truncation)
    cut2 = default_truncation("cs_np", p, 20, 15)
    assert cut2.modes == 2 and cut2.n_b == 15
    assert default_truncation("co_np", p, 20).modes == 1


def test_truncation_type_checks():
    p = ModelParams.from_ratios(0.5, j=2.0)
    with pytest.raises(TypeError):
        hamiltonian_matrix("full", p, FockCutoff(10))
    with pytest.raises(TypeError):
        hamiltonian_matrix("co_np", p, Truncation.for_spin(10, 2.0))
    with pytest.raises(ValueError, match="2-mode"):
        hamiltonian_matrix("cs_np", p, FockCutoff(10))


def test_default_method_switches_with_dimension():
    p = ModelParams.from_ratios(0.5, gamma=2.0, j=2.0)
    small = qgt_components("co_np", p, FockCutoff(30), labels=("omega",))
    assert small.method == "sum_over_states"
    big = qgt_components("cs_np", p, FockCutoff(45, 45), labels=("omega",))
    assert big.method == "linear_solve"
    # the policy boundary: a one-mode matrix has n_max + 1 rows
    at_limit = qgt_components("co_np", p, FockCutoff(DENSE_SOLVE_LIMIT - 1), labels=("omega",))
    assert at_limit.method == "sum_over_states"
    above = qgt_components("co_np", p, FockCutoff(DENSE_SOLVE_LIMIT), labels=("omega",))
    assert above.method == "linear_solve"
    # the full model is solved in one parity sector, about half the product basis
    trunc = Truncation.for_spin(DENSE_SOLVE_LIMIT // 5, 2.0, "positive")
    assert trunc.dim > DENSE_SOLVE_LIMIT >= hamiltonian_matrix("full", p, trunc).shape[0]
    sector = qgt_components("full", p, trunc, labels=("omega",))
    assert sector.method == "sum_over_states"


@pytest.mark.parametrize("name,j,small,large", [
    # j = 1/2 splits the product basis evenly: a parity sector holds n_max + 1 states
    ("full", 0.5, Truncation.for_spin(DENSE_SOLVE_LIMIT - 1, 0.5),
     Truncation.for_spin(DENSE_SOLVE_LIMIT, 0.5)),
    ("co_np", 3.0, FockCutoff(DENSE_SOLVE_LIMIT - 1), FockCutoff(DENSE_SOLVE_LIMIT)),
])
def test_builders_pick_the_representation_by_the_solver_limit(name, j, small, large):
    p = ModelParams.from_ratios(0.8, gamma=2.0, theta=0.3, j=j)
    built = {}
    for trunc, kind in ((small, np.ndarray), (large, HermitianBand)):
        mats = [hamiltonian_matrix(name, p, trunc)]
        mats += [derivative_matrix(name, p, trunc, label) for label in FIVE_LABELS]
        assert mats[0].shape[0] == DENSE_SOLVE_LIMIT + (kind is HermitianBand)
        assert all(type(mat) is kind for mat in mats)
        built[kind] = mats
    # the smaller basis is a prefix of the larger one: the shared block is the same
    # bytes, whichever representation holds it
    for dense, band in zip(built[np.ndarray], built[HermitianBand]):
        assert np.array_equal(band.toarray()[:DENSE_SOLVE_LIMIT, :DENSE_SOLVE_LIMIT], dense)


def test_model_gap_sources():
    p = ModelParams.from_ratios(0.5, gamma=1.0, eta=1.0, j=4.0)
    eff = bogoliubov_modes(effective_form("cs_np", p)).gap
    assert eff == pytest.approx(math.sqrt(0.5), rel=1e-12)
    # the physical gap needs both sectors; within one sector the next level
    # sits two quanta up
    full = ground_pair("full", p, Truncation.for_spin(24, 4.0, "full"))[2]
    assert 0 < full < 1.0
    sector = ground_pair("full", p, Truncation.for_spin(24, 4.0, "positive"))[2]
    assert sector > full


def test_sector_embedding_recovers_full_ground_state():
    from adicke import dense_eigensystem, full_hamiltonian, project_parity
    p = ModelParams.from_ratios(0.7, gamma=2.0, eta=1.0, theta=0.4, j=2.0)
    t_full = Truncation.for_spin(14, p.j, "full")
    ham = full_hamiltonian(p, t_full)
    block, idx = project_parity(ham, t_full, "positive")
    es_block = dense_eigensystem(block)
    embedded = np.zeros(t_full.dim, dtype=complex)
    embedded[idx] = es_block.states[:, 0]
    es_full = dense_eigensystem(ham)
    assert abs(np.vdot(embedded, es_full.states[:, 0])) > 1 - 1e-12


# ---------------------------------------------------------------------------
# the real theta = 0 core against direct complex builds


FIVE_LABELS = ("omega", "Omega", "lambda1", "lambda2", "theta")

THETA_CASES = [
    ("full", 0.8, Truncation.for_spin(16, 2.0, "positive"), 2.0),
    ("cs_np", 0.8, FockCutoff(12, 12), 3.0),
    ("cs_sp", 1.3, FockCutoff(12, 12), 3.0),
    ("co_np", 0.8, FockCutoff(40), 3.0),
    ("co_sp", 1.3, FockCutoff(40), 3.0),
]


@pytest.mark.parametrize("name,g,trunc,j", THETA_CASES)
def test_builders_are_real_exactly_at_theta_zero(name, g, trunc, j):
    for theta, dtype in ((0.0, np.float64), (0.3, np.complex128)):
        p = ModelParams.from_ratios(g, gamma=2.0, theta=theta, j=j)
        ham = hamiltonian_matrix(name, p, trunc)
        d_lambda1 = derivative_matrix(name, p, trunc, "lambda1")
        d_theta = derivative_matrix(name, p, trunc, "theta")
        for mat in (ham, d_lambda1, d_theta):
            assert isinstance(mat, np.ndarray)  # at most DENSE_SOLVE_LIMIT rows
        assert ham.dtype == dtype
        assert d_lambda1.dtype == dtype
        # i [n_a, H] is imaginary even where H is real
        assert d_theta.dtype == np.complex128


@pytest.mark.parametrize("theta", [0.3, 1.1])
@pytest.mark.parametrize("name,g,trunc,j", THETA_CASES)
def test_real_core_matches_complex_sum_at_theta(name, g, trunc, j, theta):
    # the reference solves the complex matrix at theta with every derivative,
    # theta included, as an explicit matrix
    p = ModelParams.from_ratios(g, gamma=2.0, theta=theta, j=j)
    es = dense_eigensystem(hamiltonian_matrix(name, p, trunc))
    derivs = [derivative_matrix(name, p, trunc, label) for label in FIVE_LABELS]
    reference = qgt_matrix_sum(es, derivs, FIVE_LABELS).q
    scale = max(1.0, float(np.abs(reference).max()))
    for method in ("sum", "solve"):
        comp = qgt_components(name, p, trunc, labels=FIVE_LABELS, method=method)
        assert float(np.abs(comp.q - reference).max()) < 1e-10 * scale, method
        assert comp.energy == pytest.approx(es.energies[0], abs=1e-10 * scale)


@pytest.mark.parametrize("name,g,trunc,j", [
    ("full", 0.8, Truncation.for_spin(2 * DENSE_SOLVE_LIMIT // 5 + 1, 2.0, "positive"), 2.0),
    ("cs_np", 0.8, FockCutoff(16, 15), 3.0),
    ("cs_sp", 1.3, FockCutoff(16, 15), 3.0),
    ("co_np", 0.8, FockCutoff(DENSE_SOLVE_LIMIT), 3.0),
    ("co_sp", 1.3, FockCutoff(DENSE_SOLVE_LIMIT), 3.0),
])
def test_solve_just_above_the_limit_matches_sum(name, g, trunc, j):
    p = ModelParams.from_ratios(g, gamma=2.0, j=j)
    dim = hamiltonian_matrix(name, p, trunc).shape[0]
    assert DENSE_SOLVE_LIMIT < dim <= DENSE_SOLVE_LIMIT + 16
    solved = qgt_components(name, p, trunc, labels=FIVE_LABELS)
    assert solved.method == "linear_solve"
    summed = qgt_components(name, p, trunc, labels=FIVE_LABELS, method="sum")
    scale = max(1.0, float(np.abs(summed.q).max()))
    assert float(np.abs(solved.q - summed.q).max()) < 1e-10 * scale
    assert solved.energy == pytest.approx(summed.energy, abs=1e-10 * max(1.0, abs(summed.energy)))
    assert solved.gap == pytest.approx(summed.gap, rel=1e-9)


@pytest.mark.parametrize("name,trunc,theta", [
    ("full", Truncation.for_spin(6, 40.0, "positive"), 0.0),
    ("full", Truncation.for_spin(6, 40.0, "positive"), 0.7),
    ("cs_np", FockCutoff(40, 40), 0.0),
])
def test_wide_band_point_matches_the_dense_route(name, trunc, theta):
    # a half-bandwidth above 32 takes LAPACK's blocked banded Cholesky
    p = ModelParams.from_ratios(0.9, gamma=2.0, theta=theta, j=40.0)
    ham = hamiltonian_matrix(name, p, trunc)
    half_bandwidth = ham.band.shape[0] - 1
    assert ham.shape[0] > DENSE_SOLVE_LIMIT and half_bandwidth > 32
    assert ham.dtype == (np.complex128 if theta else np.float64)
    es = ground_eigensystem(name, p, ham)
    assert es.factor is not None and es.factor.sigma < es.energies[0]
    dense = dense_eigensystem(ham)
    assert np.max(np.abs(es.energies - dense.energies[:2])) < 1e-9
    assert np.max(np.abs(es.states - dense.states[:, :2])) < 1e-9
    # every derivative as a matrix: theta's is complex, so a real factor
    # also solves complex right-hand sides here
    derivs = [derivative_matrix(name, p, trunc, label) for label in FIVE_LABELS]
    summed = qgt_matrix_sum(dense, derivs, FIVE_LABELS).q
    [solved] = geometry.qgt_matrix_solve(BandStack(ham), [es.energies[0]], es.states[:, 0][None],
                                         [BandStack(d) for d in derivs], FIVE_LABELS,
                                         factor=[es.factor], gap=[es.gap])
    solved = solved.q
    default = qgt_components(name, p, trunc, labels=FIVE_LABELS)
    assert default.method == "linear_solve"
    scale = max(1.0, float(np.abs(summed).max()))
    assert float(np.abs(solved - summed).max()) < 1e-10 * scale
    assert float(np.abs(default.q - summed).max()) < 1e-10 * scale


def test_five_label_solve_point_factors_once(monkeypatch):
    counts = {"factor": 0, "resolvent_tangent": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_blas, "pbtrf", counted("factor", _blas.pbtrf))
    monkeypatch.setattr(geometry, "resolvent_tangent",
                        counted("resolvent_tangent", geometry.resolvent_tangent))
    p = ModelParams.from_ratios(0.8, gamma=2.0, theta=0.4, j=3.0)
    comp = qgt_components("cs_np", p, FockCutoff(20, 20), labels=FIVE_LABELS,
                          method="solve")
    assert comp.method == "linear_solve"
    assert counts == {"factor": 1, "resolvent_tangent": 1}


@pytest.mark.parametrize("name,trunc", [
    ("full", Truncation.for_spin(30, 5.0, "positive")),
    ("cs_np", FockCutoff(12, 12)),
])
def test_explicit_solve_at_or_below_the_limit_takes_no_dense_spectrum(name, trunc, monkeypatch):
    # the stack of one that every solve runs: one banded factor, no eigh
    p = ModelParams.from_ratios(0.8, gamma=2.0, theta=0.4, j=5.0)
    assert hamiltonian_matrix(name, p, trunc).shape[0] in (169, 171)
    counts = {"dense_eigensystem": 0, "pbtrf": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(spectra, "dense_eigensystem",
                      counted("dense_eigensystem", spectra.dense_eigensystem))
        patch.setattr(_blas, "pbtrf", counted("pbtrf", _blas.pbtrf))
        solved = qgt_components(name, p, trunc, labels=FIVE_LABELS, method="solve")
    assert counts == {"dense_eigensystem": 0, "pbtrf": 1}
    summed = qgt_components(name, p, trunc, labels=FIVE_LABELS, method="sum")
    scale = max(1.0, float(np.abs(summed.q).max()))
    assert float(np.abs(solved.q - summed.q).max()) < 1e-10 * scale


def test_a_form_with_no_gaussian_ground_state_still_solves():
    # co_np above g = 1 has no Colpa solve, so the shift starts at the
    # Gershgorin floor; the truncated matrix still has its ground state
    p = ModelParams.from_ratios(1.2, gamma=2.0, theta=0.4, j=5.0)
    assert families._estimate("co_np", p) is None
    solved = qgt_components("co_np", p, FockCutoff(40), labels=FIVE_LABELS, method="solve")
    summed = qgt_components("co_np", p, FockCutoff(40), labels=FIVE_LABELS, method="sum")
    assert solved.method == "linear_solve"
    scale = max(1.0, float(np.abs(summed.q).max()))
    assert float(np.abs(solved.q - summed.q).max()) < 1e-10 * scale
    assert solved.energy == pytest.approx(summed.energy, abs=1e-10 * max(1.0, abs(summed.energy)))


@pytest.mark.parametrize("omega,Omega", [(1.0, 1.0), (0.8, 1.5)])
def test_coupling_tensor_at_zero_coupling_matches_the_full_model(omega, Omega):
    # a zero coupling cannot be stepped below zero, so its stencil is one-sided
    p = ModelParams(omega=omega, Omega=Omega, j=10.0)
    labels = ("lambda1", "lambda2")
    want = np.diag([0.0, 1.0 / (omega + Omega) ** 2])
    effective = qgt_components("cs_np", p, FockCutoff(6, 6), labels=labels)
    full = qgt_components("full", p, Truncation.for_spin(6, p.j), labels=labels)
    assert float(np.abs(full.q - want).max()) < 1e-12
    assert float(np.abs(effective.q - full.q).max()) < 1e-10
    assert float(np.abs(qgt_components("cs_np", p, labels=labels).q - want).max()) < 1e-12


# ---------------------------------------------------------------------------
# the exact Gaussian route of the effective models


@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("name,g,trunc,method", [
    ("cs_np", 0.7, FockCutoff(40, 40), "solve"),
    ("cs_sp", 1.3, FockCutoff(40, 40), "solve"),
    ("co_np", 0.7, FockCutoff(120), "sum"),
    ("co_sp", 1.3, FockCutoff(120), "sum"),
    ("cs_np", 0.5, FockCutoff(15, 15), "sum"),
    ("cs_sp", 1.5, FockCutoff(15, 15), "sum"),
])
def test_gaussian_route_matches_converged_truncations(name, g, trunc, method, gamma):
    p = ModelParams.from_ratios(g, gamma=gamma, eta=1.2, theta=0.4, j=4.0)
    exact = qgt_components(name, p, labels=FIVE_LABELS)
    truncated = qgt_components(name, p, trunc, labels=FIVE_LABELS, method=method)
    assert exact.method == "gaussian"
    scale = float(np.abs(truncated.q).max())
    assert float(np.abs(exact.q - truncated.q).max()) < 1e-9 * scale
    assert exact.energy == pytest.approx(truncated.energy, abs=1e-10 * abs(truncated.energy))
    modes = bogoliubov_modes(effective_form(name, p))
    assert (exact.energy, exact.gap) == pytest.approx((modes.ground_energy, modes.gap),
                                                      rel=1e-13)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("name,g", [("cs_np", 0.999), ("cs_sp", 1.001), ("co_np", 0.999),
                                    ("co_sp", 1.001)])
def test_gaussian_energy_and_gap_match_the_bogoliubov_oracle_near_the_critical_point(
        name, g, gamma):
    # the cross-check of test_gaussian_route_matches_converged_truncations where
    # no truncation converges: the route reads both off its own certified Colpa
    # solve, bogoliubov_modes solves the same form separately, and the soft
    # mode is small
    p = ModelParams.from_ratios(g, gamma=gamma, eta=1.2, theta=0.4, j=4.0)
    exact = qgt_components(name, p, labels=FIVE_LABELS)
    modes = bogoliubov_modes(effective_form(name, p))
    assert modes.stable
    assert (exact.energy, exact.gap) == pytest.approx((modes.ground_energy, modes.gap),
                                                      rel=1e-13)


def test_a_gaussian_row_takes_one_normal_mode_solve(monkeypatch):
    # no second eigen-solve (bogoliubov_modes) and no LU solve on the route
    calls = {"bogoliubov_modes": 0, "solve": 0, "symplectic_transform": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectra, "bogoliubov_modes",
                        counted("bogoliubov_modes", spectra.bogoliubov_modes))
    monkeypatch.setattr(sweep, "bogoliubov_modes",
                        counted("bogoliubov_modes", sweep.bogoliubov_modes))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(spectra, "symplectic_transform",
                        counted("symplectic_transform", spectra.symplectic_transform))
    spec = sweep.SweepSpec(model="auto_cs", param="g", start=0.6, stop=1.4, points=2,
                           gamma=2.0, eta=1.0, j=10.0, n_max=40, n_max_b=40)
    for g in (0.6, 1.4):
        row = sweep.evaluate_point(spec, g)
        assert row.method == "gaussian" and row.converged and math.isfinite(row.gap)
    assert calls == {"bogoliubov_modes": 0, "solve": 0, "symplectic_transform": 2}
    # a full-model solve point places its shift by one Colpa solve of its
    # classical-spin limit, and by no Bogoliubov solve
    calls.update(symplectic_transform=0)
    full = sweep.SweepSpec(model="full", param="g", start=0.6, stop=1.4, points=2,
                           gamma=2.0, eta=1.0, j=5.0, n_max=30, method="solve")
    row = sweep.evaluate_point(full, 0.9)
    assert row.method == "solve" and row.converged
    assert calls == {"bogoliubov_modes": 0, "solve": 0, "symplectic_transform": 1}


@pytest.mark.parametrize("name,g,trunc", [
    ("cs_np", 0.6, FockCutoff(16, 16)), ("cs_sp", 1.4, FockCutoff(16, 16)),
    ("co_np", 0.7, FockCutoff(60)), ("co_sp", 1.3, FockCutoff(60)),
])
def test_gaussian_route_matches_finite_differences_at_theta(name, g, trunc):
    # fd differentiates the complex ground states at theta = 0.7 itself
    p = ModelParams.from_ratios(g, gamma=2.0, eta=1.5, theta=0.7, j=3.0)
    exact = qgt_components(name, p, labels=FIVE_LABELS).q
    fd = qgt_components(name, p, trunc, labels=FIVE_LABELS, method="fd").q
    assert float(np.abs(exact - fd).max()) < 1e-8 * float(np.abs(fd).max())


def test_gaussian_route_takes_no_method_and_no_full_model():
    p = ModelParams.from_ratios(0.5, j=2.0)
    with pytest.raises(ValueError, match="needs a truncation"):
        qgt_components("cs_np", p, method="sum")
    with pytest.raises(TypeError, match="Truncation"):
        qgt_components("full", p)


# ---------------------------------------------------------------------------
# one BLAS thread per tensor evaluation

needs_openblas = pytest.mark.skipif(not _blas.libraries(),
                                    reason="numpy bundles no OpenBLAS")


def blas_threads() -> list[int]:
    return [get() for get, _ in _blas.libraries()]


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS at 2 threads: a count other than the scope's own 1."""
    saved = blas_threads()
    for _, put in _blas.libraries():
        put(2)
    yield [2] * len(saved)
    for (_, put), count in zip(_blas.libraries(), saved):
        put(count)


@needs_openblas
def test_solve_point_runs_blas_on_one_thread(two_threads, monkeypatch):
    seen = []
    shift_invert = spectra.shift_invert

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return shift_invert(*args, **kwargs)

    monkeypatch.setattr(spectra, "shift_invert", spy)
    p = ModelParams.from_ratios(0.9, gamma=2.0, j=5.0)
    comp = qgt_components("full", p, Truncation.for_spin(60, p.j, "positive"))
    assert comp.method == "linear_solve"
    assert seen and all(counts == [1] * len(two_threads) for counts in seen)
    assert blas_threads() == two_threads


@needs_openblas
def test_evaluation_gives_the_caller_its_thread_count_back(two_threads):
    p = ModelParams.from_ratios(0.5, j=2.0)
    trunc = Truncation.for_spin(10, p.j, "positive")
    qgt_components("full", p, trunc)
    assert blas_threads() == two_threads
    with pytest.raises(ValueError, match="unknown method"):
        qgt_components("full", p, trunc, method="exact")
    assert blas_threads() == two_threads


@needs_openblas
def test_nested_scopes_restore_once(two_threads, monkeypatch):
    calls = []

    def recorded(put):
        def wrapper(count):
            calls.append(count)
            put(count)
        return wrapper

    handles = tuple((get, recorded(put)) for get, put in _blas.libraries())
    monkeypatch.setattr(_blas, "libraries", lambda: handles)
    ones = [1] * len(two_threads)
    with _blas.single_thread:
        with _blas.single_thread:
            assert blas_threads() == ones
        assert blas_threads() == ones
    assert blas_threads() == two_threads
    assert calls == ones + two_threads


@needs_openblas
def test_scope_without_openblas_does_nothing(two_threads, monkeypatch):
    handles = _blas.libraries()
    monkeypatch.setattr(_blas, "libraries", lambda: ())
    with _blas.single_thread:
        assert [get() for get, _ in handles] == two_threads
    p = ModelParams.from_ratios(0.5, j=2.0)
    qgt_components("full", p, Truncation.for_spin(10, p.j, "positive"))
    assert [get() for get, _ in handles] == two_threads


@needs_openblas
def test_concurrent_scopes_hold_one_thread_until_the_last_exits(two_threads):
    ones = [1] * len(two_threads)
    wrong = []

    def enter_and_read():
        for _ in range(300):
            with _blas.single_thread:
                counts = blas_threads()
                if counts != ones:
                    wrong.append(counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert blas_threads() == two_threads


# ---------------------------------------------------------------------------
# stacks: several full-model points on one truncation


def test_stacked_points_match_each_point_alone(monkeypatch):
    t = Truncation.for_spin(60, 5.0, "positive")
    points = [ModelParams.from_ratios(0.9, gamma=gamma, eta=eta, theta=theta, j=5.0)
              for gamma, eta, theta in ((2.0, 1.0, 0.0), (math.inf, 2.0, 0.3), (0.5, 3.0, 0.0))]
    want = [qgt_components("full", p, t) for p in points]
    calls = []
    lowest = spectra.lowest_k
    monkeypatch.setattr(spectra, "lowest_k", lambda *a, **k: calls.append(1) or lowest(*a, **k))
    got = families.qgt_stack("full", points, t)
    assert len(calls) == 1
    for comp, alone in zip(got, want):
        assert comp.method == alone.method == "linear_solve"
        assert np.max(np.abs(comp.q - alone.q)) < 1e-12 * max(1.0, float(np.max(np.abs(alone.q))))
        assert abs(comp.energy - alone.energy) < 1e-12 * max(1.0, abs(alone.energy))
        assert abs(comp.gap - alone.gap) < 1e-12


def test_stacks_follow_the_one_size_rule(monkeypatch):
    # member rows of spectra.STACK_LIMIT's measurements: 8 members up to the
    # ratio scan's 851 rows, 6 at full_scan's 1061, pairs at 2071, and
    # nothing stacks at 3301 or 4091
    rows = (336, 446, 641, 851, 1061, 2071, 2730, 2731, 3301, 4091)
    assert [spectra.stack_members(r) for r in rows] == [8, 8, 8, 8, 6, 2, 2, 1, 1, 1]
    t = Truncation.for_spin(60, 5.0, "positive")  # 336 rows
    assert families.stack_size("full", t) == families.stack_size("full", t, "solve") == 8
    assert families.stack_size("full", t, "sum") == families.stack_size("full", t, "fd") == 1
    assert families.stack_size("full", Truncation.for_spin(10, 5.0, "positive")) == 1  # dense
    assert families.stack_size("cs_np", FockCutoff(30, 30), "solve") == 1
    stacks = []
    lowest = spectra.lowest_k
    monkeypatch.setattr(spectra, "lowest_k",
                        lambda op, *a, **k: stacks.append(op.members) or lowest(op, *a, **k))
    points = [ModelParams.from_ratios(g, gamma=2.0, j=5.0) for g in np.linspace(0.5, 0.9, 11)]
    got = families.qgt_stack("full", points, t, labels=("omega",))
    assert stacks == [8, 3]  # consecutive stacks within the rule
    for comp, p in zip(got[7:9], points[7:9]):  # the last of one stack, the first of the next
        alone = qgt_components("full", p, t, labels=("omega",))
        assert comp.qfi("omega").value == alone.qfi("omega").value
    stacks.clear()
    large = Truncation.for_spin(260, 10.0, "positive")  # 2741 rows: solved alone
    got = families.qgt_stack("full", [ModelParams.from_ratios(g, gamma=2.0, j=10.0)
                                      for g in (0.9, 0.95)], large, labels=("omega",))
    assert stacks == [1, 1] and all(comp.method == "linear_solve" for comp in got)


def test_a_failed_stacked_point_fails_alone():
    t = Truncation.for_spin(60, 5.0, "positive")
    good = [ModelParams.from_ratios(0.9, gamma=gamma, j=5.0) for gamma in (0.5, 2.0)]
    nan_coupling = ModelParams(lambda1=math.nan, lambda2=0.3, j=5.0)  # no estimate exists
    wrong_spin = ModelParams.from_ratios(0.9, j=4.0)
    got = families.qgt_stack("full", [good[0], nan_coupling, wrong_spin, good[1]], t,
                             labels=("omega",))
    # each fails as it fails alone
    for result, p in zip(got[1:3], (nan_coupling, wrong_spin)):
        with pytest.raises(type(result), match=re.escape(str(result))):
            qgt_components("full", p, t, labels=("omega",))
    assert isinstance(got[2], ValueError) and "spin_dim" in str(got[2])
    for comp, p in zip((got[0], got[3]), good):
        alone = qgt_components("full", p, t, labels=("omega",))
        assert comp.qfi("omega").value == pytest.approx(alone.qfi("omega").value, rel=1e-12)
    # every other route takes the points one by one, with the same isolation
    small = Truncation.for_spin(10, 5.0, "positive")
    got = families.qgt_stack("full", [good[0], wrong_spin], small, labels=("omega",))
    assert got[0].method == "sum_over_states" and isinstance(got[1], ValueError)
