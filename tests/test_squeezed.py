"""Tests for the squeezed-vacuum families and closed-form curvatures."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg as la

from adicke import (FockCutoff, ModelParams, TruncationError, displacement_solution,
                    qgt_finite_difference)
from adicke.families import ground_state
from squeezed import (berry_curvature_np, berry_curvature_sp, squeeze_params,
                      squeezed_family_builder, squeezed_state_vector)


def expm_squeezed(r, n_max, alpha=0j):
    """Independent construction through the exponential of the generator."""
    dim = n_max + 1
    a = np.zeros((dim, dim))
    a[np.arange(n_max), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    vec = la.expm(0.5 * (np.conj(r) * a @ a - r * a.T @ a.T)) @ np.eye(dim)[0]
    if alpha != 0j:
        vec = la.expm(alpha * a.T - np.conj(alpha) * a) @ vec
    return vec


# ---------------------------------------------------------------------------
# squeeze parameters


def test_squeeze_vanishes_at_zero_coupling():
    assert squeeze_params(0.0, 0.3, "np").r == 0j


def test_squeeze_normal_magnitude():
    sq = squeeze_params(0.8, 0.0, "np")
    assert sq.magnitude == pytest.approx(-0.25 * math.log(0.36), rel=1e-12)
    assert sq.magnitude == pytest.approx(0.25541, abs=5e-6)


def test_squeeze_phase_locked_to_twice_theta():
    sq = squeeze_params(0.6, 0.45, "np")
    assert cmath.phase(-sq.r) == pytest.approx(2 * 0.45, abs=1e-13)


def test_squeeze_superradiant_fades_at_strong_coupling():
    assert squeeze_params(50.0, 0.0, "sp").magnitude < 1e-6


def test_squeeze_domain_errors():
    with pytest.raises(ValueError):
        squeeze_params(1.2, 0.0, "np")
    with pytest.raises(ValueError):
        squeeze_params(0.9, 0.0, "sp")
    with pytest.raises(ValueError):
        squeeze_params(0.5, 0.0, "xx")


# ---------------------------------------------------------------------------
# state construction


def test_zero_squeezing_gives_vacuum():
    vec = squeezed_state_vector(squeeze_params(0.0, 0.0, "np"), 10)
    assert vec[0] == 1.0 and np.max(np.abs(vec[1:])) == 0.0


def test_even_photon_support_only():
    vec = squeezed_state_vector(squeeze_params(0.8, 0.7, "np"), 40)
    assert np.max(np.abs(vec[1::2])) == 0.0
    assert abs(vec[2]) > 0


def test_mean_occupation_is_sinh_squared():
    sq = squeeze_params(0.8, 0.0, "np")
    vec = squeezed_state_vector(sq, 60)
    mean_n = float((np.abs(vec) ** 2 * np.arange(61)).sum())
    assert mean_n == pytest.approx(math.sinh(sq.magnitude) ** 2, abs=1e-12)
    assert mean_n == pytest.approx(0.0667, abs=2e-4)


def test_matches_exponential_oracle():
    sq = squeeze_params(0.85, 0.7, "np")
    vec = squeezed_state_vector(sq, 60)
    assert np.max(np.abs(vec - expm_squeezed(sq.r, 60))) < 1e-12


def test_displaced_state_matches_exponential_oracle():
    p = ModelParams.from_ratios(1.25, gamma=1.0, eta=1.0, theta=0.5, j=0.5)
    alpha = displacement_solution(p).alpha
    sq = squeeze_params(p.g, p.theta, "sp", alpha=alpha)
    vec = squeezed_state_vector(sq, 80)
    assert np.max(np.abs(vec - expm_squeezed(sq.r, 80, alpha=alpha))) < 1e-10


def test_tail_norm_guard():
    with pytest.raises(TruncationError, match="cutoff"):
        squeezed_state_vector(squeeze_params(0.999, 0.0, "np"), 8)


def test_normal_branch_refuses_displacement():
    with pytest.raises(ValueError):
        squeeze_params(0.5, 0.0, "np", alpha=0.3 + 0j)


def test_ground_state_of_one_mode_model_is_squeezed_family():
    for theta in (0.0, 0.7):
        p = ModelParams(omega=1.0, Omega=1.0, lambda1=0.4, lambda2=0.4,
                        theta=theta, j=5.0)
        psi = ground_state("co_np", p, FockCutoff(60))
        family = squeezed_state_vector(squeeze_params(p.g, theta, "np"), 60)
        assert abs(np.vdot(psi, family)) > 1 - 1e-8


# ---------------------------------------------------------------------------
# closed-form curvatures


def test_curvature_normal_small_coupling_limit():
    assert berry_curvature_np(1e-6, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_curvature_normal_frozen_value():
    # frozen from the finite-difference oracle over the constructed family
    assert berry_curvature_np(0.8, 1.0) == pytest.approx(0.23703704, rel=1e-6)


def test_curvature_normal_divergence_ratio():
    assert berry_curvature_np(0.99, 1.0) / berry_curvature_np(0.9, 1.0) > 10


def test_curvature_normal_positive_everywhere():
    for g in np.linspace(0.05, 0.99, 20):
        assert berry_curvature_np(float(g), 1.0) > 0


def test_curvature_superradiant_sign_and_decay():
    for g in np.linspace(1.01, 2.0, 20):
        assert berry_curvature_sp(float(g), 1.0, first_term_only=True) < 0
    assert abs(berry_curvature_sp(60.0, 1.0, first_term_only=True)) < 1e-5


def test_curvature_superradiant_offset_term():
    core = berry_curvature_sp(1.3, 2.0, first_term_only=True)
    full = berry_curvature_sp(1.3, 2.0, lambda_eff=0.4)
    assert full - core == pytest.approx(2 * 0.4**2 / 8.0, rel=1e-14)


def test_curvature_domain_errors():
    with pytest.raises(ValueError):
        berry_curvature_np(1.0, 1.0)
    with pytest.raises(ValueError):
        berry_curvature_sp(0.9, 1.0)
    with pytest.raises(ValueError):
        berry_curvature_np(0.5, -1.0)


# ---------------------------------------------------------------------------
# oracle chain: finite differences over the families match the closed forms


@pytest.mark.parametrize("branch,gs", [
    ("np", (0.30, 0.45, 0.55, 0.65, 0.75, 0.85, 0.90, 0.95)),
    ("sp", (1.05, 1.10, 1.20, 1.30, 1.45, 1.60, 1.80, 2.00)),
])
def test_fd_curvature_matches_closed_form(branch, gs):
    for g in gs:
        p = ModelParams.from_ratios(g, gamma=1.0, eta=1.0, theta=0.4, j=0.5)
        builder = squeezed_family_builder(branch, 140)
        comp = qgt_finite_difference(builder, p, ("theta", "omega"), richardson=True)
        numeric = comp.berry()[0, 1]
        if branch == "np":
            closed = berry_curvature_np(g, 1.0)
        else:
            closed = berry_curvature_sp(g, 1.0, first_term_only=True)
        assert numeric == pytest.approx(closed, rel=1e-6)


def test_theta_diagonal_is_photon_variance_of_family():
    p = ModelParams.from_ratios(0.8, gamma=1.0, eta=1.0, theta=0.3, j=0.5)
    builder = squeezed_family_builder("np", 100)
    comp = qgt_finite_difference(builder, p, ("theta",), richardson=True)
    xi = squeeze_params(0.8, 0.3, "np").magnitude
    assert comp.q[0, 0].real == pytest.approx(0.5 * math.sinh(2 * xi) ** 2, rel=1e-7)


def test_displaced_family_sign_independence_and_offset():
    # both displacement signs give the same tensor, and the offset relative to
    # the undisplaced family follows 2 lambda_eff^2 / omega^3 at j = 1/2
    p = ModelParams.from_ratios(1.2, gamma=1.0, eta=1.0, theta=0.5, j=0.5)
    sol = displacement_solution(p)

    def displaced(sign):
        def build(q):
            disp = displacement_solution(q)
            sq = squeeze_params(q.g, q.theta, "sp", alpha=sign * disp.alpha)
            return squeezed_state_vector(sq, 140)
        return build

    plus = qgt_finite_difference(displaced(+1), p, ("theta", "omega"), richardson=True)
    minus = qgt_finite_difference(displaced(-1), p, ("theta", "omega"), richardson=True)
    assert np.max(np.abs(plus.q - minus.q)) < 1e-10
    lam_eff = (p.lambda1 + p.lambda2) / 2
    expected = berry_curvature_sp(p.g, p.omega, lambda_eff=lam_eff)
    assert plus.berry()[0, 1] == pytest.approx(expected, rel=1e-6)
