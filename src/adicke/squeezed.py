"""Squeezed-vacuum ground-state families and their closed-form curvatures.

In the classical-oscillator limit at symmetric couplings the ground state is
a squeezed vacuum S[r]|0> with

    S[r] = exp[(1/2)(conj(r) a^2 - r a'^2)],
    r = e^{2 i theta} (1/4) ln(1 - g^2)        (normal side, 0 <= g < 1),
    r = e^{2 i theta} (1/4) ln(1 - g^{-4})     (superradiant side, g > 1),

optionally displaced by D[+-alpha] on the superradiant side.  These families
serve as independent oracles for the numerical tensor machinery: their
curvature component F_{theta omega} is available in closed form.  The
displacement D[alpha] = exp(alpha a' - conj(alpha) a) acts on the cutoff's
Fock space through numpy's ``eigh`` of the Hermitian -i (alpha a' - conj(alpha) a).

The curvature implemented here is the exact one of the printed state family,

    F_{theta omega} = (d|r|/d omega) * sinh(2 |r|) * sign,

obtained by differentiating S[r]|0> directly (the squeeze generator and its
omega-derivative commute, so no operator-ordering correction arises), and it
agrees with finite differences of the constructed states to stencil accuracy.
The omega-derivative holds (Omega, lambda1, lambda2) fixed, so g varies as
omega does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

_BRANCHES = ("np", "sp")

#: Norm that a Fock cutoff may lose off a squeezed or displaced state.
SQUEEZE_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing amplitude of one branch, plus the optional displacement."""

    r: complex
    branch: str
    alpha: complex = 0j

    def __post_init__(self):
        if self.branch not in _BRANCHES:
            raise ValueError(f"branch must be one of {_BRANCHES}")
        if self.branch == "np" and self.alpha != 0j:
            raise ValueError("the normal branch carries no displacement")

    @property
    def magnitude(self) -> float:
        return abs(self.r)


def _log_factor(g: float, branch: str) -> float:
    if branch == "np":
        if not 0.0 <= g < 1.0:
            raise ValueError(f"normal branch needs 0 <= g < 1, got g = {g}")
        return 0.25 * math.log(1.0 - g * g)
    if g <= 1.0:
        raise ValueError(f"superradiant branch needs g > 1, got g = {g}")
    return 0.25 * math.log(1.0 - g**-4)


def squeeze_params(g: float, theta: float, branch: str,
                   alpha: complex = 0j) -> SqueezeParams:
    """Closed-form squeezing parameter of one branch at coupling g."""
    rho = _log_factor(g, branch)  # <= 0 on both branches
    return SqueezeParams(r=cmath.exp(2j * theta) * rho, branch=branch, alpha=alpha)


def squeezed_state_vector(sq: SqueezeParams, n_max: int) -> np.ndarray:
    """Fock-basis vector of S[r]|0>, displaced by D[alpha] when alpha != 0.

    The undisplaced squeezed vacuum has support on even photon numbers only;
    its coefficients follow the standard two-photon recursion.  The cutoff
    must hold all but SQUEEZE_TAIL_TOL of the norm, otherwise the construction
    refuses and asks for a larger basis.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    dim = n_max + 1
    vec = np.zeros(dim, dtype=complex)
    xi = abs(sq.r)
    if xi == 0.0:
        vec[0] = 1.0
    else:
        phase = sq.r / xi
        t = math.tanh(xi)
        coeff = complex(math.sqrt(1.0 / math.cosh(xi)))
        vec[0] = coeff
        m = 1
        while 2 * m <= n_max:
            coeff = coeff * (-phase * t) * math.sqrt((2 * m - 1) / (2 * m))
            vec[2 * m] = coeff
            m += 1
        tail = 1.0 - float(np.sum(np.abs(vec) ** 2))
        if tail > SQUEEZE_TAIL_TOL:
            raise TruncationError(
                f"cutoff n_max={n_max} keeps only 1-{tail:.2e} of the squeezed state; "
                "increase the cutoff")
    if sq.alpha != 0j:
        # G = alpha a' - conj(alpha) a is anti-Hermitian, so -i G = V diag(w) V^dagger
        # and D = exp(G) = V diag(e^{i w}) V^dagger
        ladder = np.zeros((dim, dim))
        ladder[np.arange(n_max), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
        w, v = np.linalg.eigh(-1j * (sq.alpha * ladder.T - np.conj(sq.alpha) * ladder))
        vec = v @ (np.exp(1j * w) * (v.conj().T @ vec))
        defect = abs(1.0 - float(np.linalg.norm(vec)))
        if defect > SQUEEZE_TAIL_TOL:
            raise TruncationError(
                f"displacement pushes {defect:.2e} of the norm past n_max={n_max}; "
                "increase the cutoff")
        vec = vec / np.linalg.norm(vec)
    return vec


def _curvature_core(g: float, omega: float, branch: str) -> float:
    """F_{theta omega} of the undisplaced squeezed family."""
    rho = _log_factor(g, branch)
    if branch == "np":
        # d rho / d omega at fixed couplings: dg/domega = -g/(2 omega)
        drho = g * g / (4.0 * omega * (1.0 - g * g))
    else:
        drho = -g**-4 / (2.0 * omega * (1.0 - g**-4))
    return -math.sinh(2.0 * rho) * drho


def berry_curvature_np(g: float, omega: float) -> float:
    """Closed-form curvature of the normal-branch family; positive on (0, 1)."""
    if not 0.0 < g < 1.0:
        raise ValueError(f"normal branch curvature needs 0 < g < 1, got g = {g}")
    if omega <= 0:
        raise ValueError("omega must be positive")
    return _curvature_core(g, omega, "np")


def berry_curvature_sp(g: float, omega: float, lambda_eff: float = 0.0,
                       first_term_only: bool = False) -> float:
    """Closed-form curvature of the superradiant-branch family.

    The divergent (squeezing) term is negative for all g > 1.  The
    displacement adds a finite offset 2 lambda_eff^2 / omega^3 which is
    negligible near the critical point; ``first_term_only`` drops it.
    """
    if g <= 1.0:
        raise ValueError(f"superradiant branch curvature needs g > 1, got g = {g}")
    if omega <= 0:
        raise ValueError("omega must be positive")
    core = _curvature_core(g, omega, "sp")
    if first_term_only:
        return core
    return core + 2.0 * lambda_eff**2 / omega**3


def squeezed_family_builder(branch: str, n_max: int):
    """State builder over parameter points for the finite-difference oracle.

    The squeezing tracks the point's own g (couplings held fixed while omega
    varies); the displacement is left off, which is the comparison level of
    the closed forms above.
    """

    def build(p) -> np.ndarray:
        return squeezed_state_vector(squeeze_params(p.g, p.theta, branch), n_max)

    return build
