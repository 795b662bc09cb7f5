"""Quantum geometric tensor of a nondegenerate eigenstate, three ways.

* sum over states   -- perturbative sum over the full spectrum,
* linear solve      -- resolvent tangents |x_mu> = (H - E0)^+ P dH_mu |psi0>,
  so no excited states are needed,
* finite difference -- central differences of gauge-fixed ground states.

All three agree on tractable problems; they validate each other in the test
suite.  The real part of the tensor is the metric, the imaginary part gives
the curvature F_{mu nu} = 2 Im Q_{mu nu}, and the Fisher information of a
diagonal entry is 4 G_{mu mu}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DegeneracyError, StencilError
from .model import ModelParams, OperatorMatrix
from .spectra import Eigensystem, gauge_fix

#: Default relative finite-difference step.
FD_STEP = 1e-5

#: Stencil neighbors overlapping less than this indicate a crossing.
MIN_STENCIL_OVERLAP = 0.5


@dataclass(frozen=True)
class QGTComponents:
    """The tensor over an ordered subset of parameter labels.

    ``energy`` and ``gap`` are the ground energy and the level spacing above
    it of the matrix the tensor came from, when the caller supplies them.
    """

    labels: tuple[str, ...]
    q: np.ndarray
    method: str
    energy: float = math.nan
    gap: float = math.nan

    def __post_init__(self):
        qm = np.asarray(self.q)
        if qm.shape != (len(self.labels), len(self.labels)):
            raise ValueError("tensor shape does not match the label count")
        if float(np.max(np.abs(qm - qm.conj().T))) > 1e-10:
            raise ValueError("tensor is not Hermitian within 1e-10")

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def entry(self, mu: str, nu: str) -> complex:
        return complex(self.q[self.index(mu), self.index(nu)])

    def metric(self) -> np.ndarray:
        return metric(self)

    def berry(self) -> np.ndarray:
        return berry(self)

    def qfi(self, label: str) -> "QFIValue":
        return qfi(self, label)


@dataclass(frozen=True)
class QFIValue:
    """Fisher information for one parameter: four times the metric diagonal."""

    label: str
    value: float

    def __post_init__(self):
        if self.value < -1e-10:
            raise ValueError(f"negative Fisher information {self.value}")


def metric(components: QGTComponents, hermiticity_tol: float = 1e-8) -> np.ndarray:
    """Real part of the tensor, symmetrized exactly."""
    qm = components.q
    defect = float(np.max(np.abs(qm - qm.conj().T)))
    if defect > hermiticity_tol:
        raise ValueError(f"tensor Hermiticity defect {defect:.2e} exceeds {hermiticity_tol}")
    real = qm.real
    return 0.5 * (real + real.T)


def berry(components: QGTComponents, hermiticity_tol: float = 1e-8) -> np.ndarray:
    """Curvature 2 Im Q, antisymmetrized exactly."""
    qm = components.q
    defect = float(np.max(np.abs(qm - qm.conj().T)))
    if defect > hermiticity_tol:
        raise ValueError(f"tensor Hermiticity defect {defect:.2e} exceeds {hermiticity_tol}")
    imag = qm.imag
    return imag - imag.T


def qfi(components: QGTComponents, label: str) -> QFIValue:
    """Fisher information 4 G_{mu mu} for one parameter label."""
    g = metric(components)
    k = components.index(label)
    return QFIValue(label=label, value=4.0 * float(g[k, k]))


# ---------------------------------------------------------------------------
# method 1: sum over states


def qgt_matrix_sum(es: Eigensystem, derivs: Sequence[OperatorMatrix],
                   labels: Sequence[str], n: int = 0) -> QGTComponents:
    """Assemble the full tensor over a label subset from one spectrum."""
    if es.degenerate(n):
        raise DegeneracyError(f"state {n} is (near-)degenerate; the sum is ill-defined")
    psi = es.states[:, n]
    denom = es.energies - es.energies[n]
    keep = np.arange(es.count) != n
    weights = np.zeros_like(denom)
    weights[keep] = 1.0 / denom[keep] ** 2
    coeffs = [es.states.conj().T @ (d.mat @ psi) for d in derivs]
    m = len(derivs)
    q = np.empty((m, m), dtype=complex)
    for i in range(m):
        for k in range(i, m):
            val = complex(np.sum(np.conj(coeffs[i]) * coeffs[k] * weights))
            q[i, k] = val
            q[k, i] = np.conj(val)
    return QGTComponents(labels=tuple(labels), q=q, method="sum_over_states")


# ---------------------------------------------------------------------------
# method 2: resolvent linear solve


def resolvent_tangent(ham: OperatorMatrix, energy: float, psi: np.ndarray,
                      d_op: OperatorMatrix, tol: float = 1e-10) -> np.ndarray:
    """Solve (H - E0) |x> = P_perp dH |psi0> inside the orthogonal complement.

    A bordered system pins <psi0|x> = 0, which keeps the otherwise singular
    shifted matrix invertible without densifying it.
    """
    dim = ham.dim
    rhs_full = d_op.mat @ psi
    rhs = rhs_full - psi * np.vdot(psi, rhs_full)
    shifted = (sp.csr_array(ham.mat) - energy * sp.identity(dim, format="csr")).tocsr()
    bordered = sp.bmat(
        [[shifted, psi.reshape(-1, 1)], [psi.conj().reshape(1, -1), None]],
        format="csc", dtype=complex)
    sol = spla.spsolve(bordered, np.concatenate([rhs, [0.0]]))
    x = sol[:dim]
    x = x - psi * np.vdot(psi, x)
    residual = float(np.linalg.norm(shifted @ x - rhs))
    # written so that a NaN residual (an exactly singular factorization) fails too
    if not residual <= tol * max(1.0, float(np.linalg.norm(rhs))):
        raise ConvergenceError(f"projected linear solve residual {residual:.2e}",
                               residual=residual)
    return x


def qgt_matrix_solve(ham: OperatorMatrix, energy: float, psi: np.ndarray,
                     derivs: Sequence[OperatorMatrix], labels: Sequence[str],
                     tol: float = 1e-10) -> QGTComponents:
    tangents = [resolvent_tangent(ham, energy, psi, d, tol=tol) for d in derivs]
    m = len(derivs)
    q = np.empty((m, m), dtype=complex)
    for i in range(m):
        for k in range(i, m):
            val = complex(np.vdot(tangents[i], tangents[k]))
            q[i, k] = val
            q[k, i] = np.conj(val)
    return QGTComponents(labels=tuple(labels), q=q, method="linear_solve")


# ---------------------------------------------------------------------------
# method 3: finite differences of gauge-fixed ground states


GroundStateBuilder = Callable[[ModelParams], np.ndarray]


def _fd_tangents(builder: GroundStateBuilder, p: ModelParams,
                 labels: Sequence[str], steps: dict[str, float],
                 min_overlap: float) -> tuple[np.ndarray, list[np.ndarray]]:
    center = gauge_fix(builder(p))
    tangents = []
    for label in labels:
        h = steps[label]
        plus = gauge_fix(builder(p.shifted(label, h)))
        minus = gauge_fix(builder(p.shifted(label, -h)))
        closeness = abs(np.vdot(plus, minus))
        if closeness < min_overlap:
            raise StencilError(
                f"stencil neighbors overlap only {closeness:.3f} along {label}; "
                "the step is too large or a level crossing sits inside the stencil")
        tangents.append((plus - minus) / (2.0 * h))
    return center, tangents


def _q_from_tangents(center: np.ndarray, tangents: list[np.ndarray]) -> np.ndarray:
    m = len(tangents)
    q = np.empty((m, m), dtype=complex)
    proj = [np.vdot(t, center) for t in tangents]  # <d_mu psi | psi>
    for i in range(m):
        for k in range(i, m):
            val = np.vdot(tangents[i], tangents[k]) - proj[i] * np.conj(proj[k])
            q[i, k] = val
            q[k, i] = np.conj(val)
    return q


def default_steps(p: ModelParams, labels: Sequence[str],
                  scale: float = FD_STEP) -> dict[str, float]:
    return {label: scale * max(1.0, abs(getattr(p, label))) for label in labels}


def qgt_finite_difference(builder: GroundStateBuilder, p: ModelParams,
                          labels: Sequence[str], steps: dict[str, float] | None = None,
                          richardson: bool | None = None,
                          min_overlap: float = MIN_STENCIL_OVERLAP) -> QGTComponents:
    """Tensor from central differences of the ground-state family.

    ``builder`` maps a parameter point to a normalized ground state; it is
    re-gauge-fixed here, so any phase convention is accepted.  With
    ``richardson`` the step is halved once and the two estimates extrapolated;
    it defaults to on near the critical coupling where the state manifold
    curves strongly.
    """
    if richardson is None:
        richardson = abs(p.g - 1.0) <= 0.03
    steps = dict(steps) if steps is not None else default_steps(p, labels)
    center, tangents = _fd_tangents(builder, p, labels, steps, min_overlap)
    q = _q_from_tangents(center, tangents)
    if richardson:
        halved = {k: v / 2.0 for k, v in steps.items()}
        _, tangents_h = _fd_tangents(builder, p, labels, halved, min_overlap)
        q_h = _q_from_tangents(center, tangents_h)
        q = (4.0 * q_h - q) / 3.0
    return QGTComponents(labels=tuple(labels), q=q, method="finite_difference")
