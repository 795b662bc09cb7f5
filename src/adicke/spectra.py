"""Eigensolvers, gauge fixing and the symplectic normal-mode oracle.

Every solver returns gauge-fixed eigenvectors: the global phase of each state
is rotated so that its largest-magnitude component is real and positive (ties
broken by lowest basis index).  This makes eigenvectors deterministic across
backends and is what allows finite differences of ground states.  The solvers
keep the dtype of the matrix: a real symmetric matrix gets real eigenvectors,
whose phase is a sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .effective import QuadraticBosonForm
from .errors import ConvergenceError, TruncationError
from .model import OperatorMatrix

#: The one dense/sparse policy, keyed on the dimension of the matrix that is
#: solved (the parity-sector block for the full model).  At or below it a
#: matrix gets a dense full-spectrum decomposition and the tensor defaults to
#: the sum over states; above it the two lowest pairs come from the sparse
#: iterative solver and the tensor defaults to the resolvent solve.  On a
#: 2-core Xeon with OpenBLAS the dense route is at least as fast up to
#: dimension ~200 and the sparse route is faster from ~250 up (4x at 641).
DENSE_SOLVE_LIMIT = 256

#: Full-spectrum decompositions are refused above this dimension.
DENSE_EIG_LIMIT = 4000

#: Levels closer than this (relative to the spectral scale) count as degenerate.
DEGENERACY_RTOL = 1e-10


def gauge_fix(v: np.ndarray, tie_tol: float = 1e-12) -> np.ndarray:
    """Rotate a state's global phase so its largest component is real positive.

    Components whose magnitudes agree within ``tie_tol`` (relative) are tied;
    the lowest basis index wins, keeping the choice deterministic.  A real
    vector stays real: its phase is the sign of the pivot.
    """
    v = np.asarray(v)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v.copy()
    pivot = int(np.flatnonzero(mags >= top * (1.0 - tie_tol))[0])
    phase = v[pivot] / mags[pivot]
    return v * np.conj(phase)


@dataclass(frozen=True)
class Eigensystem:
    """Ascending eigenvalues with orthonormal, gauge-fixed eigenvectors."""

    energies: np.ndarray
    states: np.ndarray  # one eigenvector per column
    sector: str = ""

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def count(self) -> int:
        return self.states.shape[1]

    @property
    def gap(self) -> float:
        """Distance from the lowest level to the next; NaN for a single level."""
        return float(self.energies[1] - self.energies[0]) if self.count > 1 else float("nan")

    def degenerate(self, n: int, rtol: float = DEGENERACY_RTOL) -> bool:
        """Whether level n is closer than rtol * spectral scale to a neighbor."""
        scale = max(1.0, float(np.max(np.abs(self.energies))))
        gaps = []
        if n > 0:
            gaps.append(self.energies[n] - self.energies[n - 1])
        if n + 1 < self.count:
            gaps.append(self.energies[n + 1] - self.energies[n])
        return bool(gaps) and min(gaps) < rtol * scale

    def check(self, op: OperatorMatrix, residual_rtol: float = 1e-9,
              ortho_tol: float = 1e-10) -> None:
        """Validate residuals and orthonormality against the source matrix."""
        h = op.mat
        norm = float(spla.norm(h)) if sp.issparse(h) else float(np.linalg.norm(h))
        res = h @ self.states - self.states * self.energies[None, :]
        worst = float(np.max(np.linalg.norm(res, axis=0)))
        if worst > residual_rtol * max(norm, 1.0):
            raise ConvergenceError(f"eigenpair residual {worst:.2e} exceeds tolerance",
                                   residual=worst)
        overlaps = self.states.conj().T @ self.states
        defect = float(np.max(np.abs(overlaps - np.eye(self.count))))
        if defect > ortho_tol:
            raise ConvergenceError(f"orthonormality defect {defect:.2e}", residual=defect)


def dense_eigensystem(op: OperatorMatrix, dense_limit: int = DENSE_EIG_LIMIT) -> Eigensystem:
    """Full spectrum of a Hermitian matrix, ascending, gauge-fixed."""
    if op.dim > dense_limit:
        raise TruncationError(
            f"dimension {op.dim} exceeds the dense limit {dense_limit}; use lowest_k instead")
    energies, states = la.eigh(op.toarray())
    for k in range(states.shape[1]):
        states[:, k] = gauge_fix(states[:, k])
    return Eigensystem(energies=energies, states=states, sector=op.basis)


def _start_vector(dim: int) -> np.ndarray:
    """Deterministic, mildly asymmetric start vector for the iterative solver."""
    pattern = 1.0 + ((np.arange(dim) * 2654435761) % 1009) / 1e4
    return pattern / np.linalg.norm(pattern)


def lowest_k(op: OperatorMatrix, k: int, tol: float = 0.0,
             maxiter: int | None = None) -> Eigensystem:
    """The k lowest eigenpairs of a (possibly sparse) Hermitian matrix."""
    dim = op.dim
    if k >= dim - 1:
        # ARPACK needs k < dim - 1; below that just take the dense route.
        es = dense_eigensystem(op)
        return Eigensystem(energies=es.energies[:k], states=es.states[:, :k],
                           sector=es.sector)
    try:
        energies, states = spla.eigsh(op.mat, k=k, which="SA", v0=_start_vector(dim),
                                      tol=tol, maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        found = len(exc.eigenvalues)
        raise ConvergenceError(
            f"iterative eigensolver converged only {found}/{k} pairs", residual=None) from exc
    order = np.argsort(energies)
    energies = energies[order]
    states = states[:, order]
    for i in range(states.shape[1]):
        states[:, i] = gauge_fix(states[:, i])
    return Eigensystem(energies=energies, states=states, sector=op.basis)


def ground_eigensystem(op: OperatorMatrix) -> Eigensystem:
    """Ground state and the level above it, by the DENSE_SOLVE_LIMIT policy.

    At or below the limit this is the full dense spectrum, so the sum over
    states can use the same solve; above it, the two lowest pairs.
    """
    if op.dim <= DENSE_SOLVE_LIMIT:
        return dense_eigensystem(op)
    return lowest_k(op, 2)


# ---------------------------------------------------------------------------
# symplectic (Bogoliubov) normal modes for quadratic boson forms


@dataclass(frozen=True)
class NormalModes:
    """Normal-mode excitation energies of a quadratic boson Hamiltonian.

    ``energies`` are real and non-negative when ``stable``; otherwise the raw
    (possibly complex) mode eigenvalues are reported unclamped and
    ``ground_energy`` is NaN.  ``ground_energy`` includes the form's scalar
    constant, so it is directly comparable to a matrix ground energy.
    """

    energies: np.ndarray
    ground_energy: float
    stable: bool

    @property
    def gap(self) -> float:
        return float(np.min(self.energies.real)) if self.energies.size else 0.0


def bogoliubov_modes(form: QuadraticBosonForm, tol: float = 1e-9) -> NormalModes:
    """Symplectic normal-mode frequencies of a quadratic form.

    One mode: H = A n + (c a'^2 + h.c.) + C0 has epsilon = sqrt(A^2 - 4|c|^2)
    and vacuum energy C0 + (epsilon - A)/2.  Two modes: the standard
    symplectic eigenproblem of the 4x4 single-particle block.
    """
    if form.modes == 1:
        a_coeff = form.n_a
        b_mag = 2.0 * abs(form.squeeze)
        disc = a_coeff * a_coeff - b_mag * b_mag
        if disc < -tol * max(1.0, a_coeff * a_coeff) or a_coeff < 0:
            eps = np.array([np.emath.sqrt(disc)])
            return NormalModes(energies=eps, ground_energy=float("nan"), stable=False)
        eps = float(np.sqrt(max(disc, 0.0)))
        return NormalModes(energies=np.array([eps]),
                           ground_energy=form.const + 0.5 * (eps - a_coeff),
                           stable=True)

    h = np.array([[form.n_a, form.hop],
                  [np.conj(form.hop), form.n_b]], dtype=complex)
    delta = np.array([[2.0 * form.squeeze, form.pair],
                      [form.pair, 0.0]], dtype=complex)
    big = np.block([[h, delta], [np.conj(delta), np.conj(h)]])
    dyn = np.block([[h, delta], [-np.conj(delta), -np.conj(h)]])
    scale = max(1.0, float(np.max(np.abs(big))))
    eig = np.linalg.eigvals(dyn)
    real_enough = float(np.max(np.abs(eig.imag))) <= tol * scale
    positive = float(np.min(np.linalg.eigvalsh(big))) >= -tol * scale
    if not (real_enough and positive):
        return NormalModes(energies=np.sort_complex(eig), ground_energy=float("nan"),
                           stable=False)
    eps = np.sort(eig.real)[form.modes:]  # keep the +epsilon partners
    eps = np.clip(eps, 0.0, None)
    ground = form.const + 0.5 * (float(np.sum(eps)) - float(np.trace(h).real))
    return NormalModes(energies=eps, ground_energy=ground, stable=True)
