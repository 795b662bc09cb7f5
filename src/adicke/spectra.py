"""Eigensolvers, gauge fixing and the symplectic normal-mode oracle.

Every solver returns gauge-fixed eigenvectors: the global phase of each state
is rotated so that its largest-magnitude component is real and positive (ties
broken by lowest basis index).  This makes eigenvectors deterministic across
backends and is what allows finite differences of ground states.  The solvers
keep the dtype of the matrix: a real symmetric matrix gets real eigenvectors,
whose phase is a sign.

Above the dense limit the lowest pairs come from shift-invert Lanczos
(Ericsson & Ruhe, Math. Comp. 35, 1251 (1980)) about a shift certified to lie
below the spectrum; the factor of the shifted matrix is kept on the result,
so the resolvent solve of the same point needs no second factorization.
Every matrix here is banded in its basis order: the full model's parity
sector has half-bandwidth about j + 1, a classical-spin form n_b + 2 and a
one-mode form 2.  So the factor is LAPACK's banded Cholesky factor
(``pbtrf``), and it certifies the shift by existing: H - sigma has a
Cholesky factor exactly when it is positive definite, i.e. when sigma lies
below the spectrum.  The Lanczos recursion is plain numpy with full
reorthogonalisation, and it stops as ARPACK does at ``tol = 0``.

``lowest_k`` also takes a stack of matrices of one size
(``model.BandStack``, their bands laid end to end in one block-diagonal
band).  Each member keeps its own estimate, its own certified factor (a
block of one ``FactorStack``), its own stop test, with its pairs taken at
the step where that test first passes, and its own failure; what the
members share is one Lanczos, whose every step makes one band solve for
all of them, with their reorthogonalisation and tridiagonal eigenproblems
batched.  One matrix is a stack of one and runs the same code.

A quadratic boson form needs no matrix at all: its normal-mode energies come
from its single-particle matrix, and ``symplectic_transform`` gives them and
the transform to the normal modes in one solve (Colpa, Physica A 93, 327
(1978)), certified by ``check_symplectic``.  ``bogoliubov_modes`` reaches
the same energies by a different solve and is kept as their oracle and as
the shift estimate of the shift-invert route.

Every route runs on numpy's LAPACK and numpy's bundled OpenBLAS, and loads
no part of scipy: the builders hand a matrix at or below DENSE_SOLVE_LIMIT
over as an ndarray and one above it as its upper band
(``model.PiecePattern.matrix``), ``dense_eigensystem`` is numpy's ``eigh``,
real or complex, the shift-invert route factors, solves and multiplies
through numpy's own OpenBLAS (``_blas.pbtrf``, ``solver``, ``product``), and
``symplectic_transform`` is a numpy Cholesky factor, one Hermitian
eigendecomposition and one product with the factor, on a matrix of at most
4 x 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .effective import QuadraticBosonForm
from .errors import ConvergenceError, DegeneracyError, TruncationError
from .model import BandStack, as_band, as_dense

#: The one dense/band policy, keyed on the dimension of the matrix that is
#: solved (the parity-sector block for the full model).  At or below it a
#: matrix is built as an ndarray, gets a dense full-spectrum decomposition
#: and the tensor defaults to the sum over states; above it the matrix is
#: built as its upper band, the two lowest pairs come from the shift-invert
#: solver and the tensor defaults to the resolvent solve.  Per
#: two-label tensor on a 2-core Xeon with OpenBLAS on one thread, as
#: ``families.qgt_components`` runs it (best of 30 in each of five runs,
#: numpy's ``eigh`` for the sum; for the solve the banded factor, Lanczos
#: and conjugate gradients on numpy's OpenBLAS), the two tie at dimensions
#: 88 and 121 (full model, 1.0-2.1 ms); the solve is 1.8-2.5x faster at
#: 143-171, 3.0-5.4x at 221-252, 23-36x at 641 and 24-28x for cs_np at 676.
#: The limit stays at 256, so every row keeps the method it reported before.
DENSE_SOLVE_LIMIT = 256

#: Full-spectrum decompositions are refused above this dimension.
DENSE_EIG_LIMIT = 4000

#: Levels closer than this (relative to the spectral scale) count as degenerate.
DEGENERACY_RTOL = 1e-10

#: Eigenpair residual bound of ``Eigensystem.check``, relative to the matrix norm.
RESIDUAL_RTOL = 1e-9

#: Largest entry of V^dagger V - 1 that ``Eigensystem.check`` accepts.
ORTHO_TOL = 1e-10

#: Components whose magnitudes agree within this (relative) tie in ``gauge_fix``.
GAUGE_TIE_TOL = 1e-12

#: Shifts tried below an energy estimate, the step growing 4x each time,
#: before the Gershgorin floor.
SHIFT_TRIES = 4

#: Lanczos steps of ``lowest_k`` before it gives up.  About a shift within a
#: gap of the ground energy the two lowest pairs pass the first convergence
#: test, at the 20th step, or one of the next three.
LANCZOS_MAXITER = 300

#: Relative tolerance of ``bogoliubov_modes``: a mode eigenvalue whose
#: imaginary part, or a single-particle eigenvalue whose negative part,
#: exceeds it (times the matrix scale) makes the form unstable.
MODE_STABILITY_TOL = 1e-9

#: Largest entry of T^dagger eta T - eta and of T^dagger M T - diag(eps, eps),
#: each relative to |t_k| |t_l| (and the scale of M), that
#: ``check_symplectic`` accepts.
SYMPLECTIC_TOL = 1e-10

#: Largest relative uncertainty of a mode energy that ``check_symplectic``
#: accepts; a mode softer than that counts as gapless.
MODE_RTOL = 1e-8


def gauge_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a state's global phase so its largest component is real positive.

    ``v`` is one state or a matrix holding one state per column; each column
    is fixed on its own.  Components whose magnitudes agree within
    GAUGE_TIE_TOL (relative) are tied; the lowest basis index wins, keeping
    the choice deterministic.  A real vector stays real: its phase is the
    sign of the pivot.  A zero column is returned unchanged.
    """
    v = np.asarray(v)
    cols = v.reshape(v.shape[0], -1)
    mags = np.abs(cols)
    top = mags.max(axis=0)
    pivot = np.argmax(mags >= top * (1.0 - GAUGE_TIE_TOL), axis=0)  # first tied index
    at = np.arange(cols.shape[1])
    nonzero = top > 0.0
    phase = np.where(nonzero, cols[pivot, at] / np.where(nonzero, mags[pivot, at], 1.0), 1.0)
    return (cols * np.conj(phase)).reshape(v.shape)


@dataclass(frozen=True)
class ShiftInvert:
    """A banded Cholesky factor of H - sigma; its existence certifies sigma below H.

    ``factor`` is the upper factor U (H - sigma = U^dagger U) in LAPACK's
    column-major upper band storage (``_blas.pbtrf``).
    """

    sigma: float
    factor: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.factor.dtype

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(H - sigma)^-1 rhs, for one column or several; a real factor takes complex rhs."""
        return FactorStack.join([self]).solve(np.asarray(rhs).T).T


@dataclass(frozen=True, eq=False)
class FactorStack:
    """The shift-invert factors of a ``model.BandStack``'s members, laid out as it is.

    Member b's factor U_b (H_b - sigmas[b] = U_b^dagger U_b) is columns
    b * size to (b + 1) * size - 1 of the column-major band ``factor``, and
    the stack's factor is block-diagonal, so one ``pbtrs`` call solves every
    member at once.  A member whose factor failed holds the identity, which
    keeps its zero vectors zero.
    """

    sigmas: np.ndarray
    factor: np.ndarray

    @classmethod
    def join(cls, factors) -> "FactorStack":
        """The stack of member factors of one size: the array they are the
        consecutive blocks of, when they are (as ``lowest_k`` leaves them),
        and a copy otherwise."""
        sigmas = np.array([f.sigma for f in factors])
        arrays = [f.factor for f in factors]
        base, first = arrays[0].base, arrays[0]
        if len(arrays) == 1:
            return cls(sigmas, first)
        if (base is not None and base.flags.f_contiguous
                and base.shape == (first.shape[0], first.shape[1] * len(arrays))
                and all(a.ctypes.data == base.ctypes.data + b * first.nbytes
                        for b, a in enumerate(arrays))):
            return cls(sigmas, base)
        width = max(a.shape[0] for a in arrays)
        out = np.zeros((width, first.shape[1] * len(arrays)),
                       dtype=np.result_type(*arrays), order="F")
        for b, a in enumerate(arrays):
            out[width - a.shape[0]:, b * a.shape[1]:(b + 1) * a.shape[1]] = a
        return cls(sigmas, out)

    @property
    def dtype(self) -> np.dtype:
        return self.factor.dtype

    @property
    def members(self) -> int:
        return self.sigmas.size

    @property
    def size(self) -> int:
        return self.factor.shape[1] // self.members

    def member(self, b: int) -> ShiftInvert:
        n = self.size
        return ShiftInvert(sigma=float(self.sigmas[b]), factor=self.factor[:, b * n:(b + 1) * n])

    @functools.cached_property
    def _solve(self):
        return _blas.solver(self.factor)

    def solve_into(self, x: np.ndarray) -> None:
        """Overwrite x, a C-contiguous array of the factor's dtype whose last
        two axes are (members, size), with (H_b - sigma_b)^-1 x_b for every
        member; leading axes hold more right-hand sides, all solved in one call."""
        if not x.flags.c_contiguous:  # a reshape would solve a copy
            raise ValueError("solve_into takes a C-contiguous array")
        self._solve(x.reshape(-1, self.factor.shape[1]).T)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``solve_into`` on a copy; a real factor takes complex rhs."""
        if rhs.dtype.kind == "c" and self.dtype.kind != "c":
            return self.solve(rhs.real) + 1j * self.solve(rhs.imag)
        x = np.array(rhs, dtype=self.dtype, order="C")
        self.solve_into(x)
        return x


def gershgorin_floor(op):
    """min_i (H_ii - sum_{j != i} |H_ij|): no eigenvalue of H lies below it.

    Read off the upper band: row i's entries right of the diagonal sit on
    its superdiagonals, and those left of it, conjugated, in column i.  A
    ``model.BandStack`` gets one floor per member, from one pass over its
    band: no entry joins two members.
    """
    stack = op if isinstance(op, BandStack) else BandStack(as_band(op))
    band = stack.matrix.band
    kd = band.shape[0] - 1
    mags = np.abs(band[:-1])
    radius = mags.sum(axis=0)
    for d in range(1, kd + 1):
        radius[:-d] += mags[kd - d, d:]
    floors = np.min((band[-1].real - radius).reshape(stack.members, -1), axis=1)
    return floors if isinstance(op, BandStack) else float(floors[0])


def shift_invert(op, energy: float = math.nan, gap: float = math.nan,
                 out: np.ndarray | None = None, floor: float | None = None) -> ShiftInvert:
    """Factor H - sigma for a sigma certified below the lowest eigenvalue of H.

    The certificate is the factor itself: a Cholesky factorization of the
    Hermitian H - sigma exists exactly when it is positive definite, i.e.
    when sigma lies below the spectrum.  LAPACK reports a pivot that is not
    positive; its banded routine lets a NaN pivot through, and a NaN or
    infinite entry of the band reaches the factor's diagonal, so a factor
    whose diagonal is not finite is refused too.  ``op`` is any Hermitian
    matrix (``model.as_band``); each trial shift moves only its band's
    diagonal.  The factor is made in ``out`` when it is given: a
    column-major array of the band's shape and dtype, such as a member's
    block of a ``FactorStack``; ``floor`` is H's Gershgorin floor when the
    caller has it.

    ``energy`` estimates the ground energy and ``gap`` the spacing above it.
    The first shift is a tenth of the gap below the estimate, and at least
    1e-8 of its scale; after each failed factorization the step below the
    estimate grows 4x, for at most SHIFT_TRIES shifts.  The last resort, and
    the start when the estimate is missing or not above it, is the
    Gershgorin floor, which lies below the spectrum by construction.
    """
    h = as_band(op)
    floor = gershgorin_floor(h) if floor is None else floor
    shifts = []
    if energy > floor:  # False for a NaN estimate
        step = max(gap / 10.0 if gap > 0.0 else 0.0, 1e-8 * max(1.0, abs(energy)))
        shifts = [energy - step * 4.0**k for k in range(SHIFT_TRIES)]
        shifts = [sigma for sigma in shifts if sigma > floor]
    shifts.append(floor - 1e-8 * max(1.0, abs(floor)))
    for sigma in shifts:
        shifted = np.empty_like(h.band, order="F") if out is None else out
        shifted[...] = h.band
        shifted[-1] -= sigma
        factor, info = _blas.pbtrf(shifted)
        # info > 0: a pivot is not positive, so sigma is not below H
        if info == 0 and np.all(np.isfinite(factor[-1])):
            return ShiftInvert(sigma=sigma, factor=factor)
    raise ConvergenceError(
        f"no shift down to the Gershgorin floor {floor:.6g} factors as positive definite",
        residual=None)


@dataclass(frozen=True)
class Eigensystem:
    """Ascending eigenvalues with orthonormal, gauge-fixed eigenvectors.

    ``factor`` is the certified shift-invert factor the pairs came from, when
    they came from one; the resolvent solve reuses it.
    """

    energies: np.ndarray
    states: np.ndarray  # one eigenvector per column
    factor: ShiftInvert | None = field(default=None, compare=False, repr=False)

    @property
    def count(self) -> int:
        return self.states.shape[1]

    @property
    def gap(self) -> float:
        """Distance from the lowest level to the next; NaN for a single level."""
        return float(self.energies[1] - self.energies[0]) if self.count > 1 else float("nan")

    def degenerate(self, n: int) -> bool:
        """Whether level n is closer than DEGENERACY_RTOL * spectral scale to a neighbor."""
        scale = max(1.0, float(np.max(np.abs(self.energies))))
        gaps = []
        if n > 0:
            gaps.append(self.energies[n] - self.energies[n - 1])
        if n + 1 < self.count:
            gaps.append(self.energies[n + 1] - self.energies[n])
        return bool(gaps) and min(gaps) < DEGENERACY_RTOL * scale

    def check(self, h, product: np.ndarray | None = None) -> None:
        """Validate residuals and orthonormality against the source matrix; NaN fails.

        ``product`` is h @ states, when the caller has it: a stack's members
        get theirs from one band product per state.
        """
        norm = float(np.linalg.norm(h)) if isinstance(h, np.ndarray) else as_band(h).norm()
        res = (h @ self.states if product is None else product) - self.states * self.energies
        worst = float(np.max(np.linalg.norm(res, axis=0)))
        if not worst <= RESIDUAL_RTOL * max(norm, 1.0):
            raise ConvergenceError(f"eigenpair residual {worst:.2e} exceeds tolerance",
                                   residual=worst)
        overlaps = self.states.conj().T @ self.states
        defect = float(np.max(np.abs(overlaps - np.eye(self.count))))
        if not defect <= ORTHO_TOL:
            raise ConvergenceError(f"orthonormality defect {defect:.2e}", residual=defect)


def dense_eigensystem(op, dense_limit: int = DENSE_EIG_LIMIT) -> Eigensystem:
    """Full spectrum of a Hermitian matrix in any representation, ascending, gauge-fixed."""
    dim = op.shape[0]
    if dim > dense_limit:
        raise TruncationError(
            f"dimension {dim} exceeds the dense limit {dense_limit}; use lowest_k instead")
    mat = as_dense(op)
    energies, states = np.linalg.eigh(mat)
    del mat  # the dense copy is not kept through gauge_fix's temporaries
    return Eigensystem(energies=energies, states=gauge_fix(states))


def _start_vector(dim: int) -> np.ndarray:
    """Deterministic, mildly asymmetric start vector for the iterative solver."""
    pattern = 1.0 + ((np.arange(dim) * 2654435761) % 1009) / 1e4
    return pattern / np.linalg.norm(pattern)


def _lanczos(factor: FactorStack, k: int, live: np.ndarray) -> list:
    """The k largest eigenpairs (nu, x) of (H_b - sigma_b)^-1, ascending in nu,
    for every member b of a stack that is ``live``: one (nu, x) or one
    ``ConvergenceError`` per member, None for the others.

    Lanczos from ``_start_vector`` with full reorthogonalisation: classical
    Gram-Schmidt, twice, so the basis stays orthonormal and the tridiagonal
    T of its recurrence is the projected operator.  Once the Krylov space of
    the start vector is spent (a repeated eigenvalue), what is left of the
    next vector is roundoff orthogonal to the basis, and it serves as a new
    direction, as ARPACK's random restart does.  The members run in step:
    one ``pbtrs`` call per step solves them all in place in the basis, and
    their reorthogonalisation and tridiagonal eigenproblems are batched.
    A member that has converged, or failed, has zero vectors from then on,
    so its numbers reach no other member.

    As ARPACK with ``ncv = max(2k + 1, 20)``, the first convergence test
    comes once the basis holds ncv vectors, and then one at every step.  A
    member stops as ARPACK does at ``tol = 0``: when every wanted Ritz pair
    (theta_i, s_i) of its T_m has the residual estimate
    beta_m |s_mi| <= eps |theta_i|, and its pairs are those of that step.
    A member whose next vector vanishes has broken down (a certified factor
    keeps every vector finite); one still running after LANCZOS_MAXITER
    steps has not converged.  Each gets its ``ConvergenceError``.
    """
    members, dim = factor.members, factor.size
    steps = min(LANCZOS_MAXITER, dim)
    first_test = min(steps, max(2 * k + 1, 20))
    # rows for the 23 steps that LANCZOS_MAXITER's comment expects; doubled when full
    basis = np.empty((min(24, steps + 1), members, dim), dtype=factor.dtype)
    active = np.asarray(live, dtype=bool).copy()
    running = int(np.count_nonzero(active))
    halted = np.where(active, 0.0, 1.0)  # the norm a stopped member's zero vector is given
    basis[0] = np.where(active[:, None], _start_vector(dim), 0.0)
    alpha, beta = np.zeros((steps, members)), np.zeros((steps, members))
    conj = np.conj if basis.dtype.kind == "c" else (lambda a: a)
    found = [None] * members
    eps = np.finfo(float).eps

    def stop(b: int, result) -> None:
        nonlocal running
        found[b], active[b], halted[b] = result, False, 1.0
        basis[m + 1, b] = 0.0
        running -= 1

    for m in range(steps):
        if m + 1 == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis)])
        w = basis[m + 1]
        w[...] = basis[m]
        factor.solve_into(w)
        span = basis[:m + 1].transpose(1, 0, 2)  # (members, m + 1, dim)
        overlaps = np.matvec(span, conj(w))  # the conjugate of <v_i, w> for every v_i
        w -= np.vecmat(overlaps, span)
        again = np.matvec(span, conj(w))
        w -= np.vecmat(again, span)
        alpha[m] = overlaps[:, m].real + again[:, m].real
        beta[m] = np.sqrt(np.vecdot(w, w).real + halted)
        # the certified factors keep every vector finite; a running member
        # whose next vector vanishes has broken down
        if np.count_nonzero(beta[m]) < members:
            for b in np.flatnonzero(beta[m] == 0.0):
                stop(b, ConvergenceError(f"shift-invert Lanczos broke down at step {m + 1}",
                                         residual=None))
                beta[m, b] = 1.0  # so that its zero vector stays zero
        if m + 1 >= first_test and running:
            at = np.flatnonzero(active)
            tri = np.zeros((at.size, m + 1, m + 1))
            diagonal = np.arange(m + 1)
            tri[:, diagonal, diagonal] = alpha[:m + 1, at].T
            tri[:, diagonal[:-1], diagonal[1:]] = tri[:, diagonal[1:], diagonal[:-1]] = (
                beta[:m, at].T)
            theta, s = np.linalg.eigh(tri)
            theta, s = theta[:, -k:], s[:, :, -k:]
            done = (beta[m, at, None] * np.abs(s[:, -1]) <= eps * np.abs(theta)).all(axis=1)
            for i in np.flatnonzero(done):
                stop(at[i], (theta[i], basis[:m + 1, at[i]].T @ s[i]))
        if not running:
            return found
        w /= beta[m][:, None]
    for b in np.flatnonzero(active):
        found[b] = ConvergenceError(
            f"shift-invert Lanczos found no {k} converged pairs in {steps} steps", residual=None)
    return found


def lowest_k(op, k: int, estimate=None):
    """The k lowest eigenpairs of a Hermitian matrix: an ndarray, a
    ``model.HermitianBand``, or each member of a ``model.BandStack``.

    Shift-invert Lanczos (``_lanczos``) about a shift certified below the
    spectrum (see ``shift_invert``), placed by the ground energy and gap of
    ``estimate`` when it is stable; the factor is kept on the result.  An
    eigenvalue nu of (H - sigma)^-1 is the energy sigma + 1/nu.

    One matrix is solved as a stack of one, and its ``Eigensystem`` returned
    or its error raised.  A stack takes one estimate (or None) per member
    and returns one ``Eigensystem`` or one exception per member: each has
    its own factor, made in its block of one ``FactorStack``, its own stop
    test and its own failure, and one Lanczos serves them all.
    """
    if isinstance(op, BandStack):
        return _lowest_of_stack(op, k, estimate)
    dim = op.shape[0]
    if k >= dim - 1:
        # a Krylov space of that size is the whole space: take the dense route
        es = dense_eigensystem(op)
        return Eigensystem(energies=es.energies[:k], states=es.states[:, :k])
    [es] = _lowest_of_stack(BandStack(as_band(op)), k, [estimate])
    if isinstance(es, Exception):
        raise es
    return es


def _lowest_of_stack(stack: BandStack, k: int, estimates) -> list:
    if len(estimates) != stack.members:
        raise ValueError(f"{len(estimates)} estimates for a stack of {stack.members}")
    factor = FactorStack(np.full(stack.members, math.nan),
                         np.empty_like(stack.matrix.band, order="F"))
    results = [None] * stack.members
    floors = np.broadcast_to(gershgorin_floor(stack), (stack.members,))
    for b, estimate in enumerate(estimates):
        block = factor.member(b).factor
        placed = estimate is not None and estimate.stable
        try:
            made = shift_invert(stack.member(b), estimate.ground_energy if placed else math.nan,
                                estimate.gap if placed else math.nan, out=block,
                                floor=float(floors[b]))
            factor.sigmas[b] = made.sigma
        except ConvergenceError as exc:
            results[b] = exc
            block[...] = 0.0
            block[-1] = 1.0
    found = _lanczos(factor, k, [r is None for r in results])
    for b, pairs in enumerate(found):
        if results[b] is not None:
            continue
        if isinstance(pairs, Exception):
            results[b] = pairs
            continue
        nu, states = pairs
        energies = factor.sigmas[b] + 1.0 / nu
        order = np.argsort(energies)
        results[b] = Eigensystem(energies=energies[order], states=gauge_fix(states[:, order]),
                                 factor=factor.member(b))
    return results


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


def single_particle_matrix(form: QuadraticBosonForm) -> np.ndarray:
    """M = [[h, Delta], [Delta^*, h^*]], so that H = alpha^dagger M alpha / 2 + const.

    alpha = (a, b, a', b') for two modes and (a, a') for one; h holds the
    number and hopping coefficients and Delta = [[2 squeeze, pair], [pair, 0]]
    the pair coefficients.  The constant is the form's own minus tr(h) / 2.
    The upper rows [h, Delta] are filled by index and the lower ones are
    their conjugate with the two column blocks swapped.
    """
    n = form.modes
    big = np.empty((2 * n, 2 * n), dtype=complex)
    if n == 2:
        big[:2] = [[form.n_a, form.hop, 2.0 * form.squeeze, form.pair],
                   [np.conj(form.hop), form.n_b, form.pair, 0.0]]
    else:
        big[0] = form.n_a, 2.0 * form.squeeze
    big[n:, :n] = big[:n, n:].conj()
    big[n:, n:] = big[:n, :n].conj()
    return big


def _eta(modes: int) -> np.ndarray:
    """Diagonal of the symplectic metric diag(1, -1) on alpha."""
    return np.repeat([1.0, -1.0], modes)


def bogoliubov_modes(form: QuadraticBosonForm) -> NormalModes:
    """Symplectic normal-mode frequencies of a quadratic form.

    One mode: H = A n + (c a'^2 + h.c.) + C0 has epsilon = sqrt(A^2 - 4|c|^2)
    and vacuum energy C0 + (epsilon - A)/2.  Two modes: the standard
    symplectic eigenproblem of the 4x4 single-particle block.
    """
    if form.modes == 1:
        a_coeff = form.n_a
        b_mag = 2.0 * abs(form.squeeze)
        disc = a_coeff * a_coeff - b_mag * b_mag
        if disc < -MODE_STABILITY_TOL * max(1.0, a_coeff * a_coeff) or a_coeff < 0:
            eps = np.array([np.emath.sqrt(disc)])
            return NormalModes(energies=eps, ground_energy=float("nan"), stable=False)
        eps = float(np.sqrt(max(disc, 0.0)))
        return NormalModes(energies=np.array([eps]),
                           ground_energy=form.const + 0.5 * (eps - a_coeff),
                           stable=True)

    big = single_particle_matrix(form)
    dyn = _eta(form.modes)[:, None] * big
    scale = max(1.0, float(np.max(np.abs(big))))
    eig = np.linalg.eigvals(dyn)
    real_enough = float(np.max(np.abs(eig.imag))) <= MODE_STABILITY_TOL * scale
    positive = float(np.min(np.linalg.eigvalsh(big))) >= -MODE_STABILITY_TOL * scale
    if not (real_enough and positive):
        return NormalModes(energies=np.sort_complex(eig), ground_energy=float("nan"),
                           stable=False)
    eps = np.sort(eig.real)[form.modes:]  # keep the +epsilon partners
    eps = np.clip(eps, 0.0, None)
    ground = form.const + 0.5 * (float(np.sum(eps)) - form.n_a - form.n_b)
    return NormalModes(energies=eps, ground_energy=ground, stable=True)


def symplectic_transform(form: QuadraticBosonForm) -> tuple[np.ndarray, np.ndarray]:
    """Mode energies eps (ascending) and the transform T to the normal modes.

    Colpa's method: factor M = K^dagger K (``single_particle_matrix``) by
    Cholesky and diagonalize K eta K^dagger = U L U^dagger, eta = diag(1, -1);
    its n positive eigenvalues are the mode energies.  The columns
    K^-1 U L^1/2 solve M t = eps eta t, and since K eta K^dagger U = U L they
    equal eta K^dagger U L^-1/2: one product with the factor, no solve.
    Those make the upper half of T; the lower half is their conjugate swap,
    the partner at -eps.  Then alpha = T beta with beta = (c, c') the
    normal-mode ladder operators, T^dagger eta T = eta,
    T^dagger M T = diag(eps, eps), and the Gaussian ground state is the
    vacuum of every c_k.  ``check_symplectic`` certifies the result.

    Raises ``ConvergenceError`` when the Cholesky factorization fails: M is
    not positive definite, so the form has no Gaussian ground state.
    """
    n = form.modes
    eta = _eta(n)[:, None]
    try:
        lower = np.linalg.cholesky(single_particle_matrix(form))  # K^dagger
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("the single-particle matrix is not positive definite: "
                               "the form has no Gaussian ground state") from exc
    lam, u = np.linalg.eigh(lower.conj().T @ (eta * lower))
    eps = lam[n:]
    x = eta * (lower @ u[:, n:]) / np.sqrt(eps)
    t = np.empty((2 * n, 2 * n), dtype=complex)
    t[:, :n] = x
    t[:n, n:] = x[n:].conj()
    t[n:, n:] = x[:n].conj()
    return eps, t


def check_symplectic(form: QuadraticBosonForm, eps: np.ndarray, t: np.ndarray) -> None:
    """Certify a normal-mode transform; the counterpart of ``Eigensystem.check``.

    Every entry of T^dagger eta T - eta, and of T^dagger M T - diag(eps, eps)
    over the scale of M, must stay below SYMPLECTIC_TOL |t_k| |t_l|, the
    error a backward-stable computation leaves.  Each
    mode energy must also be resolved: to first order eps_k moves by
    t_k^dagger dM t_k, so one unit of roundoff in M moves it by up to
    ulp |M| |t_k|^2, and that must stay below MODE_RTOL eps_k.  A gapless
    form, or a point within roundoff of the critical one, fails this.
    Raises ``ConvergenceError`` for a defect, ``DegeneracyError`` for a
    mode that is not resolved.
    """
    m = single_particle_matrix(form)
    eta = _eta(form.modes)
    scale = max(1.0, float(np.max(np.abs(m))))
    norms = np.linalg.norm(t, axis=0)
    weight = np.outer(norms, norms)
    symplectic = np.abs(t.conj().T @ (eta[:, None] * t) - np.diag(eta)) / weight
    diagonal = np.abs(t.conj().T @ m @ t - np.diag(np.concatenate((eps, eps)))) / (scale * weight)
    defect = float(max(np.max(symplectic), np.max(diagonal)))
    if not defect <= SYMPLECTIC_TOL:  # a NaN defect fails too
        raise ConvergenceError(f"symplectic transform defect {defect:.2e}", residual=defect)
    spread = np.finfo(float).eps * scale * norms[:form.modes] ** 2
    if not np.all(spread <= MODE_RTOL * eps):
        raise DegeneracyError(f"softest mode energy {float(np.min(eps)):.2e} is not resolved "
                              "above roundoff: the form is gapless here")
