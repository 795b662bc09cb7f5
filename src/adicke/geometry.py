"""Quantum geometric tensor of a nondegenerate eigenstate, three ways, and exactly
for a Gaussian ground state.

* sum over states   -- perturbative sum over the full spectrum,
* linear solve      -- resolvent tangents |x_mu> = (H - E0)^+ P dH_mu |psi0>,
  so no excited states are needed: conjugate gradients in numpy on the
  complement of the state, preconditioned with the certified shift-invert
  factor that the ground-pair solve already made (``spectra.shift_invert``),
  so a point is factored once and no part of scipy is loaded,
* finite difference -- central differences of gauge-fixed ground states.

Each method produces a matrix T of projected tangents, one column per label,
and the tensor is Q = T^dagger T (``qgt_from_tangents``).  The functions take
real or complex inputs and keep their dtype.  A derivative given as a
``GaugeGenerator`` (dH = i[G, H], G diagonal) gets its tangent in closed
form; ``families.qgt_components`` feeds the sum and the solve the real
theta = 0 problem with the theta derivative in that form.

The linear solve also takes a stack of points on one truncation
(``model.BandStack``, one block-diagonal band): one conjugate-gradient
iteration serves every member, each step one band solve with the members'
factors laid end to end (``spectra.FactorStack``) and one band product per
derivative.  What stays per member is its factor, its tolerance and stop,
its final residual check and its error, which is returned for it alone.
One point is a stack of one and runs the same code.

The ground state of a quadratic boson form is Gaussian, and its tensor is a
finite sum over normal-mode pairs (``qgt_gaussian``), with no Fock cutoff;
the three methods above are its oracle on the truncated matrices.

All three agree on tractable problems; they validate each other in the test
suite.  The real part of the tensor is the metric, the imaginary part gives
the curvature F_{mu nu} = 2 Im Q_{mu nu}, and the Fisher information of a
diagonal entry is 4 G_{mu mu}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeAlias

import numpy as np

from .errors import ConvergenceError, DegeneracyError, StencilError
from .model import BandStack, HermitianBand, Matrix, ModelParams
from .spectra import Eigensystem, FactorStack, ShiftInvert, gauge_fix, shift_invert

#: Relative finite-difference step.
FD_STEP = 1e-5

#: Stencil neighbors overlapping less than this indicate a crossing.
MIN_STENCIL_OVERLAP = 0.5

#: Relative residual bound of each resolvent tangent.
SOLVE_TOL = 1e-10

#: Largest |Q - Q^dagger| entry that ``metric`` and ``berry`` accept.
HERMITICITY_TOL = 1e-8

#: Iteration cap of each preconditioned resolvent solve; a factor within one
#: gap of E0 converges in a few, and the residual check catches the rest.
CG_MAXITER = 100


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


def _hermitian_q(components: QGTComponents) -> np.ndarray:
    """The tensor, refused when |Q - Q^dagger| exceeds HERMITICITY_TOL."""
    qm = components.q
    defect = float(np.max(np.abs(qm - qm.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"tensor Hermiticity defect {defect:.2e} exceeds {HERMITICITY_TOL}")
    return qm


def metric(components: QGTComponents) -> np.ndarray:
    """Real part of the tensor, symmetrized exactly."""
    real = _hermitian_q(components).real
    return 0.5 * (real + real.T)


def berry(components: QGTComponents) -> np.ndarray:
    """Curvature 2 Im Q, antisymmetrized exactly."""
    imag = _hermitian_q(components).imag
    return imag - imag.T


def qfi(components: QGTComponents, label: str) -> QFIValue:
    """Fisher information 4 G_{mu mu} for one parameter label."""
    g = metric(components)
    k = components.index(label)
    return QFIValue(label=label, value=4.0 * float(g[k, k]))


# ---------------------------------------------------------------------------
# one assembly for every method


@dataclass(frozen=True)
class GaugeGenerator:
    """A derivative of the form dH = i [G, H] with G diagonal on the basis.

    Its tangent (H - E0)^+ P dH |psi> is -i (G - <G>) |psi>, exactly on a
    truncated basis and for any H, so it needs neither a derivative matrix
    nor a solve.  The theta derivative of every model variant is of this form
    with G = n_a.
    """

    diag: np.ndarray

    def tangent(self, psi: np.ndarray) -> np.ndarray:
        return -1j * (self.diag - np.vdot(psi, self.diag * psi).real) * psi


Derivative: TypeAlias = "Matrix | GaugeGenerator"


def qgt_from_tangents(tangents: np.ndarray, labels: Sequence[str],
                      method: str) -> QGTComponents:
    """Q = T^dagger T for a matrix T holding one projected tangent per column.

    Every method reduces to this: the columns are orthogonal to the state, so
    the Gram matrix is the tensor.  It is Hermitized exactly.
    """
    q = tangents.conj().T @ tangents
    q = 0.5 * (q + q.conj().T)
    return QGTComponents(labels=tuple(labels), q=q.astype(complex), method=method)


def _tangents(derivs: Sequence[Derivative], psi: np.ndarray,
              solve: Callable[[list[Matrix]], np.ndarray]) -> np.ndarray:
    """One tangent column per derivative, in order.

    Generators give theirs directly; every derivative matrix goes through one
    call of ``solve``, which returns their tangents as columns.
    """
    matrices = [d for d in derivs if not isinstance(d, GaugeGenerator)]
    solved = iter(solve(matrices).T if matrices else ())
    return np.stack([d.tangent(psi) if isinstance(d, GaugeGenerator) else next(solved)
                     for d in derivs], axis=1)


def _derivative_columns(derivs: Sequence[Matrix], psi: np.ndarray) -> np.ndarray:
    """dH_mu |psi>, one column per derivative."""
    return np.stack([d @ psi for d in derivs], axis=1)


# ---------------------------------------------------------------------------
# method 1: sum over states


def qgt_matrix_sum(es: Eigensystem, derivs: Sequence[Derivative],
                   labels: Sequence[str]) -> QGTComponents:
    """Assemble the ground-state tensor over a label subset from one spectrum.

    A derivative matrix has the tangent sum_k |k><k|dH_mu|0>/(E_k - E_0)
    over k != 0.
    """
    if es.degenerate(0):
        raise DegeneracyError("the ground state is (near-)degenerate; the sum is ill-defined")
    psi = es.states[:, 0]
    denom = es.energies - es.energies[0]
    keep = np.arange(es.count) != 0
    weights = np.zeros_like(denom)
    weights[keep] = 1.0 / denom[keep]

    def over_states(matrices):
        coeffs = es.states.conj().T @ _derivative_columns(matrices, psi)
        return es.states @ (weights[:, None] * coeffs)

    return qgt_from_tangents(_tangents(derivs, psi, over_states), labels, "sum_over_states")


# ---------------------------------------------------------------------------
# method 2: resolvent linear solve


def _pcg(apply: Callable, precondition: Callable, rhs: np.ndarray,
         atol: np.ndarray) -> np.ndarray:
    """Preconditioned conjugate gradients for independent systems, from x = 0.

    ``rhs`` holds one right-hand side along its last axis per leading
    index, ``atol`` one bound per system, and ``apply`` and
    ``precondition`` act on arrays of that shape.  A system stops once its
    residual norm falls below its bound (or is NaN), and its vectors are
    zero from then on; every system stops after CG_MAXITER steps.  The
    caller checks the result.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    direction = np.zeros_like(rhs)
    bound = atol * atol
    rho_prev = np.ones(rhs.shape[:-1], dtype=rhs.dtype)
    halted = np.zeros(rhs.shape[:-1])  # 1 for a stopped system: its 0 / 0 becomes 0 / 1
    for _ in range(CG_MAXITER):
        running = np.vecdot(r, r).real >= bound
        if not running.all():
            if not running.any():
                break
            r[~running] = 0.0
            halted[~running] = 1.0
        z = precondition(r)
        rho = np.vecdot(r, z)
        direction *= (rho / (rho_prev + halted))[..., None]
        direction += z
        q = apply(direction)
        step = (rho / (np.vecdot(direction, q) + halted))[..., None]
        x += step * direction
        r -= step * q
        rho_prev = rho
    return x


def _apply(op, v: np.ndarray) -> np.ndarray:
    """H v for vectors along the last axis of v (the last two for a stack)."""
    if isinstance(op, BandStack):
        return op.product(v)
    if isinstance(op, HermitianBand):
        return BandStack(op).product(v)
    flat = v.reshape(-1, v.shape[-1])
    return (op @ flat.T).T.reshape(v.shape)


def _shifted(ham, energy: np.ndarray):
    """H - E0 of every member, as one matrix: a stack with each member's
    diagonal moved by its own E0, or one ndarray."""
    if isinstance(ham, BandStack):
        return ham.shifted(energy)
    return ham - energy[0] * np.eye(ham.shape[0])


def resolvent_tangent(ham, energy, psi: np.ndarray, derivs: Sequence,
                      factor=None, gap=math.nan):
    """Solve P (H - E0) P |x_mu> = P dH_mu |psi0>, P = 1 - |psi0><psi0|.

    Conjugate gradients (``_pcg``) on the orthogonal complement of the
    state, where H - E0 is positive definite, preconditioned with
    P (H - sigma)^-1 P from a shift-invert factor: the ground-pair solve's,
    when it lies within one ``gap`` of E0, or else one factored here at
    E0 - gap/10 (see ``spectra.shift_invert``).  The preconditioned spectrum
    lies in [gap / (gap + E0 - sigma), 1), so a few iterations suffice.
    ``ham`` and the derivatives are Hermitian: ndarrays or
    ``model.HermitianBand``.  The result holds one tangent per column, in the
    dtype the inputs need, and every column's residual is checked against
    H - E0.

    A ``model.BandStack`` solves the members of a stack at once: ``energy``
    and ``gap`` hold one value per member, ``psi`` one state per row, each
    derivative is a stack of the same members and ``factor`` holds one
    ``ShiftInvert`` (or None) per member.  The members' factors act as one
    ``spectra.FactorStack``, so each step of the iteration makes one band
    solve and one band product per derivative for all of them, while each
    member keeps its own tolerance, stop and residual check.  The result is
    one tangent matrix, or one ``ConvergenceError``, per member.  One matrix
    is solved as a stack of one, and its error raised.
    """
    if isinstance(ham, BandStack):
        factors = [None] * ham.members if factor is None else list(factor)
        return _resolvent(ham, np.asarray(energy, dtype=float), np.asarray(psi), derivs,
                          factors, np.broadcast_to(np.asarray(gap, dtype=float), (ham.members,)))
    if isinstance(ham, HermitianBand):
        ham = BandStack(ham)  # its band product is bound once for the whole iteration
    [x] = _resolvent(ham, np.array([energy], dtype=float), np.asarray(psi)[None], derivs,
                     [factor], np.array([gap], dtype=float))
    if isinstance(x, Exception):
        raise x
    return x


def _resolvent(ham, energy: np.ndarray, psi: np.ndarray, derivs, factors: list,
               gap: np.ndarray) -> list:
    """``resolvent_tangent`` on a stack: psi is (members, size)."""
    members, size = psi.shape
    member = ham.member if isinstance(ham, BandStack) else (lambda b: ham)
    errors = [None] * members
    for b, factor in enumerate(factors):
        if factor is None or energy[b] - factor.sigma > gap[b]:
            try:
                factors[b] = shift_invert(member(b), energy[b], gap[b])
            except ConvergenceError as exc:
                errors[b] = exc
                factors[b] = ShiftInvert(sigma=math.nan, factor=np.ones((1, size)))
    stack = FactorStack.join(factors)
    shifted = _shifted(ham, energy)
    project = lambda v: v - psi * np.vecdot(psi, v)[..., None]
    # twice, so that what is left along the state lies below the stop test's
    # bound, which the iteration cannot reduce
    rhs = project(project(np.stack([_apply(d, psi) for d in derivs])))
    rhs = rhs.astype(np.result_type(ham.dtype, rhs.dtype), copy=False)
    if any(error is not None for error in errors):
        rhs[:, [error is not None for error in errors]] = 0.0  # a member with no factor
    bounds = SOLVE_TOL * np.maximum(1.0, np.linalg.norm(rhs, axis=-1))
    x = project(_pcg(lambda v: project(_apply(shifted, v)), lambda v: project(stack.solve(v)),
                     rhs, atol=1e-3 * bounds))
    broken = ~np.isfinite(np.vecdot(x, x))
    if broken.any():
        x[broken] = 0.0  # a breakdown's NaN must not reach the other members' product
    residuals = np.linalg.norm(_apply(shifted, x) - rhs, axis=-1)
    residuals[broken] = math.nan
    results = []
    for b in range(members):
        if errors[b] is not None:
            results.append(errors[b])
            continue
        results.append(x[:, b].T)
        for residual, bound in zip(residuals[:, b], bounds[:, b]):
            # written so that a NaN residual (a breakdown of the iteration) fails too
            if not residual <= bound:
                results[-1] = ConvergenceError(
                    f"projected linear solve residual {residual:.2e}", residual=float(residual))
                break
    return results


def qgt_matrix_solve(ham, energy, psi: np.ndarray, derivs: Sequence[Derivative],
                     labels: Sequence[str], factor=None, gap=math.nan):
    """The tensor from resolvent tangents, one factorization for all of them.

    ``factor`` and ``gap`` come from the ground-pair solve when it has them
    (``Eigensystem.factor``, ``Eigensystem.gap``); see ``resolvent_tangent``.
    For a ``model.BandStack`` every argument but ``labels`` holds one entry
    per member (generators are shared), and the result is one
    ``QGTComponents`` or one exception per member.
    """
    if not isinstance(ham, BandStack):
        tangents = _tangents(derivs, psi, lambda matrices: resolvent_tangent(
            ham, energy, psi, matrices, factor=factor, gap=gap))
        return qgt_from_tangents(tangents, labels, "linear_solve")
    matrices = [d for d in derivs if not isinstance(d, GaugeGenerator)]
    solved = (resolvent_tangent(ham, energy, psi, matrices, factor=factor, gap=gap)
              if matrices else [None] * ham.members)
    return [x if isinstance(x, Exception) else
            qgt_from_tangents(_tangents(derivs, state, lambda _, x=x: x), labels, "linear_solve")
            for state, x in zip(psi, solved)]


# ---------------------------------------------------------------------------
# method 3: finite differences of gauge-fixed ground states


GroundStateBuilder = Callable[[ModelParams], np.ndarray]


def _fd_tangents(builder: GroundStateBuilder, p: ModelParams,
                 labels: Sequence[str], steps: dict[str, float]) -> np.ndarray:
    """Central-difference tangents, projected off the centre state, one per column."""
    center = gauge_fix(builder(p))
    tangents = []
    for label in labels:
        h = steps[label]
        plus = gauge_fix(builder(p.shifted(label, h)))
        minus = gauge_fix(builder(p.shifted(label, -h)))
        closeness = abs(np.vdot(plus, minus))
        if closeness < MIN_STENCIL_OVERLAP:
            raise StencilError(
                f"stencil neighbors overlap only {closeness:.3f} along {label}; "
                "the step is too large or a level crossing sits inside the stencil")
        tangents.append((plus - minus) / (2.0 * h))
    tangents = np.stack(tangents, axis=1)
    return tangents - np.outer(center, center.conj() @ tangents)


def qgt_finite_difference(builder: GroundStateBuilder, p: ModelParams,
                          labels: Sequence[str], richardson: bool | None = None) -> QGTComponents:
    """Tensor from central differences of the ground-state family.

    ``builder`` maps a parameter point to a normalized ground state; it is
    re-gauge-fixed here, so any phase convention is accepted.  Each label's
    step is FD_STEP relative to the parameter (absolute below 1).  With
    ``richardson`` the step is halved once and the two estimates extrapolated;
    it defaults to on near the critical coupling where the state manifold
    curves strongly.
    """
    if richardson is None:
        richardson = abs(p.g - 1.0) <= 0.03
    steps = {label: FD_STEP * max(1.0, abs(getattr(p, label))) for label in labels}
    q = qgt_from_tangents(_fd_tangents(builder, p, labels, steps),
                          labels, "finite_difference").q
    if richardson:
        halved = {k: v / 2.0 for k, v in steps.items()}
        q_h = qgt_from_tangents(_fd_tangents(builder, p, labels, halved),
                                labels, "finite_difference").q
        q = (4.0 * q_h - q) / 3.0
    return QGTComponents(labels=tuple(labels), q=q, method="finite_difference")


# ---------------------------------------------------------------------------
# exact: the pair sum of a Gaussian ground state


def qgt_gaussian(eps: np.ndarray, t: np.ndarray, derivs: Sequence[np.ndarray],
                 labels: Sequence[str]) -> QGTComponents:
    """The tensor of the vacuum of the normal modes, summed over mode pairs.

    ``eps`` and ``t`` come from ``spectra.symplectic_transform``, so that
    alpha = T beta with beta = (c, c'); each derivative is the
    single-particle matrix D_mu of dH_mu = alpha^dagger D_mu alpha / 2 + const
    (``spectra.single_particle_matrix`` of a derivative form).  dH_mu reaches
    the vacuum only through the pair block B^mu = (T^dagger D_mu T)[:n, n:],
    which creates c_k' c_l' at energy eps_k + eps_l, so
    Q_mu_nu = 1/2 sum_kl conj(B^mu_kl) B^nu_kl / (eps_k + eps_l)^2, exactly
    (Colpa, Physica A 93, 327 (1978); Safranek, arXiv:1801.00299).  The
    tangent of dH_mu in the pair basis is B^mu / (eps_k + eps_l) / sqrt(2).
    """
    n = eps.size
    pairs = np.stack([(t.conj().T @ d @ t)[:n, n:] for d in derivs])
    pairs = pairs / (eps[:, None] + eps[None, :])
    tangents = pairs.reshape(len(derivs), n * n).T / math.sqrt(2.0)
    return qgt_from_tangents(tangents, labels, "gaussian")
