"""Effective quadratic-boson Hamiltonians of the two classical limits.

Four models are provided, each exact in its limit and phase:

* ``cs_normal`` / ``cs_superradiant`` -- classical-spin limit (j -> inf at
  fixed frequency ratio), obtained by bosonizing the collective spin; two
  coupled modes ``a`` (field) and ``b`` (spin fluctuations).
* ``co_normal`` / ``co_superradiant`` -- classical-oscillator limit
  (Omega/omega -> inf at finite j), obtained by projecting onto the lowest
  spin state; a single quadratic mode.

All four are bilinear in ladder operators, so their ground states are
Gaussian and need no Fock cutoff: the normal modes come from the form's
single-particle matrix (:func:`adicke.spectra.symplectic_transform`), and
the ground-state tensor is a finite sum over mode pairs of the derivative
forms built here (:func:`adicke.geometry.qgt_gaussian`).  That is what
``families.qgt_components`` computes when it is given no cutoff.  The
truncated matrices built here on a ``FockCutoff`` are kept as its oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (DEFAULT_MAX_DIM, PIECE_CACHE_SIZE, ModelParams, PiecePattern,
                    boson_operators, real_if_exact)
from .errors import TruncationError

#: Step of ``form_param_derivative``, relative to the parameter (absolute below 1).
FORM_STEP = 2e-4

#: Largest rebuild defect, relative to the matrix scale, that
#: ``quadratic_form`` accepts.
QUADRATIC_FORM_TOL = 1e-14


@dataclass(frozen=True)
class FockCutoff:
    """Fock-space cutoff(s) for the effective bases: one mode, or modes a and b."""

    n_a: int
    n_b: int | None = None

    def __post_init__(self):
        if self.n_a < 1 or (self.n_b is not None and self.n_b < 1):
            raise ValueError("Fock cutoffs must be at least 1")

    @property
    def modes(self) -> int:
        return 1 if self.n_b is None else 2

    @property
    def dim(self) -> int:
        d = self.n_a + 1
        if self.n_b is not None:
            d *= self.n_b + 1
        return d


@dataclass(frozen=True)
class DisplacementSolution:
    """Field displacement and spin-rotation cosine of the superradiant frame.

    ``alpha`` is the mean-field value of the mode (phase e^{i theta});
    ``valid_region`` is False when g < 1, where only the trivial solution
    alpha = 0 exists.
    """

    alpha: complex
    cos_delta: float
    valid_region: bool


def displacement_solution(p: ModelParams) -> DisplacementSolution:
    """Solve for the displacement/rotation that removes the linear terms.

    For g > 1 the nontrivial branch gives |alpha|^2 = 2j(L^4 - w^2 W^2) /
    (4 L^2 w^2) with L = lambda1 + lambda2, and cos(delta) = w W / L^2.
    At or below g = 1 the displacement vanishes.
    """
    lam = p.lambda1 + p.lambda2
    g = p.g
    if g <= 1.0:
        return DisplacementSolution(alpha=0.0 + 0.0j, cos_delta=1.0, valid_region=g >= 1.0)
    mag = math.sqrt(2 * p.j * (lam**4 - (p.omega * p.Omega) ** 2)) / (2 * lam * p.omega)
    return DisplacementSolution(alpha=cmath.exp(1j * p.theta) * mag,
                                cos_delta=p.omega * p.Omega / lam**2,
                                valid_region=True)


@dataclass(frozen=True)
class RescaledParams:
    """Displaced-frame spin frequency and coupling amplitudes (superradiant side).

    ``Omega_tilde = Omega g^2``; the primed couplings satisfy
    lambda1' + lambda2' = sqrt(omega Omega)/(g sqrt(2j)) and
    lambda1' - lambda2' = (lambda1 - lambda2)/sqrt(2j).
    """

    Omega_tilde: float
    lambda1_prime: float
    lambda2_prime: float


def rescaled_params(p: ModelParams) -> RescaledParams:
    """Rescaled parameters of the displaced frame; defined for g > 1 only."""
    g = p.g
    if g <= 1.0:
        raise ValueError(f"rescaled parameters need g > 1, got g = {g}")
    root = math.sqrt(p.omega * p.Omega)
    diff = p.lambda1 - p.lambda2
    norm = 2 * math.sqrt(2 * p.j)
    return RescaledParams(Omega_tilde=p.Omega * g * g,
                          lambda1_prime=(root / g + diff) / norm,
                          lambda2_prime=(root / g - diff) / norm)


@dataclass(frozen=True)
class QuadraticBosonForm:
    """Coefficient table of a quadratic boson Hamiltonian.

    Monomials carried: a'a, b'b, a'b, a'b' and a'^2 plus the scalar constant;
    each off-diagonal monomial implies its Hermitian conjugate with the
    conjugate coefficient, so Hermiticity is built in.
    """

    modes: int
    n_a: float
    const: float
    n_b: float = 0.0
    hop: complex = 0j      # a'b + h.c.
    pair: complex = 0j     # a'b' + h.c.
    squeeze: complex = 0j  # a'^2 + h.c.

    def __post_init__(self):
        if self.modes not in (1, 2):
            raise ValueError("modes must be 1 or 2")
        if self.modes == 1 and (self.n_b != 0.0 or self.hop != 0j or self.pair != 0j):
            raise ValueError("one-mode form cannot carry b-mode coefficients")


# ---------------------------------------------------------------------------
# the four builders


def cs_normal_form(p: ModelParams) -> QuadraticBosonForm:
    """Classical-spin limit, normal phase: two coupled modes.

    w a'a + W (b'b - j) + lambda1 (e^{it} a'b + h.c.) + lambda2 (e^{it} a'b' + h.c.)
    """
    phase = cmath.exp(1j * p.theta)
    return QuadraticBosonForm(modes=2, n_a=p.omega, n_b=p.Omega,
                              hop=p.lambda1 * phase, pair=p.lambda2 * phase,
                              const=-p.j * p.Omega)


def cs_superradiant_form(p: ModelParams) -> QuadraticBosonForm:
    """Classical-spin limit, superradiant phase (g > 1), displaced/rotated frame."""
    g = p.g
    if g <= 1.0:
        raise ValueError(f"superradiant frame needs g > 1, got g = {g}")
    lam = p.lambda1 + p.lambda2
    c_plus = p.omega * p.Omega / (2 * lam)
    c_minus = (p.lambda1 - p.lambda2) / 2
    phase = cmath.exp(1j * p.theta)
    const = -p.j * (lam**2 / (2 * p.omega) + p.omega * p.Omega**2 / (2 * lam**2))
    return QuadraticBosonForm(modes=2, n_a=p.omega, n_b=lam**2 / p.omega,
                              hop=(c_plus + c_minus) * phase,
                              pair=(c_plus - c_minus) * phase,
                              const=const)


def co_normal_form(p: ModelParams) -> QuadraticBosonForm:
    """Classical-oscillator limit, normal phase: a single quadratic mode.

    Expanding the projected coupling product gives
    [w - (l1^2 + l2^2)/W] a'a - (l1 l2 / W)(e^{2it} a'^2 + h.c.) - l2^2/W - jW.
    """
    phase2 = cmath.exp(2j * p.theta)
    return QuadraticBosonForm(
        modes=1,
        n_a=p.omega - (p.lambda1**2 + p.lambda2**2) / p.Omega,
        squeeze=-(p.lambda1 * p.lambda2 / p.Omega) * phase2,
        const=-p.lambda2**2 / p.Omega - p.j * p.Omega,
    )


def co_superradiant_form(p: ModelParams) -> QuadraticBosonForm:
    """Classical-oscillator limit, superradiant phase (g > 1).

    Same structure as the normal phase with the displaced-frame couplings.
    The primed amplitudes are used at the collective normalization (i.e. the
    1/sqrt(2j) they carry is undone before forming the projected quadratic
    model), which keeps the model j-independent apart from its constant and
    closes the gap at exactly g = 1.
    """
    g = p.g
    rp = rescaled_params(p)  # raises for g <= 1
    scale = math.sqrt(2 * p.j)
    lt1 = rp.lambda1_prime * scale
    lt2 = rp.lambda2_prime * scale
    phase2 = cmath.exp(2j * p.theta)
    return QuadraticBosonForm(
        modes=1,
        n_a=p.omega - (lt1**2 + lt2**2) / rp.Omega_tilde,
        squeeze=-(lt1 * lt2 / rp.Omega_tilde) * phase2,
        const=-lt2**2 / rp.Omega_tilde - 0.5 * p.j * p.Omega * (g**2 + g**-2),
    )


_FORMS = {
    "cs_np": cs_normal_form,
    "cs_sp": cs_superradiant_form,
    "co_np": co_normal_form,
    "co_sp": co_superradiant_form,
}


def effective_form(model: str, p: ModelParams) -> QuadraticBosonForm:
    """Coefficient table of one of the four effective models."""
    try:
        return _FORMS[model](p)
    except KeyError:
        raise ValueError(f"unknown effective model {model!r}; expected one of {sorted(_FORMS)}")


# ---------------------------------------------------------------------------
# matrices


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _form_pieces(cut: FockCutoff) -> tuple[tuple[sp.csr_array, bool], ...]:
    """Parameter-free monomials of every quadratic form on one cutoff.

    One (monomial, carries its adjoint) pair per coefficient, in the order
    of :func:`_coefficients`; built once per cutoff and read-only.  An
    adjoint term uses the transposed view of its piece, so only the pieces
    are held.
    """
    _, adag, n_op = boson_operators(cut.n_a)
    kron = lambda x, y: sp.kron(x, y, format="csr")
    if cut.modes == 1:
        pieces = ((n_op, False), (adag @ adag, True))
    else:
        b, bdag, nb_op = boson_operators(cut.n_b)
        eye_a = sp.identity(cut.n_a + 1, format="csr")
        eye_b = sp.identity(cut.n_b + 1, format="csr")
        pieces = ((kron(n_op, eye_b), False),
                  (kron(eye_a, nb_op), False),
                  (kron(adag, b), True),       # a'b
                  (kron(adag, bdag), True),    # a'b'
                  (kron(adag @ adag, eye_b), True))
    for piece, _ in pieces:
        piece.sum_duplicates()  # canonical, so no later operation sorts in place
        for arr in (piece.data, piece.indices, piece.indptr):
            arr.flags.writeable = False
    return pieces


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _form_pattern(cut: FockCutoff) -> PiecePattern:
    """The cutoff's monomials, each followed by its adjoint when it carries
    one, and the identity, on one pattern."""
    pieces = []
    for piece, with_adjoint in _form_pieces(cut):
        pieces += [piece, piece.T] if with_adjoint else [piece]
    return PiecePattern.of(pieces + [sp.identity(cut.dim, format="csr")])


def _coefficients(form: QuadraticBosonForm) -> tuple:
    if form.modes == 1:
        return form.n_a, form.squeeze
    return form.n_a, form.n_b, form.hop, form.pair, form.squeeze


def _assemble(form: QuadraticBosonForm, cut: FockCutoff,
              max_dim: int = DEFAULT_MAX_DIM) -> sp.csr_array:
    """The form's coefficients times the cached pieces of the cutoff."""
    if cut.modes != form.modes:
        raise ValueError(f"cutoff has {cut.modes} mode(s) but the form has {form.modes}")
    if cut.dim > max_dim:
        raise TruncationError(f"basis dimension {cut.dim} exceeds the guard {max_dim}")
    pattern = _form_pattern(cut)
    vectors = iter(pattern.vectors)
    terms = []
    for coeff, (_, with_adjoint) in zip(_coefficients(form), _form_pieces(cut)):
        coeff = real_if_exact(coeff)
        terms.append((coeff, next(vectors)))
        if with_adjoint:
            terms.append((np.conj(coeff), next(vectors)))
    terms.append((form.const, next(vectors)))
    return pattern.combine(terms)


def form_matrix(form: QuadraticBosonForm, cut: FockCutoff,
                max_dim: int = DEFAULT_MAX_DIM) -> sp.csr_array:
    """Matrix of a quadratic form on the truncated Fock basis.

    Two-mode basis ordering is |n_a> x |n_b> with n_a outer.  The matrix is
    float64 when every coefficient is real and complex otherwise.
    """
    return _assemble(form, cut, max_dim)


def boson_parity_labels(cut: FockCutoff) -> np.ndarray:
    """Diagonal of exp{i pi sum_k n_k} on the effective basis."""
    na = np.arange(cut.n_a + 1)
    if cut.modes == 1:
        total = na
    else:
        total = np.add.outer(na, np.arange(cut.n_b + 1)).ravel()
    return np.where(total % 2 == 0, 1.0, -1.0)


def mode_a_number_diagonal(cut: FockCutoff) -> np.ndarray:
    """Occupation of mode a per basis state."""
    na = np.arange(cut.n_a + 1, dtype=float)
    if cut.modes == 1:
        return na
    return np.repeat(na, cut.n_b + 1)


# ---------------------------------------------------------------------------
# coefficient extraction (feeds the symplectic oracle)


def quadratic_form(m, cut: FockCutoff) -> QuadraticBosonForm:
    """Read the coefficient table back off a matrix, sparse or dense.

    The extracted coefficients must rebuild the matrix entrywise, within
    QUADRATIC_FORM_TOL of its scale; anything else -- linear terms, cubic
    terms, a foreign basis -- is rejected.
    """
    mat = m.toarray() if sp.issparse(m) else np.asarray(m)
    if mat.shape[0] != cut.dim:
        raise ValueError(f"matrix dimension {mat.shape[0]} does not match cutoff dim {cut.dim}")
    if cut.modes == 1:
        const = mat[0, 0].real
        form = QuadraticBosonForm(
            modes=1,
            n_a=(mat[1, 1] - mat[0, 0]).real,
            squeeze=complex(mat[2, 0]) / math.sqrt(2),
            const=const,
        )
    else:
        nb1 = cut.n_b + 1
        idx = lambda na, nb: na * nb1 + nb
        const = mat[0, 0].real
        form = QuadraticBosonForm(
            modes=2,
            n_a=(mat[idx(1, 0), idx(1, 0)] - const).real,
            n_b=(mat[idx(0, 1), idx(0, 1)] - const).real,
            hop=complex(mat[idx(1, 0), idx(0, 1)]),
            pair=complex(mat[idx(1, 1), idx(0, 0)]),
            squeeze=complex(mat[idx(2, 0), idx(0, 0)]) / math.sqrt(2),
            const=const,
        )
    rebuilt = form_matrix(form, cut).toarray()
    scale = max(1.0, float(np.max(np.abs(mat))))
    defect = float(np.max(np.abs(rebuilt - mat)))
    if defect > QUADRATIC_FORM_TOL * scale:
        raise ValueError(f"matrix is not quadratic in the expected monomials "
                         f"(rebuild defect {defect:.2e})")
    return form


# ---------------------------------------------------------------------------
# parameter derivatives of the effective models


def theta_derivative_matrix(ham: sp.csr_array, cut: FockCutoff) -> sp.csr_array:
    """d H / d theta = i [n_a, H], exact for every effective model.

    All theta dependence enters through phases of mode-a raising operators,
    so the commutator with the mode-a number operator generates it.
    """
    n_op = sp.diags_array(mode_a_number_diagonal(cut), format="csr")
    mat = sp.csr_array(ham)
    return (1j * (n_op @ mat - mat @ n_op)).tocsr()


def _form_vector(form: QuadraticBosonForm) -> np.ndarray:
    return np.array([form.n_a, form.n_b, form.hop, form.pair, form.squeeze, form.const],
                    dtype=complex)


def _vector_form(vec: np.ndarray, modes: int) -> QuadraticBosonForm:
    return QuadraticBosonForm(modes=modes, n_a=vec[0].real, n_b=vec[1].real if modes == 2 else 0.0,
                              hop=vec[2] if modes == 2 else 0j,
                              pair=vec[3] if modes == 2 else 0j,
                              squeeze=vec[4], const=vec[5].real)


def form_param_derivative(model: str, p: ModelParams, which: str) -> QuadraticBosonForm:
    """Coefficient-wise derivative of an effective model's form.

    The theta derivative is exact: theta enters every form only as the phase
    e^{i theta} of each a' (``theta_derivative_matrix``), so it multiplies
    hop and pair by i and squeeze by 2i and removes the rest.  Any other
    label uses a five-point fourth-order stencil on the (analytic)
    coefficient functions, of step FORM_STEP relative to the parameter:
    central, or one-sided forward where the backward points would leave the
    parameter domain (a coupling within two steps of zero).  For the
    superradiant forms the step is shrunk so the stencil never leaves the
    g > 1 domain.
    """
    build = _FORMS[model]
    if which == "theta":
        form = build(p)
        return QuadraticBosonForm(modes=form.modes, n_a=0.0, const=0.0, hop=1j * form.hop,
                                  pair=1j * form.pair, squeeze=2j * form.squeeze)
    h = FORM_STEP * max(1.0, abs(getattr(p, which)))
    try:
        p.shifted(which, -2 * h)
        central = True
    except ValueError:
        central = False
    if model.endswith("_sp"):
        for _ in range(60):
            try:
                if all(p.shifted(which, k * h).g > 1.0 for k in ((-2, 2) if central else (0, 4))):
                    break
            except ValueError:
                pass
            h /= 2
        else:
            raise ValueError("cannot differentiate this close to the critical point")
    if central:
        f = [_form_vector(build(p.shifted(which, k * h))) for k in (-2, -1, 1, 2)]
        vec = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
    else:
        f = [_form_vector(build(p.shifted(which, k * h))) for k in range(5)]
        vec = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    return _vector_form(vec, build(p).modes)


def effective_param_derivative(model: str, p: ModelParams, cut: FockCutoff,
                               which: str) -> sp.csr_array:
    """Matrix of d H_eff / d(which) on the truncated basis.

    Assembled from the cutoff's cached pieces like the Hamiltonian, but not
    through :func:`form_matrix`, which counts Hamiltonian builds.
    """
    if which == "theta":
        return theta_derivative_matrix(_assemble(effective_form(model, p), cut), cut)
    return _assemble(form_param_derivative(model, p, which), cut)
