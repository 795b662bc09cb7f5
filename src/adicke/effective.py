"""Effective quadratic-boson Hamiltonians of the two classical limits.

Four models are provided, each exact in its limit and phase:

* ``cs_normal`` / ``cs_superradiant`` -- classical-spin limit (j -> inf at
  fixed frequency ratio), obtained by bosonizing the collective spin; two
  coupled modes ``a`` (field) and ``b`` (spin fluctuations).
* ``co_normal`` / ``co_superradiant`` -- classical-oscillator limit
  (Omega/omega -> inf at finite j): the classical-spin form of the same
  phase with its spin mode ``b`` eliminated (``_eliminate_b``); a single
  quadratic mode.

Every coefficient is a closed-form function of the parameters, and so is
every derivative form (``form_param_derivative``): term by term for the
classical-spin forms, by the chain rule through the elimination of ``b``
for the classical-oscillator ones.

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

from .model import (DEFAULT_MAX_DIM, PIECE_CACHE_SIZE, Matrix, ModelParams, Piece,
                    PiecePattern, as_dense, ladder_pieces, real_if_exact)
from .errors import TruncationError

#: Parameters other than theta along which ``form_param_derivative`` differentiates.
_SCALAR_LABELS = ("omega", "Omega", "lambda1", "lambda2")

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


def _eliminate_b(form: QuadraticBosonForm) -> QuadraticBosonForm:
    """One-mode form left by eliminating the stiff mode b of a two-mode form.

    The form couples b to a through b'X + X'b, X = hop* a + pair a'.  Removing
    b at second order in the coupling over its frequency n_b leaves -X'X/n_b:
    n_a - (|hop|^2 + |pair|^2)/n_b, a squeeze -hop pair/n_b and a constant
    -|pair|^2/n_b.
    """
    hop2, pair2 = abs(form.hop) ** 2, abs(form.pair) ** 2
    return QuadraticBosonForm(modes=1, n_a=form.n_a - (hop2 + pair2) / form.n_b,
                              squeeze=-form.hop * form.pair / form.n_b,
                              const=form.const - pair2 / form.n_b)


def co_normal_form(p: ModelParams) -> QuadraticBosonForm:
    """Classical-oscillator limit, normal phase: a single quadratic mode.

    The classical-spin form with its spin mode eliminated:
    [w - (l1^2 + l2^2)/W] a'a - (l1 l2 / W)(e^{2it} a'^2 + h.c.) - l2^2/W - jW.
    """
    return _eliminate_b(cs_normal_form(p))


def co_superradiant_form(p: ModelParams) -> QuadraticBosonForm:
    """Classical-oscillator limit, superradiant phase (g > 1).

    The displaced-frame classical-spin form with its spin mode eliminated;
    it stays j-independent apart from its constant, and its gap closes at
    exactly g = 1.
    """
    return _eliminate_b(cs_superradiant_form(p))


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
def _form_pieces(cut: FockCutoff) -> tuple[tuple[Piece, bool], ...]:
    """Parameter-free monomials of every quadratic form on one cutoff.

    One (monomial, carries its adjoint) pair per coefficient, in the order
    of :func:`_coefficients`, as numpy triplets; built once per cutoff and
    read-only.  An adjoint term uses the transposed piece, so only the
    pieces are held.
    """
    adag, n_op = ladder_pieces(cut.n_a)
    # a'^2 |k> = sqrt(k+1) sqrt(k+2) |k+2>, the product a' a' forms
    squared = Piece(adag.shape, adag.rows[1:], adag.cols[:-1], adag.vals[1:] * adag.vals[:-1])
    if cut.modes == 1:
        pieces = ((n_op, False), (squared, True))
    else:
        bdag, nb_op = ladder_pieces(cut.n_b)
        eye_a = Piece.diagonal(np.ones(cut.n_a + 1))
        eye_b = Piece.diagonal(np.ones(cut.n_b + 1))
        pieces = ((n_op.kron(eye_b), False),
                  (eye_a.kron(nb_op), False),
                  (adag.kron(bdag.T), True),  # a'b
                  (adag.kron(bdag), True),    # a'b'
                  (squared.kron(eye_b), True))
    return tuple((piece.frozen(), with_adjoint) for piece, with_adjoint in pieces)


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _form_pattern(cut: FockCutoff) -> PiecePattern:
    """The cutoff's monomials, each followed by its adjoint when it carries
    one, and the identity, on one pattern."""
    pieces = []
    for piece, with_adjoint in _form_pieces(cut):
        pieces += [piece, piece.T] if with_adjoint else [piece]
    return PiecePattern.of(pieces + [Piece.diagonal(np.ones(cut.dim))])


def _coefficients(form: QuadraticBosonForm) -> tuple:
    if form.modes == 1:
        return form.n_a, form.squeeze
    return form.n_a, form.n_b, form.hop, form.pair, form.squeeze


def _assemble(form: QuadraticBosonForm, cut: FockCutoff,
              max_dim: int = DEFAULT_MAX_DIM) -> tuple[PiecePattern, np.ndarray]:
    """The form's coefficients times the cached pieces of the cutoff: the
    cutoff's pattern and the form's data on it."""
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
    return pattern, pattern.combine(terms)


def form_matrix(form: QuadraticBosonForm, cut: FockCutoff,
                max_dim: int = DEFAULT_MAX_DIM) -> Matrix:
    """Matrix of a quadratic form on the truncated Fock basis.

    Two-mode basis ordering is |n_a> x |n_b> with n_a outer.  The matrix is
    float64 when every coefficient is real and complex otherwise; it is
    an ndarray or its upper band by its size, as every builder's
    (``model.PiecePattern.matrix``).
    """
    pattern, data = _assemble(form, cut, max_dim)
    return pattern.matrix(data)


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
    """Read the coefficient table back off a matrix in any representation.

    The extracted coefficients must rebuild the matrix entrywise, within
    QUADRATIC_FORM_TOL of its scale; anything else -- linear terms, cubic
    terms, a foreign basis -- is rejected.
    """
    mat = as_dense(m)
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
    rebuilt = as_dense(form_matrix(form, cut))
    scale = max(1.0, float(np.max(np.abs(mat))))
    defect = float(np.max(np.abs(rebuilt - mat)))
    if defect > QUADRATIC_FORM_TOL * scale:
        raise ValueError(f"matrix is not quadratic in the expected monomials "
                         f"(rebuild defect {defect:.2e})")
    return form


# ---------------------------------------------------------------------------
# parameter derivatives of the effective models


def theta_derivative_matrix(form: QuadraticBosonForm, cut: FockCutoff) -> Matrix:
    """d H / d theta = i [n_a, H] of the form's matrix H, exact for every effective model.

    All theta dependence enters through phases of mode-a raising operators,
    so the commutator with the mode-a number operator generates it: entry
    (r, c) is i (n_a(r) - n_a(c)) H_rc on the cutoff's pattern.
    """
    pattern, data = _assemble(form, cut)
    return pattern.matrix(pattern.commutator(mode_a_number_diagonal(cut), data))


def _cs_derivative(model: str, p: ModelParams, which: str) -> QuadraticBosonForm:
    """Derivative of a classical-spin form along one of omega, Omega, lambda1, lambda2.

    ``cs_np`` is linear in the parameters.  ``cs_sp`` is rational in omega,
    Omega, L = lambda1 + lambda2 and lambda1 - lambda2, through
    n_b = L^2/w, hop/pair = (w W/(2L) +- (lambda1 - lambda2)/2) e^{it} and
    const = -j (L^2/(2w) + w W^2/(2L^2)).
    """
    if which not in _SCALAR_LABELS:
        raise ValueError(f"unknown parameter {which!r}; expected theta or one of {_SCALAR_LABELS}")
    dw, dW, dl1, dl2 = (float(which == label) for label in _SCALAR_LABELS)
    phase = cmath.exp(1j * p.theta)
    if model == "cs_np":
        return QuadraticBosonForm(modes=2, n_a=dw, n_b=dW, hop=dl1 * phase, pair=dl2 * phase,
                                  const=-p.j * dW)
    w, W, L = p.omega, p.Omega, p.lambda1 + p.lambda2
    dL, d_minus = dl1 + dl2, (dl1 - dl2) / 2
    d_plus = (dw * W + w * dW - w * W * dL / L) / (2 * L)
    return QuadraticBosonForm(
        modes=2, n_a=dw, n_b=(2 * L * dL - L**2 * dw / w) / w,
        hop=(d_plus + d_minus) * phase, pair=(d_plus - d_minus) * phase,
        const=-p.j * (L * dL / w - L**2 * dw / (2 * w**2)
                      + W * (dw * W + 2 * w * dW) / (2 * L**2) - w * W**2 * dL / L**3))


def _eliminate_b_derivative(form: QuadraticBosonForm,
                            dform: QuadraticBosonForm) -> QuadraticBosonForm:
    """Derivative of ``_eliminate_b(form)`` given the derivative ``dform`` of form."""
    hop, pair, n_b = form.hop, form.pair, form.n_b
    hop2, pair2 = abs(hop) ** 2, abs(pair) ** 2
    d_hop2 = 2 * (hop.conjugate() * dform.hop).real
    d_pair2 = 2 * (pair.conjugate() * dform.pair).real
    return QuadraticBosonForm(
        modes=1,
        n_a=dform.n_a - (d_hop2 + d_pair2) / n_b + (hop2 + pair2) * dform.n_b / n_b**2,
        squeeze=-(dform.hop * pair + hop * dform.pair) / n_b + hop * pair * dform.n_b / n_b**2,
        const=dform.const - d_pair2 / n_b + pair2 * dform.n_b / n_b**2)


def form_param_derivative(model: str, p: ModelParams, which: str) -> QuadraticBosonForm:
    """Coefficient-wise derivative of an effective model's form, in closed form.

    theta enters every form only as the phase e^{i theta} of each a'
    (``theta_derivative_matrix``), so its derivative multiplies hop and pair
    by i and squeeze by 2i and removes the rest.  Along omega, Omega,
    lambda1 or lambda2 the classical-spin forms are differentiated term by
    term (``_cs_derivative``) and the classical-oscillator forms by the
    chain rule through the elimination of b.  A superradiant form raises
    ValueError at g <= 1, as its builder does.
    """
    form = effective_form(model, p)
    if which == "theta":
        return QuadraticBosonForm(modes=form.modes, n_a=0.0, const=0.0, hop=1j * form.hop,
                                  pair=1j * form.pair, squeeze=2j * form.squeeze)
    cs_model = "cs" + model[2:]
    dform = _cs_derivative(cs_model, p, which)
    if model == cs_model:
        return dform
    return _eliminate_b_derivative(_FORMS[cs_model](p), dform)


def effective_param_derivative(model: str, p: ModelParams, cut: FockCutoff,
                               which: str) -> Matrix:
    """Matrix of d H_eff / d(which) on the truncated basis.

    Assembled from the cutoff's cached pieces like the Hamiltonian, but not
    through :func:`form_matrix`, which counts Hamiltonian builds.
    """
    if which == "theta":
        return theta_derivative_matrix(effective_form(model, p), cut)
    pattern, data = _assemble(form_param_derivative(model, p, which), cut)
    return pattern.matrix(data)
