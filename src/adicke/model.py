"""Anisotropic Dicke model on a truncated Fock x spin basis.

The Hamiltonian couples a single bosonic mode (frequency ``omega``) to a
collective pseudospin of length ``j`` (transition frequency ``Omega``) through
independent rotating-wave (``lambda1``) and counterrotating-wave (``lambda2``)
amplitudes carrying a common phase ``theta``:

    H = omega a'a + Omega Jz
        + lambda1/sqrt(2j) (e^{i theta} a' J- + e^{-i theta} a J+)
        + lambda2/sqrt(2j) (e^{i theta} a' J+ + e^{-i theta} a J-)

Basis ordering is photon-major: |n> x |j, m> with n = 0..n_max outer and
m = -j..j inner, so index = n * (2j+1) + (m+j).  The Z2 parity
exp{i pi (a'a + Jz + j)} is diagonal in this basis and exactly conserved,
so the Hamiltonian splits into two parity blocks even after truncation.

At fixed truncation H is a linear combination of four parameter-free
pieces, a'a, Jz, a'J- and a'J+ (with their adjoints).  Their blocks on the
truncation's sector are cut out of the product basis once and cached per
truncation, together with their union sparsity pattern and each piece's
entries aligned to it (``PiecePattern``).  Every Hamiltonian and every
derivative but theta's is then one numpy combination of those vectors on
that fixed pattern, so a position where the terms cancel holds an explicit
zero.  ``project_parity`` stays as the general sector projection that the
tests check the cached blocks against.

In the photon-major order the coupling moves n and m by one each, so the
sector block is banded with half-bandwidth about j + 1, which the shift-invert
solver's banded Cholesky factor relies on (``spectra.shift_invert``).

Every builder returns a ``scipy.sparse.csr_array`` that owns its arrays:
float64 when every coefficient is real (theta = 0) and complex otherwise.
Every consumer keeps the dtype it is given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import TruncationError

#: Parameters with respect to which the Hamiltonian can be differentiated.
PARAMETER_LABELS = ("omega", "Omega", "lambda1", "lambda2", "theta")

#: Hard guard against runaway basis sizes.
DEFAULT_MAX_DIM = 250_000

_SECTORS = ("positive", "negative", "full")

#: Truncations whose parameter-free sector pieces stay cached; a sweep or a
#: convergence scan touches a handful.
PIECE_CACHE_SIZE = 8


@dataclass(frozen=True)
class ModelParams:
    """One physical parameter point (omega, Omega, lambda1, lambda2, theta, j)."""

    omega: float = 1.0
    Omega: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    theta: float = 0.0
    j: float = 0.5

    def __post_init__(self):
        if self.omega <= 0 or self.Omega <= 0:
            raise ValueError("omega and Omega must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("coupling amplitudes must be non-negative")
        two_j = 2 * self.j
        if self.j <= 0 or abs(two_j - round(two_j)) > 1e-9:
            raise ValueError(f"j must be a positive half-integer, got {self.j}")

    @property
    def g(self) -> float:
        """Dimensionless coupling (lambda1 + lambda2)/sqrt(omega * Omega); critical at 1."""
        return (self.lambda1 + self.lambda2) / math.sqrt(self.omega * self.Omega)

    @property
    def gamma(self) -> float:
        """Coupling ratio lambda1/lambda2; +inf when lambda2 = 0, 1 when both vanish."""
        if self.lambda2 == 0.0:
            return math.inf if self.lambda1 > 0 else 1.0
        return self.lambda1 / self.lambda2

    @property
    def eta(self) -> float:
        """Frequency ratio Omega/omega."""
        return self.Omega / self.omega

    @property
    def spin_dim(self) -> int:
        return int(round(2 * self.j)) + 1

    @classmethod
    def from_ratios(cls, g: float, gamma: float = 1.0, eta: float = 1.0,
                    omega: float = 1.0, theta: float = 0.0, j: float = 0.5) -> "ModelParams":
        """Build a parameter point from the dimensionless ratios (g, gamma, eta)."""
        if g < 0:
            raise ValueError("g must be non-negative")
        Omega = eta * omega
        total = g * math.sqrt(omega * Omega)
        if math.isinf(gamma):
            lam1, lam2 = total, 0.0
        else:
            if gamma <= 0:
                raise ValueError("gamma must be positive (or inf)")
            lam1 = total * gamma / (1.0 + gamma)
            lam2 = total / (1.0 + gamma)
        return cls(omega=omega, Omega=Omega, lambda1=lam1, lambda2=lam2, theta=theta, j=j)

    def shifted(self, which: str, delta: float) -> "ModelParams":
        """Return a copy with one primary parameter shifted by ``delta``."""
        if which not in PARAMETER_LABELS:
            raise ValueError(f"unknown parameter {which!r}")
        return replace(self, **{which: getattr(self, which) + delta})


@dataclass(frozen=True)
class Truncation:
    """Basis bookkeeping: Fock cutoff, spin dimension and parity sector."""

    n_max: int
    spin_dim: int
    parity_sector: str = "positive"

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.spin_dim < 1:
            raise ValueError("spin_dim must be at least 1")
        if self.parity_sector not in _SECTORS:
            raise ValueError(f"parity_sector must be one of {_SECTORS}")

    @classmethod
    def for_spin(cls, n_max: int, j: float, parity_sector: str = "positive") -> "Truncation":
        return cls(n_max=n_max, spin_dim=int(round(2 * j)) + 1, parity_sector=parity_sector)

    @property
    def dim(self) -> int:
        """Full product-basis dimension (n_max + 1)(2j + 1)."""
        return (self.n_max + 1) * self.spin_dim


def real_if_exact(c: complex) -> complex | float:
    """A coefficient as a float when its imaginary part is exactly zero.

    Multiplying real sparse pieces by such a coefficient keeps them float64,
    which is what makes the theta = 0 problem real.
    """
    c = complex(c)
    return c.real if c.imag == 0.0 else c


# ---------------------------------------------------------------------------
# assembly on a fixed pattern


@dataclass(frozen=True, eq=False)
class PiecePattern:
    """The union sparsity pattern of a set of pieces, each piece's data aligned to it.

    ``vectors[k]`` holds piece k's entries at the pattern's positions and
    zeros elsewhere, so a linear combination of the pieces is one numpy
    combination of the vectors on an unchanged pattern.  Built once per
    truncation (or cutoff) and read-only.
    """

    shape: tuple[int, int]
    indices: np.ndarray
    indptr: np.ndarray
    vectors: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, pieces) -> "PiecePattern":
        """The pattern of sparse pieces of one shape, each without duplicate entries."""
        import scipy.sparse as sp
        pieces = [sp.csr_array(piece) for piece in pieces]
        shape = pieces[0].shape
        union = sum(sp.csr_array((np.ones(piece.nnz), piece.indices, piece.indptr), shape=shape)
                    for piece in pieces)
        flat = _flat_positions(union)
        vectors = []
        for piece in pieces:
            vector = np.zeros(union.nnz, dtype=piece.dtype)
            vector[np.searchsorted(flat, _flat_positions(piece))] = piece.data
            vectors.append(vector)
        for arr in (union.indices, union.indptr, *vectors):
            arr.flags.writeable = False
        return cls(shape=shape, indices=union.indices, indptr=union.indptr,
                   vectors=tuple(vectors))

    def combine(self, terms) -> sp.csr_array:
        """sum_k c_k v_k over (c_k, v_k) terms, left to right, as a matrix of its own.

        Each v_k is aligned to the pattern: one of ``vectors`` or a
        combination of them.  A position no term reaches holds an explicit
        zero.  The matrix is float64 when every term is real.
        """
        import scipy.sparse as sp
        data = None
        for coeff, vector in terms:
            term = coeff * vector
            data = term if data is None else data + term
        return sp.csr_array((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)


def _flat_positions(m: sp.csr_array) -> np.ndarray:
    """Row-major flat index of every stored entry of a canonical CSR matrix (ascending)."""
    return np.ravel_multi_index(m.tocoo().coords, m.shape)


# ---------------------------------------------------------------------------
# elementary operators


def boson_operators(n_max: int) -> tuple[sp.csr_array, sp.csr_array, sp.csr_array]:
    """Truncated ladder matrices (a, a_dag, n) on Fock states |0..n_max>.

    The commutator [a, a_dag] equals the identity except for the single corner
    entry (n_max, n_max); that truncation defect is accepted and controlled by
    convergence checks rather than patched.
    """
    import scipy.sparse as sp
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dim = n_max + 1
    a = np.zeros((dim, dim))
    a[np.arange(n_max), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    n_op = np.diag(np.arange(dim, dtype=float))
    return sp.csr_array(a), sp.csr_array(a.T), sp.csr_array(n_op)


def spin_operators(j: float) -> tuple[sp.csr_array, sp.csr_array, sp.csr_array]:
    """Collective spin matrices (J+, J-, Jz) on |j, m>, m = -j..j ascending."""
    import scipy.sparse as sp
    two_j = 2 * j
    if j <= 0 or abs(two_j - round(two_j)) > 1e-9:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    dim = int(round(two_j)) + 1
    m = -j + np.arange(dim)
    jz = np.diag(m)
    amp = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))  # <m+1|J+|m>
    jp = np.zeros((dim, dim))
    jp[np.arange(1, dim), np.arange(dim - 1)] = amp
    return sp.csr_array(jp), sp.csr_array(jp.T), sp.csr_array(jz)


# ---------------------------------------------------------------------------
# full Hamiltonian and its pieces


def _check_truncation(p: ModelParams, t: Truncation):
    if t.spin_dim != p.spin_dim:
        raise ValueError(f"truncation spin_dim {t.spin_dim} does not match 2j+1 = {p.spin_dim}")


def parity_labels(t: Truncation) -> np.ndarray:
    """Diagonal of exp{i pi (a'a + Jz + j)}: +1 / -1 per product-basis state."""
    n = np.arange(t.n_max + 1)
    m_shifted = np.arange(t.spin_dim)  # m + j = 0..2j
    return np.where((np.add.outer(n, m_shifted) % 2) == 0, 1.0, -1.0).ravel()


def parity_operator(t: Truncation) -> sp.csr_array:
    """The Z2 parity, diagonal with entries +-1; squares to the identity."""
    import scipy.sparse as sp
    return sp.diags_array(parity_labels(t), format="csr")


def parity_indices(t: Truncation, sector: str) -> np.ndarray:
    """Full-basis indices belonging to a parity sector, in ascending order."""
    labels = parity_labels(t)
    if sector == "positive":
        return np.flatnonzero(labels > 0)
    if sector == "negative":
        return np.flatnonzero(labels < 0)
    raise ValueError(f"sector must be 'positive' or 'negative', got {sector!r}")


def project_parity(m, t: Truncation, sector: str) -> tuple[sp.csr_array, np.ndarray]:
    """Restrict a parity-commuting operator to one sector.

    ``m`` is sparse or dense.  Returns the CSR sector block and the index
    map embedding it back into the full basis.  Raises if the operator
    mixes the sectors, i.e. the caller passed something that does not
    commute with the parity.  The builders
    do not call it (they cut their pieces once per truncation); it is the
    general projection the tests check them against.
    """
    import scipy.sparse as sp
    idx = parity_indices(t, sector)
    comp = np.setdiff1d(np.arange(t.dim), idx, assume_unique=True)
    rows = sp.csr_array(m)[idx]
    off = rows[:, comp]
    off_max = float(np.max(np.abs(off.data))) if off.nnz else 0.0
    if off_max > 1e-12:
        raise ValueError(f"operator does not commute with parity (off-block max {off_max:.2e})")
    return rows[:, idx].tocsr(), idx


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _sector_pieces(t: Truncation) -> tuple[sp.csr_array, ...]:
    """Parameter-free pieces (a'a, Jz, a'J-, a'J+) on the truncation's sector.

    Each piece commutes with the parity, so its sector block is cut out of
    the product-basis Kronecker product once, here, and every Hamiltonian
    and derivative on this truncation is a combination of the cached blocks.
    The blocks are read-only; j = (spin_dim - 1)/2 follows from the key.
    """
    import scipy.sparse as sp
    _, adag, n_op = boson_operators(t.n_max)
    jp, jm, jz = spin_operators((t.spin_dim - 1) / 2)
    eye_b = sp.identity(t.n_max + 1, format="csr")
    eye_s = sp.identity(t.spin_dim, format="csr")
    pieces = (sp.kron(n_op, eye_s, format="csr"), sp.kron(eye_b, jz, format="csr"),
              sp.kron(adag, jm, format="csr"), sp.kron(adag, jp, format="csr"))
    if t.parity_sector != "full":
        idx = parity_indices(t, t.parity_sector)
        pieces = tuple(piece[idx][:, idx].tocsr() for piece in pieces)
    for piece in pieces:
        piece.sum_duplicates()  # canonical, so no later operation sorts in place
        for arr in (piece.data, piece.indices, piece.indptr):
            arr.flags.writeable = False
    return pieces


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _sector_pattern(t: Truncation) -> PiecePattern:
    """The sector pieces and the adjoints of the couplings on one pattern.

    Vectors in the order a'a, Jz, a'J-, a J+, a'J+, a J-.
    """
    number, jz, up_minus, up_plus = _sector_pieces(t)
    return PiecePattern.of((number, jz, up_minus, up_minus.T, up_plus, up_plus.T))


def _coupling(p: ModelParams, raising: np.ndarray, lowering: np.ndarray) -> np.ndarray:
    """(e^{i theta} raising + h.c.)/sqrt(2j): one collective coupling at p's phase.

    ``raising`` and ``lowering`` are a piece and its adjoint, aligned to one
    ``PiecePattern``.
    """
    phase = real_if_exact(np.exp(1j * p.theta))
    norm = 1.0 / math.sqrt(2 * p.j)
    return norm * (phase * raising + np.conj(phase) * lowering)


def full_hamiltonian(p: ModelParams, t: Truncation,
                     max_dim: int = DEFAULT_MAX_DIM) -> sp.csr_array:
    """Hamiltonian matrix on the photon-major product basis.

    With ``t.parity_sector`` set to 'positive' or 'negative' the sector
    block is returned instead of the full matrix.
    """
    _check_truncation(p, t)
    if t.dim > max_dim:
        raise TruncationError(f"basis dimension {t.dim} exceeds the guard {max_dim}")
    pattern = _sector_pattern(t)
    return pattern.combine(_terms(p, pattern))


def _terms(p: ModelParams, pattern: PiecePattern,
           labels=("omega", "Omega", "lambda1", "lambda2")) -> list[tuple]:
    """The (coefficient, vector) terms of H on the pattern that the labels multiply."""
    number, jz, rw_up, rw_down, cr_up, cr_down = pattern.vectors
    term = {"omega": lambda: (p.omega, number), "Omega": lambda: (p.Omega, jz),
            "lambda1": lambda: (p.lambda1, _coupling(p, rw_up, rw_down)),
            "lambda2": lambda: (p.lambda2, _coupling(p, cr_up, cr_down))}
    return [term[label]() for label in labels]


def param_derivative(p: ModelParams, t: Truncation, which: str) -> sp.csr_array:
    """Exact derivative of the Hamiltonian with respect to one primary parameter.

    Every derivative commutes with the parity, so it lives on the same
    sector as the Hamiltonian (``t.parity_sector``).
    """
    _check_truncation(p, t)
    if which not in PARAMETER_LABELS:
        raise ValueError(f"unknown parameter {which!r}; expected one of {PARAMETER_LABELS}")
    pattern = _sector_pattern(t)
    if which == "theta":  # i [a'a, H]; only the couplings fail to commute with a'a
        number = _sector_pieces(t)[0]
        coupling = pattern.combine(_terms(p, pattern, ("lambda1", "lambda2")))
        return (1j * (number @ coupling - coupling @ number)).tocsr()
    [(_, vector)] = _terms(p, pattern, (which,))
    return pattern.combine([(1.0, vector)])


def photon_number_diagonal(t: Truncation) -> np.ndarray:
    """Photon occupation per basis state, honoring the truncation's sector."""
    n = np.repeat(np.arange(t.n_max + 1, dtype=float), t.spin_dim)
    if t.parity_sector == "full":
        return n
    return n[parity_indices(t, t.parity_sector)]
