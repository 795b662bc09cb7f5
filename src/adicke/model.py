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
truncation's sector are built once per truncation as numpy COO triplets
(``Piece``): a Kronecker product of triplets, then an index map that cuts the
sector out.  They are cached with their union sparsity pattern and each
piece's entries aligned to it (``PiecePattern``).  Every Hamiltonian and
every derivative is then one numpy combination of those vectors on that
fixed pattern, so a position where the terms cancel holds an explicit zero;
the theta derivative i [a'a, H] is the pattern vector i (n_row - n_col) times
the couplings' entries.  ``project_parity`` stays as the general sector
projection that the tests check the cached blocks against; the
product-basis ladder, spin and parity matrices they build it from are
oracles of the tests and live there.

In the photon-major order the coupling moves n and m by one each, so the
sector block is banded with half-bandwidth about j + 1, which the shift-invert
solver's banded Cholesky factor relies on (``spectra.shift_invert``).

Every builder returns a matrix that owns its arrays, in the representation
the solver of its size takes (``PiecePattern.matrix``): a dense ndarray at or
below ``spectra.DENSE_SOLVE_LIMIT`` rows, and above it a ``HermitianBand``,
the upper band that the banded Cholesky factor and the band product of
``_blas`` take, scattered from the pattern through an index computed once
per truncation.  Neither loads any part of scipy.  A matrix is float64 when
every coefficient is real (theta = 0) and complex otherwise.  Every
consumer keeps the dtype it is given.  The Hamiltonians (or derivatives) of
several points on one truncation can also be built as one ``BandStack``:
each member's entries are scattered straight into its block of one
block-diagonal band, which the stacked shift-invert solvers take.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, TypeAlias

import numpy as np

from . import _blas
from .errors import TruncationError

#: Parameters with respect to which the Hamiltonian can be differentiated.
PARAMETER_LABELS = ("omega", "Omega", "lambda1", "lambda2", "theta")

#: Hard guard against runaway basis sizes.
DEFAULT_MAX_DIM = 250_000

_SECTORS = ("positive", "negative", "full")

#: What every builder returns: an ndarray at or below ``spectra.DENSE_SOLVE_LIMIT``
#: rows and a ``HermitianBand`` above it (``PiecePattern.matrix``).
Matrix: TypeAlias = "np.ndarray | HermitianBand"

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
# sparse pieces as numpy triplets


class Piece(NamedTuple):
    """A sparse matrix as numpy COO triplets: each position once, no zero stored."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def diagonal(cls, values: np.ndarray) -> "Piece":
        """diag(values), its zeros not stored."""
        at = np.flatnonzero(values)
        return cls((values.size, values.size), at, at, values[at])

    @property
    def T(self) -> "Piece":
        return Piece(self.shape[::-1], self.cols, self.rows, self.vals)

    def kron(self, other: "Piece") -> "Piece":
        """The Kronecker product self (x) other: every entry x_ik y_jl."""
        (rows, cols), (other_rows, other_cols) = self.shape, other.shape
        return Piece((rows * other_rows, cols * other_cols),
                     (self.rows[:, None] * other_rows + other.rows).ravel(),
                     (self.cols[:, None] * other_cols + other.cols).ravel(),
                     (self.vals[:, None] * other.vals).ravel())

    def restrict(self, idx: np.ndarray) -> "Piece":
        """The block on the basis states ``idx`` (ascending), by an index map."""
        new = np.full(self.shape[0], -1)
        new[idx] = np.arange(idx.size)
        rows, cols = new[self.rows], new[self.cols]
        keep = (rows >= 0) & (cols >= 0)
        return Piece((idx.size, idx.size), rows[keep], cols[keep], self.vals[keep])

    def frozen(self) -> "Piece":
        """This piece, its arrays made read-only."""
        _read_only(self.rows, self.cols, self.vals)
        return self


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


# ---------------------------------------------------------------------------
# assembly on a fixed pattern


@dataclass(frozen=True, eq=False)
class HermitianBand:
    """A Hermitian matrix held as its upper band, in LAPACK's upper band storage.

    ``band[kd + r - c, c]`` holds H[r, c] for c - kd <= r <= c, with kd the
    half-bandwidth, so row kd is the diagonal; the lower triangle is the
    conjugate.  The array is column-major, as LAPACK's banded Cholesky
    factor and CBLAS's band product take it, and kd reaches the farthest
    nonzero entry only: superdiagonals that hold nothing but zeros, such as
    a fixed pattern holds where its terms vanish, are not stored.
    """

    band: np.ndarray

    @classmethod
    def trimmed(cls, band: np.ndarray) -> "HermitianBand":
        """The matrix of an upper band, its all-zero outer superdiagonals dropped."""
        kept = band.any(axis=1)
        kept[-1] = True
        return cls(np.asfortranarray(band[int(np.argmax(kept)):]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.band.shape[1],) * 2

    @property
    def dtype(self) -> np.dtype:
        return self.band.dtype

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x for one vector or one per column, in the dtype the two need."""
        x = np.asarray(x)
        if x.ndim == 2:
            return BandStack(self).product(x.T).T
        return BandStack(self).product(x)

    def norm(self) -> float:
        """The Frobenius norm."""
        off = np.linalg.norm(self.band[:-1])
        return float(np.sqrt(np.linalg.norm(self.band[-1]) ** 2 + 2.0 * off * off))

    def toarray(self) -> np.ndarray:
        kd, dim = self.band.shape[0] - 1, self.shape[0]
        out = np.zeros(self.shape, dtype=self.dtype)
        for d in range(kd + 1):
            at = np.arange(dim - d)
            out[at + d, at] = np.conj(self.band[kd - d, d:])
            out[at, at + d] = self.band[kd - d, d:]
        return out


@dataclass(frozen=True, eq=False)
class BandStack:
    """Hermitian matrices of one size held as one block-diagonal matrix.

    Member b is rows and columns b * size to (b + 1) * size - 1 of
    ``matrix``: the members' upper bands lie end to end in one column-major
    array, padded to the widest half-bandwidth, and every entry that would
    join two members is zero.  So one call of a band routine (a product, or
    a solve with the factors laid out the same way) serves every member,
    and no member's numbers reach another's.  One matrix is a stack of one.
    """

    matrix: HermitianBand
    members: int = 1

    @functools.cached_property
    def size(self) -> int:
        return self.matrix.shape[0] // self.members

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def member(self, b: int) -> HermitianBand:
        """Member b's matrix, a view of the stack's band."""
        n = self.size
        return HermitianBand(self.matrix.band[:, b * n:(b + 1) * n])

    def select(self, keep) -> "BandStack":
        """The stack of the members ``keep``, in that order: this one when it
        keeps them all, else a copy."""
        keep = list(keep)
        if keep == list(range(self.members)):
            return self
        band = np.concatenate([self.member(b).band for b in keep], axis=1)
        return BandStack(HermitianBand(np.asfortranarray(band)), len(keep))

    def shifted(self, levels) -> "BandStack":
        """The stack of H_b - levels[b], each member's diagonal moved, as a copy."""
        band = self.matrix.band.copy(order="F")
        diagonal = band[-1]
        diagonal -= np.repeat(levels, self.size)
        return BandStack(HermitianBand(band), self.members)

    @functools.cached_property
    def _multiply(self):
        return _blas.product(self.matrix.band)

    def product(self, x: np.ndarray) -> np.ndarray:
        """H x for every member at once: x holds one vector per member along
        its last two axes (members, size), or one for a stack of one along its
        last; leading axes hold more vectors.  One band product per vector."""
        x = np.asarray(x)
        if x.shape[-1:] != (self.size,) or (self.members > 1
                                            and x.shape[-2:-1] != (self.members,)):
            raise ValueError(f"operand of shape {x.shape} does not fit a stack of "
                             f"{self.members} matrices of size {self.size}")
        if x.dtype.kind == "c" and self.dtype.kind != "c":
            return self.product(x.real) + 1j * self.product(x.imag)
        x = np.ascontiguousarray(x, dtype=self.dtype)
        y = np.empty_like(x)
        whole = self.matrix.band.shape[1]
        for xv, yv in zip(x.reshape(-1, whole), y.reshape(-1, whole)):
            self._multiply(xv, yv)
        return y


def as_band(op) -> HermitianBand:
    """A Hermitian matrix as its upper band: a ``HermitianBand`` as it is, an
    ndarray by its nonzero upper entries."""
    if isinstance(op, HermitianBand):
        return op
    op = np.asarray(op)
    rows, cols = np.nonzero(np.triu(op))
    kd = int(np.max(cols - rows, initial=0))
    dtype = np.complex128 if np.iscomplexobj(op) else np.float64
    band = np.zeros((kd + 1, op.shape[0]), dtype=dtype, order="F")
    band[kd + rows - cols, cols] = op[rows, cols]
    return HermitianBand.trimmed(band)


@dataclass(frozen=True, eq=False)
class PiecePattern:
    """The union sparsity pattern of a set of pieces, each piece's data aligned to it.

    The pattern's positions are stored row-major (``rows``, ``cols``).
    ``vectors[k]`` holds piece k's entries at those positions and zeros
    elsewhere, so a linear combination of the pieces is one numpy
    combination of the vectors on an unchanged pattern.  ``upper`` picks the
    positions on or above the diagonal and ``band_at`` places each in the
    flattened column-major upper band of half-bandwidth ``kd``.  Built once
    per truncation (or cutoff) and read-only.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vectors: tuple[np.ndarray, ...]
    kd: int
    upper: np.ndarray
    band_at: np.ndarray

    @classmethod
    def of(cls, pieces) -> "PiecePattern":
        """The pattern of pieces of one shape, each a ``Piece``."""
        shape = pieces[0].shape
        flats = [piece.rows.astype(np.int64) * shape[1] + piece.cols for piece in pieces]
        # np.unique would import numpy.ma; a sort and a neighbour mask do not
        flat = np.sort(np.concatenate(flats))
        first = np.ones(flat.size, dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        flat = flat[first]
        vectors = []
        for piece, positions in zip(pieces, flats):
            vector = np.zeros(flat.size, dtype=piece.vals.dtype)
            vector[np.searchsorted(flat, positions)] = piece.vals
            vectors.append(vector)
        index = np.int32 if max(flat.size, *shape) < 2**31 else np.int64
        rows, cols = (arr.astype(index) for arr in np.divmod(flat, shape[1]))
        offsets = cols.astype(np.int64) - rows
        upper = np.flatnonzero(offsets >= 0)
        kd = int(np.max(offsets, initial=0))
        band_at = cols[upper].astype(np.int64) * (kd + 1) + kd - offsets[upper]
        _read_only(rows, cols, upper, band_at, *vectors)
        return cls(shape=shape, rows=rows, cols=cols, vectors=tuple(vectors), kd=kd,
                   upper=upper, band_at=band_at)

    def combine(self, terms) -> np.ndarray:
        """sum_k c_k v_k over (c_k, v_k) terms, left to right: data on the pattern.

        Each v_k is aligned to the pattern: one of ``vectors`` or a
        combination of them.  The data is float64 when every term is real.
        """
        data = None
        for coeff, vector in terms:
            term = coeff * vector
            data = term if data is None else data + term
        return data

    def commutator(self, diagonal: np.ndarray, data: np.ndarray) -> np.ndarray:
        """i [D, M] for D = diag(diagonal) and M given by its data on the pattern.

        Entry (r, c) is i (D_r - D_c) M_rc, exactly, with no matrix product.
        """
        return 1j * (diagonal[self.rows] - diagonal[self.cols]) * data

    def matrix(self, data: np.ndarray) -> Matrix:
        """The Hermitian matrix holding ``data`` on the pattern, as a matrix of its own.

        A dense ndarray at or below ``spectra.DENSE_SOLVE_LIMIT`` rows, where
        the dense solver takes it, and a ``HermitianBand`` of the upper
        entries above it, where the shift-invert solver does: the one size
        policy picks the representation as well as the solver.
        """
        from .spectra import DENSE_SOLVE_LIMIT
        if self.shape[0] <= DENSE_SOLVE_LIMIT:
            out = np.zeros(self.shape, dtype=data.dtype)
            out[self.rows, self.cols] = data
            return out
        return self.stack([data]).matrix

    def stack(self, datas) -> BandStack:
        """The Hermitian matrices holding each of ``datas`` on the pattern, as
        one ``BandStack`` of their upper bands, whatever their size.

        Each member's entries are scattered straight into its block of the
        stack's band; outer superdiagonals that every member leaves zero are
        dropped, and a member that reaches less far is padded with zeros.
        """
        members, n = len(datas), self.shape[0]
        band = np.zeros((members, n, self.kd + 1), dtype=np.result_type(*datas))
        for block, data in zip(band, datas):
            block.reshape(-1)[self.band_at] = data[self.upper]
        return BandStack(HermitianBand.trimmed(band.reshape(members * n, self.kd + 1).T),
                         members)


def as_dense(m: Matrix) -> np.ndarray:
    """A matrix as an ndarray, whichever representation its size gave it."""
    return m.toarray() if hasattr(m, "toarray") else np.asarray(m)


# ---------------------------------------------------------------------------
# elementary operators


def ladder_pieces(n_max: int) -> tuple[Piece, Piece]:
    """Truncated creation operator a' and number operator a'a on Fock states |0..n_max>."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    up = np.arange(n_max)
    return (Piece((n_max + 1, n_max + 1), up + 1, up, np.sqrt(np.arange(1, n_max + 1))),
            Piece.diagonal(np.arange(n_max + 1, dtype=float)))


def spin_pieces(j: float) -> tuple[Piece, Piece]:
    """Collective spin raising J+ and Jz on |j, m>, m = -j..j ascending."""
    two_j = 2 * j
    if j <= 0 or abs(two_j - round(two_j)) > 1e-9:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    dim = int(round(two_j)) + 1
    m = -j + np.arange(dim)
    up = np.arange(dim - 1)
    amp = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))  # <m+1|J+|m>
    return Piece((dim, dim), up + 1, up, amp), Piece.diagonal(m)


# ---------------------------------------------------------------------------
# full Hamiltonian and its pieces


def check_truncation(p: ModelParams, t: Truncation) -> None:
    """Refuse a truncation whose spin dimension is not p's 2j + 1."""
    if t.spin_dim != p.spin_dim:
        raise ValueError(f"truncation spin_dim {t.spin_dim} does not match 2j+1 = {p.spin_dim}")


def parity_labels(t: Truncation) -> np.ndarray:
    """Diagonal of exp{i pi (a'a + Jz + j)}: +1 / -1 per product-basis state."""
    n = np.arange(t.n_max + 1)
    m_shifted = np.arange(t.spin_dim)  # m + j = 0..2j
    return np.where((np.add.outer(n, m_shifted) % 2) == 0, 1.0, -1.0).ravel()


def parity_indices(t: Truncation, sector: str) -> np.ndarray:
    """Full-basis indices belonging to a parity sector, in ascending order."""
    labels = parity_labels(t)
    if sector == "positive":
        return np.flatnonzero(labels > 0)
    if sector == "negative":
        return np.flatnonzero(labels < 0)
    raise ValueError(f"sector must be 'positive' or 'negative', got {sector!r}")


def project_parity(m, t: Truncation, sector: str) -> tuple[np.ndarray, np.ndarray]:
    """Restrict a parity-commuting operator to one sector.

    ``m`` is any matrix ``as_dense`` takes.  Returns the sector block as an
    ndarray and the index map embedding it back into the full basis.  Raises
    if the operator mixes the sectors, i.e. the caller passed something that
    does not commute with the parity.  The builders do not call it (they cut
    their pieces once per truncation); it is the general projection the
    tests check them against.
    """
    idx = parity_indices(t, sector)
    comp = np.setdiff1d(np.arange(t.dim), idx, assume_unique=True)
    rows = as_dense(m)[idx]
    off_max = float(np.max(np.abs(rows[:, comp]), initial=0.0))
    if off_max > 1e-12:
        raise ValueError(f"operator does not commute with parity (off-block max {off_max:.2e})")
    return rows[:, idx], idx


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _sector_pieces(t: Truncation) -> tuple[Piece, ...]:
    """Parameter-free pieces (a'a, Jz, a'J-, a'J+) on the truncation's sector.

    Each piece commutes with the parity, so its sector block is cut out of
    the product-basis Kronecker product once, here, and every Hamiltonian
    and derivative on this truncation is a combination of the cached blocks.
    The blocks are read-only; j = (spin_dim - 1)/2 follows from the key.
    """
    adag, number = ladder_pieces(t.n_max)
    jp, jz = spin_pieces((t.spin_dim - 1) / 2)
    eye_b = Piece.diagonal(np.ones(t.n_max + 1))
    eye_s = Piece.diagonal(np.ones(t.spin_dim))
    pieces = (number.kron(eye_s), eye_b.kron(jz), adag.kron(jp.T), adag.kron(jp))
    if t.parity_sector != "full":
        idx = parity_indices(t, t.parity_sector)
        pieces = tuple(piece.restrict(idx) for piece in pieces)
    return tuple(piece.frozen() for piece in pieces)


def sector_dimension(t: Truncation) -> int:
    """The dimension of the matrices built on the truncation: its sector's, or t.dim."""
    return _sector_pattern(t).shape[0]


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
                     max_dim: int = DEFAULT_MAX_DIM) -> Matrix:
    """Hamiltonian matrix on the photon-major product basis.

    With ``t.parity_sector`` set to 'positive' or 'negative' the sector
    block is returned instead of the full matrix.
    """
    pattern = _checked_pattern([p], t, max_dim)
    return pattern.matrix(pattern.combine(_terms(p, pattern)))


def full_hamiltonian_stack(points, t: Truncation,
                           max_dim: int = DEFAULT_MAX_DIM) -> BandStack:
    """The Hamiltonians of several points on one truncation, as one ``BandStack``.

    Member b is ``full_hamiltonian(points[b], t)``, built into its block of
    the stack's band; the stack is a band at any dimension.
    """
    pattern = _checked_pattern(points, t, max_dim)
    return pattern.stack([pattern.combine(_terms(p, pattern)) for p in points])


def _checked_pattern(points, t: Truncation, max_dim: int = DEFAULT_MAX_DIM) -> PiecePattern:
    for p in points:
        check_truncation(p, t)
    if t.dim > max_dim:
        raise TruncationError(f"basis dimension {t.dim} exceeds the guard {max_dim}")
    return _sector_pattern(t)


def _terms(p: ModelParams, pattern: PiecePattern,
           labels=("omega", "Omega", "lambda1", "lambda2")) -> list[tuple]:
    """The (coefficient, vector) terms of H on the pattern that the labels multiply."""
    number, jz, rw_up, rw_down, cr_up, cr_down = pattern.vectors
    term = {"omega": lambda: (p.omega, number), "Omega": lambda: (p.Omega, jz),
            "lambda1": lambda: (p.lambda1, _coupling(p, rw_up, rw_down)),
            "lambda2": lambda: (p.lambda2, _coupling(p, cr_up, cr_down))}
    return [term[label]() for label in labels]


def param_derivative(p: ModelParams, t: Truncation, which: str) -> Matrix:
    """Exact derivative of the Hamiltonian with respect to one primary parameter.

    Every derivative commutes with the parity, so it lives on the same
    sector as the Hamiltonian (``t.parity_sector``).
    """
    pattern = _checked_pattern([p], t)
    return pattern.matrix(_derivative_data(p, t, pattern, which))


def param_derivative_stack(points, t: Truncation, which: str) -> BandStack:
    """The derivatives of several points along one parameter, as one ``BandStack``."""
    pattern = _checked_pattern(points, t)
    return pattern.stack([_derivative_data(p, t, pattern, which) for p in points])


def _derivative_data(p: ModelParams, t: Truncation, pattern: PiecePattern,
                     which: str) -> np.ndarray:
    if which not in PARAMETER_LABELS:
        raise ValueError(f"unknown parameter {which!r}; expected one of {PARAMETER_LABELS}")
    if which == "theta":  # i [a'a, H]; only the couplings fail to commute with a'a
        coupling = pattern.combine(_terms(p, pattern, ("lambda1", "lambda2")))
        return pattern.commutator(photon_number_diagonal(t), coupling)
    [(_, vector)] = _terms(p, pattern, (which,))
    return pattern.combine([(1.0, vector)])


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def photon_number_diagonal(t: Truncation) -> np.ndarray:
    """Photon occupation per basis state, honoring the truncation's sector.

    Built once per truncation, as its pieces are, and read-only.
    """
    n = np.repeat(np.arange(t.n_max + 1, dtype=float), t.spin_dim)
    if t.parity_sector != "full":
        n = n[parity_indices(t, t.parity_sector)]
    _read_only(n)
    return n
