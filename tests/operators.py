"""Product-basis ladder, spin and parity matrices as scipy CSR: oracles of the tests.

The package builds every matrix from numpy triplets (``model.Piece``) and
never needs these; the tests build the Hamiltonian, its derivatives and the
parity from them to check the package's cached sector pieces against.
"""

from __future__ import annotations

import scipy.sparse as sp

from adicke.model import Piece, Truncation, ladder_pieces, parity_labels, spin_pieces


def _csr(piece: Piece) -> sp.csr_array:
    return sp.csr_array((piece.vals, (piece.rows, piece.cols)), shape=piece.shape)


def boson_operators(n_max: int) -> tuple[sp.csr_array, sp.csr_array, sp.csr_array]:
    """Truncated ladder matrices (a, a_dag, n) on Fock states |0..n_max>, as CSR.

    The commutator [a, a_dag] equals the identity except for the single corner
    entry (n_max, n_max); that truncation defect is accepted and controlled by
    convergence checks rather than patched.
    """
    adag, number = ladder_pieces(n_max)
    return _csr(adag.T), _csr(adag), _csr(number)


def spin_operators(j: float) -> tuple[sp.csr_array, sp.csr_array, sp.csr_array]:
    """Collective spin matrices (J+, J-, Jz) on |j, m>, m = -j..j ascending, as CSR."""
    jp, jz = spin_pieces(j)
    return _csr(jp), _csr(jp.T), _csr(jz)


def parity_operator(t: Truncation) -> sp.csr_array:
    """The Z2 parity, diagonal with entries +-1; squares to the identity."""
    return sp.diags_array(parity_labels(t), format="csr")
