"""Coefficient extraction and boson parity on the effective bases: oracles of the tests.

The package builds every effective matrix from its form's coefficients
(``effective.form_matrix``) and never reads them back; the tests read them
back here to check that a matrix holds exactly the quadratic form it was
built from, and check the matrices' parity symmetry against these labels.
"""

from __future__ import annotations

import math

import numpy as np

from adicke.effective import FockCutoff, QuadraticBosonForm, form_matrix
from adicke.model import as_dense

#: Largest rebuild defect, relative to the matrix scale, that
#: ``quadratic_form`` accepts.
QUADRATIC_FORM_TOL = 1e-14


def boson_parity_labels(cut: FockCutoff) -> np.ndarray:
    """Diagonal of exp{i pi sum_k n_k} on the effective basis."""
    na = np.arange(cut.n_a + 1)
    if cut.modes == 1:
        total = na
    else:
        total = np.add.outer(na, np.arange(cut.n_b + 1)).ravel()
    return np.where(total % 2 == 0, 1.0, -1.0)


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
