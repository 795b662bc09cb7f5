"""Tests for the model-variant dispatch layer."""

import math

import numpy as np
import pytest

from adicke import FockCutoff, ModelParams, Truncation, bogoliubov_modes, effective_form
from adicke.families import (default_truncation, ground_pair, hamiltonian_matrix,
                             qgt_components, resolve_branch)
from adicke.spectra import DENSE_SOLVE_LIMIT


def test_resolve_branch():
    assert resolve_branch("auto_cs", 0.8) == "cs_np"
    assert resolve_branch("auto_cs", 1.2) == "cs_sp"
    assert resolve_branch("auto_co", 1.0) == "co_np"  # normal at the point itself
    assert resolve_branch("co_sp", 0.5) == "co_sp"
    with pytest.raises(ValueError):
        resolve_branch("bogus", 1.0)


def test_default_truncations():
    p = ModelParams.from_ratios(0.5, j=3.0)
    assert isinstance(default_truncation("full", p, 20), Truncation)
    cut2 = default_truncation("cs_np", p, 20, 15)
    assert cut2.modes == 2 and cut2.n_b == 15
    assert default_truncation("co_np", p, 20).modes == 1


def test_truncation_type_checks():
    p = ModelParams.from_ratios(0.5, j=2.0)
    with pytest.raises(TypeError):
        hamiltonian_matrix("full", p, FockCutoff(10))
    with pytest.raises(TypeError):
        hamiltonian_matrix("co_np", p, Truncation.for_spin(10, 2.0))
    with pytest.raises(ValueError, match="2-mode"):
        hamiltonian_matrix("cs_np", p, FockCutoff(10))


def test_default_method_switches_with_dimension():
    p = ModelParams.from_ratios(0.5, gamma=2.0, j=2.0)
    small = qgt_components("co_np", p, FockCutoff(30), labels=("omega",))
    assert small.method == "sum_over_states"
    big = qgt_components("cs_np", p, FockCutoff(45, 45), labels=("omega",))
    assert big.method == "linear_solve"
    # the policy boundary: a one-mode matrix has n_max + 1 rows
    at_limit = qgt_components("co_np", p, FockCutoff(DENSE_SOLVE_LIMIT - 1), labels=("omega",))
    assert at_limit.method == "sum_over_states"
    above = qgt_components("co_np", p, FockCutoff(DENSE_SOLVE_LIMIT), labels=("omega",))
    assert above.method == "linear_solve"
    # the full model is solved in one parity sector, about half the product basis
    trunc = Truncation.for_spin(DENSE_SOLVE_LIMIT // 5, 2.0, "positive")
    assert trunc.dim > DENSE_SOLVE_LIMIT >= hamiltonian_matrix("full", p, trunc).dim
    sector = qgt_components("full", p, trunc, labels=("omega",))
    assert sector.method == "sum_over_states"


def test_model_gap_sources():
    p = ModelParams.from_ratios(0.5, gamma=1.0, eta=1.0, j=4.0)
    eff = bogoliubov_modes(effective_form("cs_np", p)).gap
    assert eff == pytest.approx(math.sqrt(0.5), rel=1e-12)
    # the physical gap needs both sectors; within one sector the next level
    # sits two quanta up
    full = ground_pair("full", p, Truncation.for_spin(24, 4.0, "full"))[2]
    assert 0 < full < 1.0
    sector = ground_pair("full", p, Truncation.for_spin(24, 4.0, "positive"))[2]
    assert sector > full


def test_sector_embedding_recovers_full_ground_state():
    from adicke import dense_eigensystem, full_hamiltonian, project_parity
    p = ModelParams.from_ratios(0.7, gamma=2.0, eta=1.0, theta=0.4, j=2.0)
    t_full = Truncation.for_spin(14, p.j, "full")
    ham = full_hamiltonian(p, t_full)
    block, idx = project_parity(ham, t_full, "positive")
    es_block = dense_eigensystem(block)
    embedded = np.zeros(t_full.dim, dtype=complex)
    embedded[idx] = es_block.states[:, 0]
    es_full = dense_eigensystem(ham)
    assert abs(np.vdot(embedded, es_full.states[:, 0])) > 1 - 1e-12
