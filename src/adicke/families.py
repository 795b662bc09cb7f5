"""Uniform access to every model variant: matrices, ground states, tensors.

The sweep layer and the tests talk to the five concrete variants ("full",
"cs_np", "cs_sp", "co_np", "co_sp") through one interface; the "auto_cs" /
"auto_co" names resolve to the phase matching the coupling before any matrix
is built.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import effective, model, spectra
from ._blas import single_thread
from .errors import DegeneracyError
from .geometry import (GaugeGenerator, QGTComponents, qgt_finite_difference,
                       qgt_gaussian, qgt_matrix_solve, qgt_matrix_sum)
from .model import BandStack, HermitianBand, Matrix, ModelParams, Truncation
from .effective import FockCutoff

CONCRETE_MODELS = ("full", "cs_np", "cs_sp", "co_np", "co_sp")
AUTO_MODELS = ("auto_cs", "auto_co")
MODEL_CHOICES = CONCRETE_MODELS + AUTO_MODELS


def resolve_branch(name: str, g: float) -> str:
    """Map an auto variant to its phase at coupling g (normal at g <= 1)."""
    if name == "auto_cs":
        return "cs_np" if g <= 1.0 else "cs_sp"
    if name == "auto_co":
        return "co_np" if g <= 1.0 else "co_sp"
    if name in CONCRETE_MODELS:
        return name
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_CHOICES}")


def _check_trunc(name: str, trunc) -> None:
    if name == "full":
        if not isinstance(trunc, Truncation):
            raise TypeError("the full model takes a Truncation")
    else:
        if not isinstance(trunc, FockCutoff):
            raise TypeError("effective models take a FockCutoff")
        want = 2 if name.startswith("cs") else 1
        if trunc.modes != want:
            raise ValueError(f"{name} needs a {want}-mode cutoff")


def hamiltonian_matrix(name: str, p: ModelParams, trunc) -> Matrix:
    _check_trunc(name, trunc)
    if name == "full":
        return model.full_hamiltonian(p, trunc)
    return effective.form_matrix(effective.effective_form(name, p), trunc)


def derivative_matrix(name: str, p: ModelParams, trunc, which: str) -> Matrix:
    _check_trunc(name, trunc)
    if name == "full":
        return model.param_derivative(p, trunc, which)
    return effective.effective_param_derivative(name, p, trunc, which)


def ground_eigensystem(name: str, p: ModelParams, ham: Matrix) -> spectra.Eigensystem:
    """Ground state and the level above it, by the DENSE_SOLVE_LIMIT policy.

    At or below the limit this is the full dense spectrum, so the sum over
    states can use the same solve.  Above it the two lowest pairs come by
    shift-invert about the Bogoliubov ground energy of the quadratic limit:
    the variant's own form, or for the full model the classical-spin branch
    at p.g.  A truncation compresses an effective form, so by Cauchy
    interlacing its ground energy is not below that estimate.
    """
    if ham.shape[0] <= spectra.DENSE_SOLVE_LIMIT:
        return spectra.dense_eigensystem(ham)
    return spectra.lowest_k(ham, 2, estimate=_estimate(name, p))


def _estimate(name: str, p: ModelParams) -> spectra.NormalModes:
    """The normal modes whose Bogoliubov ground energy places the shift."""
    branch = resolve_branch("auto_cs", p.g) if name == "full" else name
    return spectra.bogoliubov_modes(effective.effective_form(branch, p))


def ground_pair(name: str, p: ModelParams, trunc) -> tuple[float, np.ndarray, float]:
    """Ground energy, gauge-fixed ground state, and the matrix gap above it."""
    es = ground_eigensystem(name, p, hamiltonian_matrix(name, p, trunc))
    return float(es.energies[0]), es.states[:, 0], es.gap


def ground_state(name: str, p: ModelParams, trunc) -> np.ndarray:
    """Gauge-fixed ground state only (builder shape used by finite differences)."""
    return ground_pair(name, p, trunc)[1]


def photon_number_diagonal(name: str, trunc) -> np.ndarray:
    """Occupation of the field mode per basis state of the variant's basis."""
    if name == "full":
        return model.photon_number_diagonal(trunc)
    return effective.mode_a_number_diagonal(trunc)


def _gaussian_components(name: str, p: ModelParams, labels: tuple[str, ...]) -> QGTComponents:
    """Exact ground-state tensor of an effective model: no Fock cutoff, no eigensolve.

    The form's normal modes come from one Colpa solve of its 2n x 2n
    single-particle matrix (``spectra.symplectic_transform``), certified by
    ``spectra.check_symplectic``; the tensor is the pair sum of
    ``geometry.qgt_gaussian`` over the derivative forms.  Like "sum" and
    "solve" it works at theta = 0, where the theta derivative form is
    exact.  The energy and gap come from the certified mode energies: the
    vacuum energy const + (sum eps - n_a - n_b) / 2 and the softest mode.
    ``spectra.bogoliubov_modes``, a separate solve, stays their oracle.
    """
    at = dataclasses.replace(p, theta=0.0)
    form = effective.effective_form(name, at)
    eps, t = spectra.symplectic_transform(form)
    spectra.check_symplectic(form, eps, t)
    derivs = [spectra.single_particle_matrix(effective.form_param_derivative(name, at, label))
              for label in labels]
    energy = form.const + 0.5 * (float(np.sum(eps)) - form.n_a - form.n_b)
    return dataclasses.replace(qgt_gaussian(eps, t, derivs, labels),
                               energy=energy, gap=float(np.min(eps)))


@single_thread
def qgt_components(name: str, p: ModelParams, trunc=None,
                   labels=("theta", "omega"), method: str | None = None) -> QGTComponents:
    """Ground-state tensor over a label subset: exact, or on a truncation.

    With no truncation an effective model takes the exact Gaussian route
    (``_gaussian_components``), and ``method`` must be left unset.  Given a
    truncation -- which the full model always needs -- ``method`` is one of
    "sum", "solve", "fd"; by default the full-spectrum sum is used when the
    solved matrix has at most spectra.DENSE_SOLVE_LIMIT rows and the linear
    solve above it.  The Hamiltonian is built and
    diagonalized once, and the solved pairs are checked against it; the
    result carries its ground energy and gap.  A solve above the limit is
    a stack of one (``qgt_stack``).

    The phase theta is a gauge: H(theta) = U H(0) U^dagger with
    U = exp(i theta n_a), exactly on the truncated basis.  U does not depend
    on the other parameters and commutes with n_a, so the energy, the gap and
    the whole tensor are those of theta = 0.  "sum" and "solve" therefore
    work on the real theta = 0 problem and take the theta column from the
    generator instead of a derivative matrix.  "fd" differentiates the
    complex ground states at the requested theta and stays an independent
    check of that column.
    """
    labels = tuple(labels)
    if method not in (None, "sum", "solve", "fd"):
        raise ValueError(f"unknown method {method!r}; expected 'sum', 'solve' or 'fd'")
    if trunc is None and name != "full":
        if method is not None:
            raise ValueError(f"method {method!r} needs a truncation")
        return _gaussian_components(name, p, labels)
    at = p if method == "fd" else dataclasses.replace(p, theta=0.0)
    ham = hamiltonian_matrix(name, at, trunc)
    if method is None:
        method = "sum" if ham.shape[0] <= spectra.DENSE_SOLVE_LIMIT else "solve"
    if method == "solve" and isinstance(ham, HermitianBand):
        [comp] = _solved(name, [at], BandStack(ham), trunc, labels)
        if isinstance(comp, Exception):
            raise comp
        return comp
    es = spectra.dense_eigensystem(ham) if method == "sum" else ground_eigensystem(name, at, ham)
    es.check(ham)
    energy, psi = float(es.energies[0]), es.states[:, 0]
    if method == "fd":
        # the centre of the stencil is the state solved above
        builder = lambda q: psi if q == p else ground_state(name, q, trunc)
        comp = qgt_finite_difference(builder, p, labels)
    else:
        derivs = [_generator(name, trunc) if label == "theta"
                  else derivative_matrix(name, at, trunc, label) for label in labels]
        if method == "sum":
            comp = qgt_matrix_sum(es, derivs, labels)
        else:
            _check_gap(es)
            comp = qgt_matrix_solve(ham, energy, psi, derivs, labels, factor=es.factor,
                                    gap=es.gap)
    return dataclasses.replace(comp, energy=energy, gap=es.gap)


def _generator(name: str, trunc) -> GaugeGenerator:
    """dH/dtheta = i[n_a, H]: the theta tangent needs no matrix and no solve."""
    return GaugeGenerator(photon_number_diagonal(name, trunc))


def _check_gap(es: spectra.Eigensystem) -> None:
    if es.gap < spectra.DEGENERACY_RTOL * max(1.0, abs(float(es.energies[0]))):
        raise DegeneracyError(f"ground gap {es.gap:.2e} is below the degeneracy tolerance")


def _attempt(func, *args, **kwargs):
    """func's result, or the exception it raised."""
    try:
        return func(*args, **kwargs)
    except Exception as exc:
        return exc


def stack_size(name: str, trunc, method: str | None = None) -> int:
    """Points of one truncation that ``qgt_stack`` solves as one stack: the
    spectra.STACK_LIMIT share of the full model's band solve (above
    spectra.DENSE_SOLVE_LIMIT, by default or with ``method="solve"``), and 1
    on every other route."""
    if name == "full" and method in (None, "solve") and isinstance(trunc, Truncation):
        rows = model.sector_dimension(trunc)
        if rows > spectra.DENSE_SOLVE_LIMIT:
            return spectra.stack_members(rows)
    return 1


@single_thread
def qgt_stack(name: str, points, trunc, labels=("theta", "omega"),
              method: str | None = None) -> list:
    """``qgt_components`` of several points on one truncation: one
    ``QGTComponents``, or the exception that point raised, per point.

    The full model's resolvent solve above spectra.DENSE_SOLVE_LIMIT (the
    default there, or ``method="solve"``) runs consecutive points as stacks
    of at most ``stack_size`` points: each stack's Hamiltonians are one
    ``model.BandStack``, one shift-invert Lanczos (``spectra.lowest_k``) and
    one conjugate-gradient iteration (``geometry.resolvent_tangent``) serve
    them all, and each point keeps its own estimate, certified factor, stop
    tests and checks, so a failure is returned for its point only.  A stack
    of one, and every other route, takes its points one by one.
    """
    labels = tuple(labels)
    points = list(points)
    size = stack_size(name, trunc, method)
    results = []
    for start in range(0, len(points), size):
        chunk = points[start:start + size]
        if len(chunk) == 1:
            results.append(_attempt(qgt_components, name, chunk[0], trunc, labels, method))
        else:
            results += _stacked(name, chunk, trunc, labels)
    return results


def _stacked(name: str, points, trunc, labels) -> list:
    """The resolvent-solve results of the full-model points of one stack."""
    results = [_attempt(model.check_truncation, p, trunc) for p in points]
    fits = [b for b, result in enumerate(results) if result is None]
    if fits:
        ats = [dataclasses.replace(points[b], theta=0.0) for b in fits]
        ham = _attempt(model.full_hamiltonian_stack, ats, trunc)
        solved = [ham] * len(fits) if isinstance(ham, Exception) else _solved(
            name, ats, ham, trunc, labels)
        for b, result in zip(fits, solved):
            results[b] = result
    return results


def _solved(name: str, points, ham: BandStack, trunc, labels) -> list:
    """The resolvent-solve tensors of the members of a stack, at theta = 0:
    one ``QGTComponents`` or one exception per member.

    Each member's pairs come from ``spectra.lowest_k`` about its own
    Bogoliubov estimate (as in ``ground_eigensystem``) and pass its own
    ``Eigensystem.check`` and gap check before its tangents are solved.
    """
    results = [_attempt(_estimate, name, p) for p in points]
    placed = [b for b, estimate in enumerate(results) if not isinstance(estimate, Exception)]
    if placed:
        solved = ham.select(placed)
        systems = spectra.lowest_k(solved, 2, estimate=[results[b] for b in placed])
        # every member's H @ states from one band product per state (zeros where it failed)
        products = solved.product(np.stack(
            [np.zeros((2, solved.size)) if isinstance(es, Exception) else es.states.T
             for es in systems], axis=1))
        for i, (b, es) in enumerate(zip(placed, systems)):
            results[b] = es if isinstance(es, Exception) else _attempt(
                _certified, es, ham.member(b), products[:, i].T)
    live = [b for b, es in enumerate(results) if not isinstance(es, Exception)]
    if not live:
        return results
    systems = [results[b] for b in live]
    kept = [points[b] for b in live]
    derivs = [_generator(name, trunc) if label == "theta"
              else _derivative_stack(name, kept, trunc, label) for label in labels]
    comps = qgt_matrix_solve(ham.select(live), np.array([es.energies[0] for es in systems]),
                             np.stack([es.states[:, 0] for es in systems]), derivs, labels,
                             factor=[es.factor for es in systems],
                             gap=np.array([es.gap for es in systems]))
    for b, es, comp in zip(live, systems, comps):
        results[b] = comp if isinstance(comp, Exception) else dataclasses.replace(
            comp, energy=float(es.energies[0]), gap=es.gap)
    return results


def _certified(es: spectra.Eigensystem, ham, product: np.ndarray) -> spectra.Eigensystem:
    es.check(ham, product)
    _check_gap(es)
    return es


def _derivative_stack(name: str, points, trunc, label: str) -> BandStack:
    if len(points) == 1:
        return BandStack(derivative_matrix(name, points[0], trunc, label))
    return model.param_derivative_stack(points, trunc, label)


def qfi_omega(name: str, p: ModelParams, trunc=None, method: str | None = None) -> float:
    """Fisher information of the field frequency, 4 G_omega_omega (see qgt_components)."""
    comp = qgt_components(name, p, trunc, labels=("omega",), method=method)
    return comp.qfi("omega").value


def default_truncation(name: str, p: ModelParams, n_max: int,
                       n_max_b: int | None = None, sector: str = "positive"):
    """The natural truncation object for a variant."""
    if name == "full":
        return Truncation.for_spin(n_max, p.j, parity_sector=sector)
    if name.startswith("cs"):
        return FockCutoff(n_max, n_max_b if n_max_b is not None else n_max)
    return FockCutoff(n_max)
