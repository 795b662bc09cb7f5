"""Declarative parameter sweeps with deterministic CSV/JSON output.

A sweep evaluates the ground-state tensor of one model variant on a grid of
one parameter (the dimensionless coupling g, or any primary parameter) and
emits one row per grid point.  Rows are computed in chunks of consecutive
points -- a stack of the full model's band solve, else one point --
optionally by a pool of worker processes, and always emitted in grid order
with fixed float formatting.  The chunks come from the spec alone, so
identical specs produce byte-identical files regardless of the worker
count.  A failed grid point, or a chunk whose worker is lost, becomes
flagged rows, never an abort.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import families
from .effective import effective_form, form_param_derivative
from .model import PARAMETER_LABELS, ModelParams
from .spectra import bogoliubov_modes

_METHODS = ("sum", "solve", "fd")
_SPACINGS = ("linear", "log")

#: Grid points this close to g = 1 are skipped (flagged) by the fd method.
FD_EXCLUSION = 5e-3

#: Fisher informations below this are round-off of an exact zero; the
#: convergence scan compares changes against it instead of against zero.
QFI_ZERO_FLOOR = 1e-20

#: Largest relative change of I_omega_omega between two cutoffs that the
#: convergence scan and the ratio scan count as converged.
CONVERGENCE_RTOL = 1e-4

#: Distance from g = 1 of the two points that ``continuity_report`` compares.
STITCH_OFFSET = 1e-6

#: Row label of each tensor method.
_ROW_METHOD = {"sum_over_states": "sum", "linear_solve": "solve", "finite_difference": "fd",
               "gaussian": "gaussian"}

CSV_COLUMNS = (
    "g", "gamma", "eta", "j", "n_max", "model", "method",
    "G_omega_omega", "G_theta_theta", "ReQ_theta_omega", "F_theta_omega",
    "I_omega_omega", "energy", "gap", "converged", "branch",
)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce one sweep."""

    model: str
    param: str = "g"
    start: float = 0.5
    stop: float = 0.95
    points: int = 10
    spacing: str = "linear"
    method: str | None = None
    g: float = 0.5
    gamma: float = 1.0
    eta: float = 1.0
    omega: float = 1.0
    theta: float = 0.0
    j: float = 5.0
    n_max: int = 40
    n_max_b: int | None = None
    sector: str = "positive"
    labels: tuple[str, ...] = ("theta", "omega")
    out: str | None = None
    workers: int = 1

    def validate(self) -> None:
        if self.model not in families.MODEL_CHOICES:
            raise ValueError(f"unknown model {self.model!r}")
        if self.param != "g" and self.param not in PARAMETER_LABELS:
            raise ValueError(f"sweep parameter must be 'g' or one of {PARAMETER_LABELS}")
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 grid points")
        if self.spacing not in _SPACINGS:
            raise ValueError(f"spacing must be one of {_SPACINGS}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log spacing needs positive endpoints")
        if self.method is not None and self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.n_max < 1 or (self.n_max_b is not None and self.n_max_b < 1):
            raise ValueError("the cutoffs n_max and n_max_b must be at least 1")
        if not set(self.labels) <= set(PARAMETER_LABELS):
            raise ValueError(f"tensor labels must be a subset of {PARAMETER_LABELS}")
        if not {"theta", "omega"} <= set(self.labels):
            raise ValueError("the row schema needs 'theta' and 'omega' in the tensor labels")
        self.base_params()  # validates the fixed parameters

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    def base_params(self) -> ModelParams:
        return ModelParams.from_ratios(self.g, gamma=self.gamma, eta=self.eta,
                                       omega=self.omega, theta=self.theta, j=self.j)

    def point_params(self, value: float) -> ModelParams:
        if self.param == "g":
            return ModelParams.from_ratios(value, gamma=self.gamma, eta=self.eta,
                                           omega=self.omega, theta=self.theta, j=self.j)
        return dataclasses.replace(self.base_params(), **{self.param: value})


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; NaN columns mean the point was not computed."""

    g: float
    gamma: float
    eta: float
    j: float
    n_max: int
    model: str
    method: str
    G_omega_omega: float = math.nan
    G_theta_theta: float = math.nan
    ReQ_theta_omega: float = math.nan
    F_theta_omega: float = math.nan
    I_omega_omega: float = math.nan
    energy: float = math.nan
    gap: float = math.nan
    converged: bool = True
    branch: str = ""


def _branch_label(concrete: str) -> str:
    return concrete.split("_")[1] if "_" in concrete else ""


def evaluate_point(spec: SweepSpec, value: float) -> SweepRow:
    """Evaluate one grid point; never raises, failures come back flagged.

    With no method set, an effective model's row is exact: the Gaussian
    route of ``families.qgt_components`` runs with no cutoff, and the row's
    ``n_max`` only echoes the spec.
    """
    return _row(spec, value, lambda concrete, p, trunc: families.qgt_components(
        concrete, p, trunc, labels=spec.labels, method=spec.method))


def _row(spec: SweepSpec, value: float, tensor) -> SweepRow:
    """The row of one grid point whose tensor ``tensor(concrete, p, trunc)``
    returns; whatever raises on the way comes back as a flagged row."""
    method, branch = spec.method or "", ""
    try:
        p = spec.point_params(value)
        concrete = families.resolve_branch(spec.model, p.g)
        branch = _branch_label(concrete)
        if spec.method is None and concrete != "full":
            method, trunc = "gaussian", None
        else:
            trunc = families.default_truncation(concrete, p, spec.n_max, spec.n_max_b,
                                                sector=spec.sector)
        if spec.method == "fd" and abs(p.g - 1.0) < FD_EXCLUSION:
            return SweepRow(g=p.g, gamma=p.gamma, eta=p.eta, j=p.j, n_max=spec.n_max,
                            model=spec.model, method="fd", converged=False,
                            branch=_branch_label(concrete))
        comp = tensor(concrete, p, trunc)
        gmat = comp.metric()
        fmat = comp.berry()
        i_t = comp.index("theta")
        i_w = comp.index("omega")
        if concrete == "full" or trunc is None:
            gap = comp.gap
        else:
            # the truncated matrix's gap depends on the cutoff; the form's does not
            modes = bogoliubov_modes(effective_form(concrete, p))
            gap = modes.gap if modes.stable else math.nan
        g_ww = float(gmat[i_w, i_w])
        return SweepRow(
            g=p.g, gamma=p.gamma, eta=p.eta, j=p.j, n_max=spec.n_max,
            model=spec.model, method=_ROW_METHOD[comp.method],
            G_omega_omega=g_ww,
            G_theta_theta=float(gmat[i_t, i_t]),
            ReQ_theta_omega=float(comp.q[i_t, i_w].real),
            F_theta_omega=float(fmat[i_t, i_w]),
            I_omega_omega=4.0 * g_ww,
            energy=comp.energy, gap=gap, branch=_branch_label(concrete))
    except Exception:
        try:
            p = spec.point_params(value)
            g_val, gamma_val, eta_val, j_val = p.g, p.gamma, p.eta, p.j
        except Exception:
            g_val = value if spec.param == "g" else math.nan
            gamma_val, eta_val, j_val = spec.gamma, spec.eta, spec.j
        return SweepRow(g=g_val, gamma=gamma_val, eta=eta_val, j=j_val,
                        n_max=spec.n_max, model=spec.model,
                        method=method, converged=False, branch=branch)


def _given(result):
    """A ``tensor`` for ``_row`` that returns ``result``, or raises it when
    it is an exception."""
    def tensor(*_):
        if isinstance(result, Exception):
            raise result
        return result
    return tensor


def _stack_truncation(spec: SweepSpec):
    """The truncation every point of a full-model sweep shares (j is fixed),
    or None for an effective model or a truncation that cannot be built,
    whose points then fail alone, as ``evaluate_point`` flags them."""
    if spec.model != "full":
        return None
    try:
        return families.default_truncation("full", spec.base_params(), spec.n_max,
                                           sector=spec.sector)
    except Exception:
        return None


def _chunk_rows(spec: SweepSpec, values: list[float]) -> list[SweepRow]:
    """The rows of one chunk: its points as one ``families.qgt_stack`` call,
    a single point by ``evaluate_point``; never raises."""
    if len(values) == 1:
        return [evaluate_point(spec, values[0])]
    points = []
    for value in values:
        try:
            points.append(spec.point_params(value))
        except Exception as exc:  # _row flags this point before it asks for a tensor
            points.append(exc)
    valid = [p for p in points if not isinstance(p, Exception)]
    try:
        results = families.qgt_stack("full", valid, _stack_truncation(spec),
                                     labels=spec.labels, method=spec.method)
    except Exception as exc:  # a stack that fails as a whole flags each of its rows
        results = [exc] * len(valid)
    results = iter(results)
    return [_row(spec, value, _given(p if isinstance(p, Exception) else next(results)))
            for value, p in zip(values, points)]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """All grid points, in grid order, regardless of how they were scheduled.

    The grid is cut into chunks of consecutive points, each a whole stack
    of the full model's band solve (``families.stack_size``) or one point
    on every other route.  The cut follows from the spec alone, never from
    the worker count, so each row comes out of the same computation, and
    the CSV bytes are the same, with any number of workers.  A pool gets
    whole chunks; a chunk whose worker is lost, or whose evaluation
    raises, comes back as flagged rows, and every other chunk keeps its
    values.
    """
    spec.validate()
    values = [float(v) for v in spec.grid()]
    size = families.stack_size(spec.model, _stack_truncation(spec), spec.method)
    chunks = [values[start:start + size] for start in range(0, len(values), size)]
    if spec.workers == 1:
        return [row for chunk in chunks for row in _chunk_rows(spec, chunk)]
    from concurrent.futures import ProcessPoolExecutor
    rows = []
    with ProcessPoolExecutor(max_workers=spec.workers) as pool:
        futures = []
        for chunk in chunks:
            try:
                futures.append(pool.submit(_chunk_rows, spec, chunk))
            except Exception as exc:  # a pool broken before this chunk was sent
                futures.append(exc)
        for chunk, future in zip(chunks, futures):
            try:
                if isinstance(future, Exception):
                    raise future
                rows += future.result()
            except Exception as exc:
                rows += [_row(spec, value, _given(exc)) for value in chunk]
    return rows


def continuity_report(spec: SweepSpec) -> str:
    """Ground energies of both phases just off g = 1, for stitch diagnostics."""
    if spec.model not in families.AUTO_MODELS:
        raise ValueError("continuity reporting applies to the auto variants")
    if spec.param != "g":
        raise ValueError("continuity reporting applies to sweeps over g")
    below = spec.point_params(1.0 - STITCH_OFFSET)
    above = spec.point_params(1.0 + STITCH_OFFSET)
    lo = bogoliubov_modes(effective_form(families.resolve_branch(spec.model, below.g), below))
    hi = bogoliubov_modes(effective_form(families.resolve_branch(spec.model, above.g), above))
    return (f"branch stitch at g=1: E(1-{STITCH_OFFSET:g}) = {lo.ground_energy:.9g}, "
            f"E(1+{STITCH_OFFSET:g}) = {hi.ground_energy:.9g}, "
            f"gaps {lo.gap:.3e} / {hi.gap:.3e}")


# ---------------------------------------------------------------------------
# serialization


def csv_cell(value) -> str:
    """One cell of every table the package writes: a float at full precision,
    a flag as true or false, an integer or a string as it is, and nothing
    for a missing value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17e")


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(csv_cell(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(rows_to_csv(rows))


def write_json(rows: list[SweepRow], path: str) -> None:
    import json  # only this writer needs it

    payload = [{col: getattr(row, col) for col in CSV_COLUMNS} for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=1, allow_nan=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# derived studies


@dataclass(frozen=True)
class GammaComparison:
    """Fisher information of omega per coupling ratio at fixed g."""

    g: float
    model: str
    entries: tuple[tuple[float, float], ...]  # (gamma, I_omega_omega), NaN where flagged
    strictly_increasing: bool | None  # over the finite entries; None with fewer than two
    reciprocal_asymmetry: float  # max |I(gamma) - I(1/gamma)| over finite pairs; NaN if none


def gamma_comparison(g: float, gammas, model: str, *, eta: float = 1.0,
                     omega: float = 1.0, theta: float = 0.0, j: float = 5.0,
                     n_max: int = 40, n_max_b: int | None = None,
                     sector: str = "positive", method: str | None = None) -> GammaComparison:
    """I_omega_omega per coupling ratio; the coupling sum is pinned by g.

    Each entry is ``evaluate_point`` at g on one spec per ratio, so an
    effective model with no method set is evaluated exactly, with no cutoff
    (``n_max`` and ``n_max_b`` then apply only to the full model or to an
    explicit method), and a point that fails comes back NaN and flagged
    instead of raising.  An invalid spec or ratio raises ``ValueError``.
    The summaries cover the finite entries: ``strictly_increasing`` is None
    with fewer than two of them, and ``reciprocal_asymmetry`` NaN when no
    ratio meets its reciprocal among them (gamma = 1, its own reciprocal,
    makes no pair).
    """
    base = SweepSpec(model=model, g=g, eta=eta, omega=omega, theta=theta, j=j,
                     n_max=n_max, n_max_b=n_max_b, sector=sector, method=method)
    specs = [dataclasses.replace(base, gamma=float(gamma)) for gamma in gammas]
    for spec in (base, *specs):
        spec.validate()
    entries = [(spec.gamma, evaluate_point(spec, g).I_omega_omega) for spec in specs]
    finite = [(gamma, value) for gamma, value in entries if math.isfinite(value)]
    # a summary over fewer than two finite values would be vacuous: it is undefined
    increasing = (all(b > a for (_, a), (_, b) in zip(finite, finite[1:]))
                  if len(finite) >= 2 else None)
    gaps = [abs(value - other_value) for gamma, value in finite for other, other_value in finite
            if other != gamma and math.isclose(other, 1.0 / gamma, rel_tol=1e-9)]
    asym = max(gaps, default=math.nan)
    return GammaComparison(g=g, model=model, entries=tuple(entries),
                           strictly_increasing=increasing, reciprocal_asymmetry=asym)


@dataclass(frozen=True)
class RatioRow:
    """Finite-size over effective-limit Fisher information for one triple."""

    j: float
    gamma: float
    eta: float
    qfi_lab: float
    qfi_eff: float
    ratio: float
    converged: bool


def ratio_scan(j_list, gamma_list, eta_list, g: float, *, omega: float = 1.0,
               theta: float = 0.0, n_max: int = 60, check_step: int = 20,
               eff_model: str = "co_np", eff_n_max: int = 60,
               method: str | None = "solve") -> list[RatioRow]:
    """Full-model QFI against the matching effective limit over (j, gamma, eta).

    Each full-model value is recomputed at an enlarged cutoff; the row is
    flagged unconverged when the relative change exceeds CONVERGENCE_RTOL.
    A row whose effective value is zero (below QFI_ZERO_FLOOR) gets a NaN
    ratio and is flagged as well.

    Above the transition (g > 1) every row is flagged.  The default
    ``co_np`` form has no stable ground state there: its quadratic form is
    not bounded below, so a truncated matrix still has a lowest state, but
    that state and its Fisher information depend on the cutoff and describe
    nothing.  Whenever the effective form is unstable or gapless (by its
    symplectic normal modes) the effective value and the ratio are NaN
    instead: at g = 1 the ``co_np`` form is stable with gap 0, and a
    truncated value there grows with the cutoff.  The
    superradiant forms are stable there but drop the mean-field
    displacement that the full model keeps, so they measure a different
    quantity and their rows stay flagged too.

    The full-model points of one j share each cutoff's truncation of the
    positive parity sector, the ground state's, so each cutoff solves them
    as stacks (``families.qgt_stack``, within spectra.STACK_LIMIT).  A point
    that fails at either cutoff gets a NaN ``qfi_lab`` and ratio and is
    flagged.  Rows whose effective forms differ only in their constant share
    one truncated effective value, computed once per call.
    """
    rows = []
    effective_values = {}  # local to the call: the value of each distinct form
    grid = [(float(gamma), float(eta)) for gamma in gamma_list for eta in eta_list]
    for j in j_list if grid else ():
        points = [ModelParams.from_ratios(g, gamma=gamma, eta=eta, omega=omega, theta=theta,
                                          j=j) for gamma, eta in grid]
        # stacks per cutoff: every (gamma, eta) point of this j shares the truncation
        lab, lab_check = (
            families.qgt_stack("full", points, families.default_truncation(
                "full", points[0], cutoff), labels=("omega",), method=method)
            for cutoff in (n_max, n_max + check_step))
        for p, (gamma, eta), small, large in zip(points, grid, lab, lab_check):
            # a point that failed at either cutoff has no value: flag its row, do not abort
            if isinstance(small, Exception) or isinstance(large, Exception):
                qfi_small = qfi_large = math.nan
            else:
                qfi_small, qfi_large = small.qfi("omega").value, large.qfi("omega").value
            converged = (abs(qfi_large - qfi_small)
                         <= CONVERGENCE_RTOL * max(abs(qfi_small), QFI_ZERO_FLOOR))
            eff = math.nan
            form = effective_form(eff_model, p)
            modes = bogoliubov_modes(form)
            if modes.stable and modes.gap > 0.0:  # a gapless form has no finite value
                # the value depends on the form and its derivative up to their
                # constants, which shift the spectrum and leave the state alone
                key = (dataclasses.replace(form, const=0.0), dataclasses.replace(
                    form_param_derivative(eff_model, p, "omega"), const=0.0))
                if key not in effective_values:
                    eff_trunc = families.default_truncation(eff_model, p, eff_n_max)
                    effective_values[key] = families.qfi_omega(eff_model, p, eff_trunc)
                eff = effective_values[key]
            # a vanishing or missing effective value has no ratio; flag the row, do not abort
            has_ratio = abs(eff) > QFI_ZERO_FLOOR
            rows.append(RatioRow(j=float(j), gamma=gamma, eta=eta,
                                 qfi_lab=qfi_large, qfi_eff=eff,
                                 ratio=qfi_large / eff if has_ratio else math.nan,
                                 converged=converged and has_ratio and g <= 1.0))
    return rows


def peak_locate(rows: list[SweepRow]) -> float:
    """Parabolic refinement of the interior maximum of I_omega_omega over g."""
    usable = [(row.g, row.I_omega_omega) for row in rows
              if math.isfinite(row.I_omega_omega)]
    if len(usable) < 3:
        raise ValueError("need at least three finite rows to locate a peak")
    xs = np.array([u[0] for u in usable])
    ys = np.array([u[1] for u in usable])
    k = int(np.argmax(ys))
    if k == 0 or k == len(ys) - 1:
        raise ValueError("maximum sits at the grid edge; widen the sweep grid")
    x0, x1, x2 = xs[k - 1], xs[k], xs[k + 1]
    y0, y1, y2 = ys[k - 1], ys[k], ys[k + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a >= 0:
        raise ValueError("the three top points do not bracket a maximum")
    return float(-b / (2 * a))


@dataclass(frozen=True)
class ConvergencePoint:
    """Cutoff study of I_omega_omega at one grid point."""

    value: float
    cutoffs: tuple[int, ...]
    qfi: tuple[float, ...]
    rel_changes: tuple[float, ...]
    converged: bool
    converged_at: int | None


def convergence_scan(spec: SweepSpec, n_max_list) -> list[ConvergencePoint]:
    """Relative change of I_omega_omega between successive cutoffs, per point.

    A point converges at the first cutoff whose change is below
    CONVERGENCE_RTOL.  Each cutoff is one ``run_sweep``, so the full model's
    points are solved in stacks.  The rows of an effective model with no
    method set are exact (``evaluate_point``), so they agree at every cutoff
    and converge at the second one by construction.
    """
    cutoffs = sorted(int(n) for n in n_max_list)
    if len(cutoffs) < 2:
        raise ValueError("a convergence scan needs at least two cutoffs")
    spec.validate()
    per_cutoff = []
    for cutoff in cutoffs:
        scan_spec = dataclasses.replace(
            spec, n_max=cutoff,
            n_max_b=cutoff if spec.model.startswith(("cs", "auto_cs")) else spec.n_max_b)
        per_cutoff.append(run_sweep(scan_spec))
    points = []
    for idx, value in enumerate(spec.grid()):
        series = [rows[idx].I_omega_omega for rows in per_cutoff]
        changes = []
        converged_at = None
        for prev, curr, cutoff in zip(series, series[1:], cutoffs[1:]):
            if math.isfinite(prev) and math.isfinite(curr):
                change = abs(curr - prev) / max(abs(curr), QFI_ZERO_FLOOR)
            else:
                change = math.inf
            changes.append(change)
            if converged_at is None and change < CONVERGENCE_RTOL:
                converged_at = cutoff
        points.append(ConvergencePoint(value=float(value), cutoffs=tuple(cutoffs),
                                       qfi=tuple(series), rel_changes=tuple(changes),
                                       converged=converged_at is not None,
                                       converged_at=converged_at))
    return points
