"""Workloads of the adicke benchmark: inputs, one timed pass, output checks.

Every workload is deterministic.  The seed only picks one offset of at most
MAX_SHIFT that moves every coupling g of the workload; seed 0 keeps the grids
exactly as written.  A pass makes the workload's library calls once and
returns what they produced; ``check`` then compares that output with the
library's own oracles and, at seed 0, with the stored reference values.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from adicke import families, sweep
from adicke.effective import effective_form
from adicke.model import ModelParams
from adicke.spectra import bogoliubov_modes
from adicke.sweep import SweepSpec

GAMMA, ETA, J = 2.0, 1.0, 10.0
MAX_SHIFT = 0.005

FULL_GRID = dict(start=0.5, stop=0.99, points=5)
FULL_CUTOFFS = (60, 100)
RATIO_INPUTS = dict(j_list=(5, 10), gamma_list=(1, 2), eta_list=(2, 5, 10, 20), g=0.99)
CS_GRID = dict(start=0.6, stop=1.4, points=2)
CS_CUTOFFS = (40, 80)

#: Relative agreement of I_omega_omega between a workload's two cutoffs.
FULL_CUTOFF_RTOL = 1e-9
CS_CUTOFF_RTOL = 1e-6
#: |matrix ground energy - symplectic ground energy| per unit energy scale.
ENERGY_TOL = 1e-9
#: Agreement with the stored seed-0 values.
REFERENCE_RTOL = 1e-7
REFERENCE_ATOL = 1e-12

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def g_shift(seed: int) -> float:
    if seed == 0:
        return 0.0
    return random.Random(seed).uniform(-MAX_SHIFT, MAX_SHIFT)


def _shifted_grid(grid: dict, shift: float) -> dict:
    moved = dict(grid, start=grid["start"] + shift, stop=grid["stop"] + shift)
    for before, after in ((grid["start"], moved["start"]), (grid["stop"], moved["stop"])):
        if (before - 1.0) * (after - 1.0) <= 0.0:
            raise ValueError(f"shift {shift} moves g = {before} across the transition")
    return moved


def full_spec(shift: float) -> SweepSpec:
    return SweepSpec(model="full", gamma=GAMMA, eta=ETA, j=J, **_shifted_grid(FULL_GRID, shift))


def cs_spec(shift: float, n_max: int, workers: int) -> SweepSpec:
    return SweepSpec(model="auto_cs", gamma=GAMMA, eta=ETA, j=J, n_max=n_max, n_max_b=n_max,
                     workers=workers, **_shifted_grid(CS_GRID, shift))


# ---------------------------------------------------------------------------
# one pass per workload


def full_scan_pass(shift: float, out_dir: str):
    return sweep.convergence_scan(full_spec(shift), FULL_CUTOFFS)


def ratio_scan_pass(shift: float, out_dir: str):
    inputs = dict(RATIO_INPUTS, g=RATIO_INPUTS["g"] + shift)
    return sweep.ratio_scan(inputs["j_list"], inputs["gamma_list"], inputs["eta_list"],
                            inputs["g"], n_max=60, check_step=20, method="solve")


def _cs_pass(shift: float, out_dir: str, workers: int) -> dict[int, str]:
    paths = {}
    for n_max in CS_CUTOFFS:
        rows = sweep.run_sweep(cs_spec(shift, n_max, workers))
        paths[n_max] = os.path.join(out_dir, f"cs_n{n_max}.csv")
        sweep.write_csv(rows, paths[n_max])
    return paths


def cs_sweep_pass(shift: float, out_dir: str):
    return _cs_pass(shift, out_dir, workers=1)


def cs_sweep_pool_pass(shift: float, out_dir: str):
    return _cs_pass(shift, out_dir, workers=2)


# ---------------------------------------------------------------------------
# checks: each returns (rows attempted, one reason per failed row)


def _close(a: float, b: float, rtol: float = REFERENCE_RTOL,
           atol: float = REFERENCE_ATOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _rel_change(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_full_scan(points, shift: float, reference) -> tuple[int, list[str]]:
    grid = [float(v) for v in full_spec(shift).grid()]
    attempted = len(grid) * len(FULL_CUTOFFS)
    if [point.value for point in points] != grid or any(
            tuple(point.cutoffs) != FULL_CUTOFFS for point in points):
        return attempted, [f"{len(points)} points do not match the {len(grid)}-point grid "
                           f"at cutoffs {FULL_CUTOFFS}"] * attempted
    failures = []
    for k, point in enumerate(points):
        reasons = []
        if not all(math.isfinite(v) for v in point.qfi):
            reasons.append("non-finite I_omega_omega")
        elif not point.converged:
            reasons.append("flagged unconverged by the convergence scan")
        elif max(point.rel_changes) > FULL_CUTOFF_RTOL:
            reasons.append(f"cutoffs disagree by {max(point.rel_changes):.2e}")
        for c, value in enumerate(point.qfi):
            row_reasons = list(reasons)
            if reference is not None and not _close(value, reference[k][c]):
                row_reasons.append(f"I_omega_omega {value!r} != reference {reference[k][c]!r}")
            if row_reasons:
                failures.append(f"g={point.value:.6g} n_max={point.cutoffs[c]}: "
                                + "; ".join(row_reasons))
    return attempted, failures


def full_scan_values(points) -> list[list[float]]:
    return [list(point.qfi) for point in points]


def check_ratio_scan(rows, shift: float, reference) -> tuple[int, list[str]]:
    keys = list(itertools.product(*(map(float, RATIO_INPUTS[name])
                                    for name in ("j_list", "gamma_list", "eta_list"))))
    if [(row.j, row.gamma, row.eta) for row in rows] != keys:
        return len(keys), [f"{len(rows)} rows do not match the {len(keys)} "
                           "(j, gamma, eta) inputs"] * len(keys)
    failures = []
    for k, row in enumerate(rows):
        reasons = []
        if not row.converged:
            reasons.append("unconverged at the check cutoff")
        if not all(math.isfinite(v) for v in (row.qfi_lab, row.qfi_eff, row.ratio)):
            reasons.append("non-finite value")
        if reference is not None:
            for name, value, ref in zip(("qfi_lab", "qfi_eff", "ratio"),
                                        ratio_scan_values([row])[0], reference[k]):
                if not _close(value, ref):
                    reasons.append(f"{name} {value!r} != reference {ref!r}")
        if reasons:
            failures.append(f"j={row.j:g} gamma={row.gamma:g} eta={row.eta:g}: "
                            + "; ".join(reasons))
    return len(keys), failures


def ratio_scan_values(rows) -> list[list[float]]:
    return [[row.qfi_lab, row.qfi_eff, row.ratio] for row in rows]


_CS_NUMERIC = ("G_omega_omega", "G_theta_theta", "ReQ_theta_omega", "F_theta_omega",
               "I_omega_omega", "energy", "gap")


def _read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def read_texts(paths: dict[int, str]) -> dict[int, str]:
    texts = {}
    for n_max, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            texts[n_max] = handle.read()
    return texts


def check_cs_sweep(paths: dict[int, str], shift: float, reference) -> tuple[int, list[str]]:
    tables = {n: _read_rows(text) for n, text in read_texts(paths).items()}
    grid = [float(v) for v in cs_spec(shift, CS_CUTOFFS[0], 1).grid()]
    attempted = 0
    failures = []
    for n_max, rows in tables.items():
        if len(rows) != len(grid):
            attempted += len(grid)
            reason = f"n_max={n_max}: {len(rows)} rows for {len(grid)} grid points"
            failures += [reason] * len(grid)
            continue
        ref_rows = _read_rows(reference[str(n_max)]) if reference is not None else None
        for k, (g, row) in enumerate(zip(grid, rows)):
            attempted += 1
            reasons = []
            values = {col: float(row[col]) for col in _CS_NUMERIC}
            if row["converged"] != "true":
                reasons.append("row flagged unconverged")
            if not all(math.isfinite(v) for v in values.values()):
                reasons.append("non-finite value")
            if values["I_omega_omega"] != 4.0 * values["G_omega_omega"]:
                reasons.append("I_omega_omega != 4 G_omega_omega")
            p = ModelParams.from_ratios(g, gamma=GAMMA, eta=ETA, j=J)
            modes = bogoliubov_modes(effective_form(families.resolve_branch("auto_cs", g), p))
            if not abs(values["energy"] - modes.ground_energy) <= (
                    ENERGY_TOL * max(1.0, abs(modes.ground_energy))):
                reasons.append(f"energy {values['energy']!r} != symplectic "
                               f"{modes.ground_energy!r}")
            other = tables[CS_CUTOFFS[0] if n_max != CS_CUTOFFS[0] else CS_CUTOFFS[1]]
            if len(other) == len(grid):
                change = _rel_change(values["I_omega_omega"], float(other[k]["I_omega_omega"]))
                if not change <= CS_CUTOFF_RTOL:
                    reasons.append(f"cutoffs disagree by {change:.2e}")
            if ref_rows is not None:
                for col in _CS_NUMERIC:
                    if not _close(values[col], float(ref_rows[k][col])):
                        reasons.append(f"{col} {values[col]!r} != reference {ref_rows[k][col]}")
            if reasons:
                failures.append(f"g={g:.6g} n_max={n_max}: " + "; ".join(reasons))
    return attempted, failures


def cs_sweep_values(paths: dict[int, str]) -> dict[str, str]:
    return {str(n): text for n, text in read_texts(paths).items()}


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    run: Callable[[float, str], object]  # (g shift, output directory) -> output
    check: Callable[[object, float, object], tuple[int, list[str]]]  # (output, shift, ref)
    values: Callable[[object], object]  # output -> what reference.json stores
    reference_key: str


WORKLOADS = {w.name: w for w in (
    Workload("full_scan", 1, full_scan_pass, check_full_scan, full_scan_values, "full_scan"),
    Workload("ratio_scan", 1, ratio_scan_pass, check_ratio_scan, ratio_scan_values,
             "ratio_scan"),
    Workload("cs_sweep", 1, cs_sweep_pass, check_cs_sweep, cs_sweep_values, "cs_sweep"),
    # Same inputs on a 2-worker pool; selectable by name, not listed in BENCHMARK.json.
    Workload("cs_sweep_pool", 2, cs_sweep_pool_pass, check_cs_sweep, cs_sweep_values,
             "cs_sweep"),
)}


def reference_for(workload: Workload, seed: int):
    """Stored seed-0 values of a workload, or None at any other seed."""
    if seed != 0:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload.reference_key]
