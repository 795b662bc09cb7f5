"""Quantum geometry and Fisher information of the anisotropic Dicke model."""

from .effective import (DisplacementSolution, FockCutoff, QuadraticBosonForm,
                        displacement_solution, effective_form, form_matrix)
from .errors import ConvergenceError, DegeneracyError, StencilError, TruncationError
from .families import MODEL_CHOICES, qfi_omega, qgt_components, qgt_stack, resolve_branch
from .geometry import (QFIValue, QGTComponents, berry, metric, qfi,
                       qgt_finite_difference)
from .model import (ModelParams, Truncation, full_hamiltonian, param_derivative,
                    project_parity)
from .spectra import (Eigensystem, NormalModes, bogoliubov_modes,
                      dense_eigensystem, gauge_fix, lowest_k)
from .squeezed import (SqueezeParams, berry_curvature_np, berry_curvature_sp,
                       squeeze_params, squeezed_state_vector)
from .sweep import (SweepRow, SweepSpec, convergence_scan, gamma_comparison,
                    peak_locate, ratio_scan, run_sweep, rows_to_csv, write_csv,
                    write_json)

__all__ = [
    "ConvergenceError", "DegeneracyError", "StencilError", "TruncationError",
    "ModelParams", "Truncation",
    "full_hamiltonian", "project_parity", "param_derivative",
    "FockCutoff", "QuadraticBosonForm", "DisplacementSolution",
    "displacement_solution", "effective_form", "form_matrix",
    "Eigensystem", "NormalModes", "dense_eigensystem", "lowest_k", "gauge_fix",
    "bogoliubov_modes",
    "QGTComponents", "QFIValue", "qgt_finite_difference", "metric", "berry", "qfi",
    "SqueezeParams", "squeeze_params", "squeezed_state_vector",
    "berry_curvature_np", "berry_curvature_sp",
    "MODEL_CHOICES", "resolve_branch", "qgt_components", "qgt_stack", "qfi_omega",
    "SweepSpec", "SweepRow", "run_sweep", "gamma_comparison", "ratio_scan",
    "peak_locate", "convergence_scan", "rows_to_csv", "write_csv", "write_json",
]
