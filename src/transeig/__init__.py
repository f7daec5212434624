"""Eigenvalue transmission problems on (0, 1) by a correction recursion.

The solver expands eigenvalue and eigenfunction in a series whose terms
are computed exactly up to quadrature: trigonometric zero approximations,
sine-kernel convolutions for the corrections, and a weighted rule for an
integrable interface singularity. Residual norms, convergence majorants,
and an independent shooting oracle close the loop.
"""

from .basis import (ZeroApproximation, ascending_branches, zero_eigenfunction,
                    zero_eigenvalue)
from .convergence import (ConvergenceReport, DecayReport, MajorantState, V0,
                          branch_constants, branch_point_radius,
                          convergence_ratio, convergence_report, decay_report,
                          estimate_radius_nonlinear, majorant_sequence,
                          radius_linear)
from .fdcore import (DEFAULT_MESH, Correction, FdError, FdSolution, adomian,
                     fd_solve)
from .model import (BranchId, ModelError, NonlinearitySpec, PotentialSpec,
                    TransmissionProblem, l1_norm, load_problem)
from .oracle import ShotResult, find_eigenvalue, shoot
from .quadrature import (GridFunction, PanelFn, PanelMesh, QuadratureError,
                         cumulative_simpson, kernel_convolution,
                         weighted_cumulative)
from .residual import (ResidualReport, count_interior_zeros, log_table,
                       residual_by_rank, residual_report)

__version__ = "0.1.0"

__all__ = [
    "BranchId", "ConvergenceReport", "Correction", "DecayReport",
    "DEFAULT_MESH", "FdError", "FdSolution", "GridFunction", "MajorantState",
    "ModelError", "NonlinearitySpec", "PanelFn", "PanelMesh",
    "PotentialSpec", "QuadratureError", "ResidualReport", "ShotResult",
    "TransmissionProblem", "V0", "ZeroApproximation", "adomian",
    "ascending_branches", "branch_constants", "branch_point_radius",
    "convergence_ratio", "convergence_report", "count_interior_zeros",
    "cumulative_simpson", "decay_report", "estimate_radius_nonlinear",
    "fd_solve", "find_eigenvalue", "kernel_convolution", "l1_norm",
    "load_problem", "log_table", "majorant_sequence", "radius_linear",
    "residual_by_rank", "residual_report", "shoot", "weighted_cumulative",
    "zero_eigenfunction", "zero_eigenvalue",
]
