"""A-posteriori validation: residual norms, log tables, zero counting.

The truncated approximation is substituted back into the equation. For
smooth potentials the second derivative comes from the recursion's own
right-hand sides, so no numerical differentiation enters. For potentials
that are merely integrable the once-antidifferentiated residual is used
instead; its q-part goes through the same weighted quadrature as the
solver itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fdcore import FdSolution
from .quadrature import GridFunction, cumulative_simpson, weighted_cumulative


@dataclass
class ResidualReport:
    """Sup norms of the residual per panel plus derived diagnostics."""

    kind: str
    rank: int
    norm1: float
    norm2: float
    combined: float
    log_value: float


def _finish(kind: str, sol: FdSolution, nu1: np.ndarray,
            nu2: np.ndarray) -> ResidualReport:
    norm1 = float(np.max(np.abs(nu1)))
    norm2 = float(np.max(np.abs(nu2)))
    combined = max(norm1, norm2)
    log_value = math.log(combined) if combined > 0.0 else -math.inf
    return ResidualReport(kind=kind, rank=sol.rank, norm1=norm1, norm2=norm2,
                          combined=combined, log_value=log_value)


def pointwise_residual(sol: FdSolution) -> ResidualReport:
    """Residual of the truncated approximation evaluated on the mesh."""
    q = sol.problem.potential
    if q.is_singular:
        raise ValueError("pointwise residual needs a potential that is "
                         "finite on each panel; use integrated_residual "
                         "for a singular interface weight")
    nl = sol.problem.nonlinearity
    lam = sol.lambda_total
    lam0 = sol.lambda0
    u = sol.u_total()
    out = []
    for panel, attr in ((u.left, "rhs1"), (u.right, "rhs2")):
        forcing = np.zeros_like(panel.values)
        for c in sol.corrections[1:]:
            forcing = forcing + getattr(c, attr)
        qx = np.asarray(q(panel.mesh.nodes), dtype=float)
        nu = (-lam0 * panel.values + forcing
              + (lam - qx) * panel.values - nl(panel.values))
        out.append(nu)
    return _finish("pointwise", sol, out[0], out[1])


def integrated_residual(sol: FdSolution) -> ResidualReport:
    """Once-antidifferentiated residual, valid for any integrable potential."""
    q = sol.problem.potential
    nl = sol.problem.nonlinearity
    lam = sol.lambda_total
    u = sol.u_total()
    du1, du2 = sol.du_total()
    parts = []
    for panel in (u.left, u.right):
        h = panel.mesh.h
        if q.is_singular:
            running = cumulative_simpson(lam * panel.values
                                         - nl(panel.values), h)
            running = running - weighted_cumulative(panel)
        else:
            qx = np.asarray(q(panel.mesh.nodes), dtype=float)
            running = cumulative_simpson((lam - qx) * panel.values
                                         - nl(panel.values), h)
        parts.append(running)
    nu1 = du1.values - du1.values[0] + parts[0]
    nu2 = nu1[-1] + du2.values - du2.values[0] + parts[1]
    return _finish("integrated", sol, nu1, nu2)


def residual_report(sol: FdSolution) -> ResidualReport:
    """Residual in the form appropriate for the potential's regularity."""
    if sol.problem.potential.is_singular:
        return integrated_residual(sol)
    return pointwise_residual(sol)


def residual_by_rank(sol: FdSolution) -> list[ResidualReport]:
    """Reports for every truncation rank 0..m of the solution."""
    return [residual_report(sol.truncate(k)) for k in range(sol.rank + 1)]


def count_interior_zeros(u: GridFunction, tol: float | None = None) -> int:
    """Sign changes of u strictly inside (0, 1).

    Samples near-zero plateaus below tol (default 1e-6 of the sup norm) are
    ignored so that roundoff around a genuine zero is not double counted.
    The interface node enters once, through the left panel; continuity
    makes the one-sided values agree.
    """
    sup = u.sup_norm
    if sup == 0.0:
        return 0
    if tol is None:
        tol = 1e-6 * sup
    samples = np.concatenate([u.left.values[1:], u.right.values[1:-1]])
    kept = samples[np.abs(samples) >= tol]
    if kept.size < 2:
        return 0
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0.0))


def log_table(reports: dict) -> tuple[np.ndarray, list[int], list[int]]:
    """Matrix of log residual norms keyed by (eigenvalue index, rank).

    reports maps (n, m) to a ResidualReport or a bare norm. Returns the
    matrix with one row per rank and one column per index, plus the sorted
    index and rank labels.
    """
    values = {}
    for (n, m), entry in reports.items():
        norm = entry.combined if isinstance(entry, ResidualReport) else float(entry)
        values[int(n), int(m)] = norm
    ns = sorted({n for n, _ in values})
    ms = sorted({m for _, m in values})
    mat = np.full((len(ms), len(ns)), np.nan)
    for (n, m), norm in values.items():
        mat[ms.index(m), ns.index(n)] = (math.log(norm) if norm > 0.0
                                         else -math.inf)
    return mat, ns, ms
