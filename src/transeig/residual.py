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

from .fdcore import FdSolution, _potential_on_panels
from .quadrature import (GridFunction, PanelFn, cumulative_simpson,
                         weighted_cumulative)


@dataclass
class ResidualReport:
    """Sup norms of the residual per panel plus derived diagnostics."""

    kind: str
    rank: int
    norm1: float
    norm2: float
    combined: float
    log_value: float


@dataclass
class _Totals:
    """Running sums of a solution truncated at some rank.

    q1/q2 hold a smooth potential at the nodes and forcing1/forcing2 the
    summed right-hand sides of the recursion; all four are None for the
    singular interface weight.
    """

    rank: int
    lam: float
    u1: PanelFn
    u2: PanelFn
    du1: np.ndarray
    du2: np.ndarray
    forcing1: np.ndarray | None
    forcing2: np.ndarray | None
    q1: np.ndarray | None
    q2: np.ndarray | None


def _running_totals(sol: FdSolution):
    """Yield the totals at ranks 0..m, walking the corrections once.

    Every sum adds left to right from 0, as FdSolution does, so the totals
    at rank k are those of sol.truncate(k). q is evaluated once.
    """
    zero = sol.corrections[0]
    mesh1, mesh2 = zero.u1.mesh, zero.u2.mesh
    q1, q2 = _potential_on_panels(sol.problem.potential, mesh1, mesh2)
    smooth = q1 is not None
    lam = u1 = u2 = du1 = du2 = 0
    forcing1 = np.zeros_like(zero.u1.values) if smooth else None
    forcing2 = np.zeros_like(zero.u2.values) if smooth else None
    for k, c in enumerate(sol.corrections):
        lam = lam + c.lambda_j
        u1, u2 = u1 + c.u1.values, u2 + c.u2.values
        du1, du2 = du1 + c.du1.values, du2 + c.du2.values
        if smooth and k:
            forcing1, forcing2 = forcing1 + c.rhs1, forcing2 + c.rhs2
        yield _Totals(k, float(lam), PanelFn(mesh1, u1), PanelFn(mesh2, u2),
                      du1, du2, forcing1, forcing2, q1, q2)


def _finish(kind: str, rank: int, nu1: np.ndarray,
            nu2: np.ndarray) -> ResidualReport:
    norm1 = float(np.max(np.abs(nu1)))
    norm2 = float(np.max(np.abs(nu2)))
    combined = max(norm1, norm2)
    log_value = math.log(combined) if combined > 0.0 else -math.inf
    return ResidualReport(kind=kind, rank=rank, norm1=norm1, norm2=norm2,
                          combined=combined, log_value=log_value)


def _pointwise(sol: FdSolution, t: _Totals) -> ResidualReport:
    nl = sol.problem.nonlinearity
    lam0 = sol.lambda0
    out = []
    for panel, forcing, q_nodes in ((t.u1, t.forcing1, t.q1),
                                    (t.u2, t.forcing2, t.q2)):
        nu = (-lam0 * panel.values + forcing
              + (t.lam - q_nodes) * panel.values - nl(panel.values))
        out.append(nu)
    return _finish("pointwise", t.rank, out[0], out[1])


def _integrated(sol: FdSolution, t: _Totals) -> ResidualReport:
    nl = sol.problem.nonlinearity
    lam = t.lam
    parts = []
    for panel, q_nodes in ((t.u1, t.q1), (t.u2, t.q2)):
        h = panel.mesh.h
        if q_nodes is None:
            running = cumulative_simpson(lam * panel.values
                                         - nl(panel.values), h)
            running = running - weighted_cumulative(panel)
        else:
            running = cumulative_simpson((lam - q_nodes) * panel.values
                                         - nl(panel.values), h)
        parts.append(running)
    nu1 = t.du1 - t.du1[0] + parts[0]
    nu2 = nu1[-1] + t.du2 - t.du2[0] + parts[1]
    return _finish("integrated", t.rank, nu1, nu2)


def _form(sol: FdSolution):
    return _integrated if sol.problem.potential.is_singular else _pointwise


def _at_full_rank(sol: FdSolution, form) -> ResidualReport:
    for totals in _running_totals(sol):
        pass
    return form(sol, totals)


def pointwise_residual(sol: FdSolution) -> ResidualReport:
    """Residual of the truncated approximation evaluated on the mesh."""
    if sol.problem.potential.is_singular:
        raise ValueError("pointwise residual needs a potential that is "
                         "finite on each panel; use integrated_residual "
                         "for a singular interface weight")
    return _at_full_rank(sol, _pointwise)


def integrated_residual(sol: FdSolution) -> ResidualReport:
    """Once-antidifferentiated residual, valid for any integrable potential."""
    return _at_full_rank(sol, _integrated)


def residual_report(sol: FdSolution) -> ResidualReport:
    """Residual in the form appropriate for the potential's regularity."""
    return _at_full_rank(sol, _form(sol))


def residual_by_rank(sol: FdSolution) -> list[ResidualReport]:
    """Reports for every truncation rank 0..m of the solution, in one pass.

    q is evaluated at the nodes once, and row k equals
    residual_report(sol.truncate(k)).
    """
    form = _form(sol)
    return [form(sol, t) for t in _running_totals(sol)]


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
