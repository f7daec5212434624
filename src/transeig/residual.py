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

from .fdcore import FdSolution, _panel_nodes, _potential_on_panels, _rows
from .quadrature import (GridFunction, PanelMesh, cumulative_simpson,
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

    u, du and forcing are panel arrays. q holds a smooth potential at the
    nodes and forcing the summed right-hand sides of the recursion; both
    are None for the singular interface weight.
    """

    rank: int
    lam: float
    u: np.ndarray
    du: np.ndarray
    forcing: np.ndarray | None
    q: np.ndarray | None


def _running_totals(sol: FdSolution):
    """Yield the totals at ranks 0..m, walking the corrections once.

    Every sum adds left to right from 0, as FdSolution does, so the totals
    at rank k are those of sol.truncate(k). q is evaluated once.
    """
    q = _potential_on_panels(sol.problem.potential, _panel_nodes(sol.mesh_m))
    lam = u = du = 0
    forcing = None if q is None else np.zeros_like(sol.corrections[0].u)
    for k, c in enumerate(sol.corrections):
        lam = lam + c.lambda_j
        u, du = u + c.u, du + c.du
        if q is not None and k:
            forcing = forcing + c.rhs
        yield _Totals(k, float(lam), u, du, forcing, q)


def _finish(kind: str, rank: int, nu) -> ResidualReport:
    """Report from the residual nu on the left and on the right panel."""
    norms = [float(np.max(np.abs(row))) for row in nu]
    combined = max(norms)
    log_value = math.log(combined) if combined > 0.0 else -math.inf
    return ResidualReport(kind, rank, *norms, combined, log_value)


def _pointwise(sol: FdSolution, t: _Totals) -> ResidualReport:
    nl = sol.problem.nonlinearity
    nu = (-sol.lambda0 * t.u + t.forcing + (t.lam - t.q) * t.u - nl(t.u))
    return _finish("pointwise", t.rank, nu)


def _integrated(sol: FdSolution, t: _Totals) -> ResidualReport:
    nl = sol.problem.nonlinearity
    factor = t.lam if t.q is None else t.lam - t.q
    parts = cumulative_simpson(factor * t.u - nl(t.u),
                               PanelMesh("left", sol.mesh_m).h)
    if t.q is None:
        for k, panel in enumerate(_rows(t.u)):
            parts[k] -= weighted_cumulative(panel)
    nu1 = t.du[0] - t.du[0, 0] + parts[0]
    nu2 = nu1[-1] + t.du[1] - t.du[1, 0] + parts[1]
    return _finish("integrated", t.rank, (nu1, nu2))


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
