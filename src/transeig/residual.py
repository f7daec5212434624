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

from .fdcore import FdSolution, _panel_nodes, _potential_on_panels
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
    """Yield the totals at ranks 0..m, walking the rank rows once.

    Every sum adds left to right from 0, as FdSolution does, so the totals
    at rank k are those of sol.truncate(k). q is evaluated once. The panel
    arrays of the totals are added to in place: each yielded _Totals is
    valid until the next one is asked for.
    """
    q = _potential_on_panels(sol.problem.potential, _panel_nodes(sol.mesh_m))
    lam = 0
    u, du = (np.zeros_like(sol.u[0]) for _ in range(2))
    forcing = None if q is None else np.zeros_like(u)
    for k in range(sol.rank + 1):
        lam = lam + sol.lambdas[k]
        u += sol.u[k]
        du += sol.du[k]
        if q is not None and k:
            forcing += sol.rhs[k - 1]
        yield _Totals(k, float(lam), u, du, forcing, q)


def _finish(kind: str, rank: int, nu: np.ndarray) -> ResidualReport:
    """Report from the residual nu, a panel array, which it overwrites."""
    norms = np.abs(nu, out=nu).max(axis=-1)
    combined = float(norms.max())  # NaN in either panel propagates
    log_value = -math.inf if combined == 0.0 else math.log(combined)
    return ResidualReport(kind, rank, *map(float, norms), combined, log_value)


def _pointwise(sol: FdSolution, t: _Totals) -> ResidualReport:
    nl = sol.problem.nonlinearity
    nu = np.multiply(-sol.lambda0, t.u)
    nu += t.forcing
    nu += np.subtract(t.lam, t.q) * t.u
    nu -= nl(t.u)
    return _finish("pointwise", t.rank, nu)


def _integrated(sol: FdSolution, t: _Totals) -> ResidualReport:
    nl = sol.problem.nonlinearity
    factor = t.lam if t.q is None else t.lam - t.q
    parts = cumulative_simpson(factor * t.u - nl(t.u),
                               PanelMesh("left", sol.mesh_m).h)
    if t.q is None:
        parts -= weighted_cumulative(t.u)
    # parts[0] becomes nu1 = du1 - du1(0) + parts[0], then parts[1]
    # becomes nu2 = nu1(1/2) + du2 - du2(1/2) + parts[1]
    parts[0] += t.du[0] - t.du[0, 0]
    parts[1] += t.du[1] + parts[0, -1] - t.du[1, 0]
    return _finish("integrated", t.rank, parts)


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
    if not all(np.isfinite(p.values).all() for p in (u.left, u.right)):
        raise ValueError("cannot count the zeros of a function with a "
                         "non-finite sample")
    # `not <=` also refuses nan, which every sample would fail: 0 zeros
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError("zero tolerance must be finite and non-negative")
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
        mat[ms.index(m), ns.index(n)] = (-math.inf if norm == 0.0
                                         else math.log(norm))
    return mat, ns, ms
