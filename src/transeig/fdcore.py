"""The correction recursion: series terms for the eigenvalue and eigenfunction.

Each rank first fixes the eigenvalue correction from a weighted integral of
the driving field (the weight is the zero approximation's own shape), then
assembles the full right-hand side, solves for the free amplitude of the
right panel, and finally produces the eigenfunction correction through the
sine-kernel convolution. The eigenvalue denominator is evaluated with the
same discrete rule as the numerator, which keeps the four homogeneous side
conditions of every correction at roundoff level on any mesh.

The two panels (0, 1/2) and (1/2, 1) share one panel axis: every field of
a solve is a (2, M+1) panel array with the left panel in row 0 and the
right panel in row 1, so each rule that is the same on both panels is
written once. Per panel are only the zero approximation, the right panel's
backward sweep from x = 1, and the interface-weighted substitution rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import zero_eigenfunction
from .model import (BranchId, NonlinearitySpec, PotentialSpec,
                    TransmissionProblem)
from .quadrature import (GridFunction, PanelFn, PanelMesh, _substitution,
                         _weighted_trig, cumulative_simpson, sine_sweep)

DEFAULT_MESH = 2048
_PANELS = ("left", "right")


class FdError(ValueError):
    """Recursion cannot proceed with the given inputs."""


class _AdomianSeries:
    """Adomian terms of N(sum_k u(k) t**k), one rank per push.

    It keeps the terms of u**1..u**(d-1) pushed so far, d being the degree
    of the highest nonzero coefficient. A push forms only the t**j term of
    each power, each summed over r = 0..j in order; the term of u**d goes
    straight into A_j and is not stored.
    """

    def __init__(self, n: NonlinearitySpec):
        degree = max((i for i, a in enumerate(n.coeffs, start=1) if a != 0.0),
                     default=0)
        self.coeffs = n.coeffs[:degree]
        self.powers = [[] for _ in range(degree - 1)]
        self.rank = -1

    def push(self, u_j):
        """Take the term u(j) and return A_j."""
        self.rank += 1
        j = self.rank
        out = np.zeros_like(u_j)
        term = u_j
        for i, a in enumerate(self.coeffs, start=1):
            if a != 0.0:
                out = out + a * term
            if i < len(self.coeffs):
                power, u = self.powers[i - 1], self.powers[0]
                power.append(term)
                term = sum((power[r] * u[j - r] for r in range(j + 1)), 0.0)
        return out


def adomian(n: NonlinearitySpec, u_values):
    """Series term A_j of N applied to the truncated expansion.

    u_values holds the terms u(0)..u(j) (scalars or equal-shaped arrays) and
    the result is the coefficient of t**j in N(sum_k u(k) t**k). This is a
    view of the incremental series the solver keeps: every term is pushed
    and the last A_j is returned. A_0 equals N(u(0)).
    """
    seq = [np.asarray(v, dtype=float) for v in u_values]
    if not seq:
        raise FdError("adomian needs at least the zero-order term")
    series = _AdomianSeries(n)
    for term in np.stack(np.broadcast_arrays(*seq)):
        out = series.push(term)
    return out if out.ndim else float(out)


def _panel_nodes(m: int) -> np.ndarray:
    """Nodes of both panels as a panel array, row 0 left and row 1 right."""
    return np.stack([PanelMesh(panel, m).nodes for panel in _PANELS])


def _rows(values: np.ndarray) -> tuple[PanelFn, PanelFn]:
    """Read-only PanelFn views of the two rows of a panel array."""
    m, view = values.shape[-1] - 1, values.view()
    view.flags.writeable = False
    return tuple(PanelFn(PanelMesh(panel, m), row)
                 for panel, row in zip(_PANELS, view))


@dataclass
class Correction:
    """One term of the expansion: eigenvalue, both panel pieces, amplitude.

    u, du and rhs (the smooth right-hand side solved; None for the singular
    weight) are panel arrays; u1, u2, du1, du2 are read-only row views.
    """

    lambda_j: float
    u: np.ndarray
    du: np.ndarray
    c2_j: float
    rhs: np.ndarray | None = None

    u1 = property(lambda self: _rows(self.u)[0])
    u2 = property(lambda self: _rows(self.u)[1])
    du1 = property(lambda self: _rows(self.du)[0])
    du2 = property(lambda self: _rows(self.du)[1])


@dataclass
class RhsField:
    """Right-hand side of a correction problem, split smooth/weighted.

    The smooth parts are integrated directly; the weighted parts carry the
    factor that multiplies the singular interface weight and go through the
    substitution rule.
    """

    lambda0: float
    smooth1: PanelFn
    smooth2: PanelFn
    weighted1: PanelFn | None = None
    weighted2: PanelFn | None = None


@dataclass
class FdSolution:
    """All corrections up to the requested rank plus the truncated sums."""

    problem: TransmissionProblem
    branch: BranchId
    rank: int
    mesh_m: int
    corrections: list[Correction]

    @property
    def lambda0(self) -> float:
        return self.corrections[0].lambda_j

    @property
    def lambda_total(self) -> float:
        return float(sum(c.lambda_j for c in self.corrections))

    def lambda_partial(self, k: int) -> float:
        return float(sum(c.lambda_j for c in self.corrections[: k + 1]))

    def u_total(self) -> GridFunction:
        return GridFunction(*_rows(sum(c.u for c in self.corrections)))

    def du_total(self) -> tuple[PanelFn, PanelFn]:
        return _rows(sum(c.du for c in self.corrections))

    def truncate(self, k: int) -> "FdSolution":
        if not 0 <= k <= self.rank:
            raise FdError(f"cannot truncate rank-{self.rank} solution at {k}")
        return FdSolution(self.problem, self.branch, k, self.mesh_m,
                          self.corrections[: k + 1])


def _potential_on_panels(q: PotentialSpec, x: np.ndarray):
    """Smooth potential at the panel nodes x, or None for the weight."""
    if q.is_singular:
        return None
    values = np.asarray(q(x), dtype=float)
    if not np.isfinite(values).all():
        raise FdError("potential is not finite at a mesh node")
    return values


def _driving_field(corrections: list[Correction], q, a):
    """Everything on the right-hand side except the new eigenvalue term.

    q holds a smooth potential at the nodes, or None for the singular
    built-in weight; then the last correction is returned as the weighted
    factor, else None. a is the Adomian term A_j.
    """
    j = len(corrections) - 1
    g = np.zeros_like(corrections[0].u)
    for p in range(1, j + 1):
        g -= corrections[j + 1 - p].lambda_j * corrections[p].u
    last = corrections[j].u
    if q is not None:
        g += q * last
    g += a
    return g, (last if q is None else None)


def _full_interval(cumulants):
    """cos and sin integrals over (0, 1): the panels' end values summed."""
    return tuple(run[:, -1].sum() for run in cumulants)


class _Frame:
    """Trig tables of one frequency on both panels and the rules using them.

    cos and sin hold cos(w*x) and sin(w*x) at the nodes as panel arrays.
    The engine is a frame plus the problem data; the step-level functions
    build a bare frame for a given right-hand side.
    """

    def __init__(self, branch: BranchId, lambda0: float, mesh_m: int):
        self.branch = branch
        self.lambda0 = lambda0
        self.omega = math.sqrt(lambda0)
        self.meshes = tuple(PanelMesh(panel, mesh_m) for panel in _PANELS)
        self.h = self.meshes[0].h
        self.x = _panel_nodes(mesh_m)
        w = self.omega
        self.cos, self.sin = np.cos(w * self.x), np.sin(w * self.x)
        self.sin_tail = np.sin(w * (1.0 - self.x[1]))
        self.cos_tail = np.cos(w * (1.0 - self.x[1]))

    def cumulants(self, g, weighted=None):
        """Running cos and sin integrals of the panel field g.

        weighted, if given, is the panel array that multiplies the interface
        weight; each panel of it goes through the substitution rule.
        """
        c = cumulative_simpson(g * self.cos, self.h)
        s = cumulative_simpson(g * self.sin, self.h)
        if weighted is not None:
            for k, fn in enumerate(_rows(weighted)):
                wc, ws = _weighted_trig(fn, *self.substituted_trig[k])
                c[k] += wc
                s[k] += ws
        return c, s

    @cached_property
    def substituted_trig(self):
        """cos and sin of w*x(t) at the substituted points of both panels.

        Built by the first interface-weighted field and kept for the solve.
        """
        w = self.omega
        return tuple((np.cos(w * xs), np.sin(w * xs))
                     for xs in (_substitution(m).xs for m in self.meshes))

    def amplitude(self, cumulants) -> float:
        """Free amplitude from the cumulants of the final field."""
        cf, sf = _full_interval(cumulants)
        w = self.omega
        if self.branch.family == "I":
            sh, ch = math.sin(w / 2.0), math.cos(w / 2.0)
            if abs(sh) < 1e-8:
                raise FdError("family I amplitude rule hit sin(omega/2) = 0; "
                              "branch data is inconsistent")
            return (sh * cf - ch * sf) / (w * sh)
        return -cf / w

    def pieces(self, cumulants, amp: float):
        """u and du from the cumulants of the final field.

        The left panel sweeps from x = 0. The right one sweeps back from
        x = 1 and adds amp*sin(w*(1 - x)).
        """
        c, s = (np.stack([run[0], run[1, -1] - run[1]]) for run in cumulants)
        w = self.omega
        u, du = sine_sweep(self.cos, self.sin, c, s, w)
        u[1] = amp * self.sin_tail - u[1]
        du[1] = -amp * w * self.cos_tail - du[1]
        return u, du


class _Engine(_Frame):
    """Shared per-solve state: meshes, trig tables, zero-order cumulants."""

    def __init__(self, problem: TransmissionProblem, branch: BranchId,
                 mesh_m: int = DEFAULT_MESH):
        if mesh_m % 2 or mesh_m < 4:
            raise FdError("mesh size must be even and at least 4")
        self.zero = zero_eigenfunction(branch)
        super().__init__(branch, self.zero.lambda0, mesh_m)
        self.problem = problem
        left, right = self.x
        self.u_zero = np.stack([self.zero.u1(left), self.zero.u2(right)])
        self.zero_cumulants = self.cumulants(self.u_zero)
        self.denominator = self._weight_total(self.zero_cumulants)
        self.q = _potential_on_panels(problem.potential, self.x)
        self.series = _AdomianSeries(problem.nonlinearity)

    def _weight_total(self, cumulants) -> float:
        """Combine full-interval cumulants against the family weight."""
        c, s = _full_interval(cumulants)
        if self.branch.family == "I":
            return math.sin(self.omega) * c - math.cos(self.omega) * s
        return s

    def zero_correction(self) -> Correction:
        left, right = self.x
        du = np.stack([self.zero.du1(left), self.zero.du2(right)])
        return Correction(self.lambda0, self.u_zero, du, self.zero.c2_zero)

    def _adomian_term(self, corrections: list[Correction]):
        """A_j on both panels, pushing the corrections not seen yet."""
        for c in corrections[self.series.rank + 1:]:
            self.a_j = self.series.push(c.u)
        return self.a_j

    def step(self, corrections: list[Correction]) -> Correction:
        g, weighted = _driving_field(corrections, self.q,
                                     self._adomian_term(corrections))
        cumulants = self.cumulants(g, weighted)
        lam = self._weight_total(cumulants) / self.denominator
        # the final field is the driving field minus lam times the zero
        # approximation, so its cumulants follow by linearity
        final = tuple(c - lam * c0
                      for c, c0 in zip(cumulants, self.zero_cumulants))
        amp = self.amplitude(final)
        u, du = self.pieces(final, amp)
        if not all(np.isfinite(v).all() for v in (lam, u, du)):
            raise FdError(f"correction {len(corrections)} is not finite; "
                          "the series diverges")
        rhs = None if self.q is None else g - lam * self.u_zero
        return Correction(lam, u, du, amp, rhs)


def _rhs_frame(branch: BranchId, rhs: RhsField):
    """Frame for the right-hand side plus the cumulants of its field."""
    frame = _Frame(branch, rhs.lambda0, rhs.smooth1.mesh.m)
    g = np.stack([rhs.smooth1.values, rhs.smooth2.values])
    weighted = (None if rhs.weighted1 is None else
                np.stack([rhs.weighted1.values, rhs.weighted2.values]))
    return frame, frame.cumulants(g, weighted)


def lambda_correction(branch: BranchId, corrections: list[Correction],
                      q: PotentialSpec, n: NonlinearitySpec) -> float:
    """Next eigenvalue term from the corrections computed so far."""
    if not corrections:
        raise FdError("need at least the zero-order correction")
    engine = _Engine(TransmissionProblem(q, n), branch,
                     corrections[0].u.shape[-1] - 1)
    return engine.step(corrections).lambda_j


def rhs_assemble(j: int, corrections: list[Correction], lambda_next: float,
                 q: PotentialSpec, n: NonlinearitySpec) -> RhsField:
    """Right-hand side of the rank-(j+1) problem, given its eigenvalue."""
    if j != len(corrections) - 1:
        raise FdError("rhs_assemble expects corrections 0..j")
    zero = corrections[0]
    x = _panel_nodes(zero.u.shape[-1] - 1)
    g, weighted = _driving_field(corrections, _potential_on_panels(q, x),
                                 adomian(n, [c.u for c in corrections]))
    weighted = (None, None) if weighted is None else _rows(weighted)
    return RhsField(zero.lambda_j, *_rows(g - lambda_next * zero.u),
                    *weighted)


def c2_correction(branch: BranchId, rhs: RhsField) -> float:
    """Right-panel amplitude for the assembled right-hand side."""
    frame, cumulants = _rhs_frame(branch, rhs)
    return frame.amplitude(cumulants)


def u_correction(branch: BranchId, rhs: RhsField,
                 c2: float) -> tuple[PanelFn, PanelFn]:
    """Eigenfunction correction pieces for the assembled right-hand side."""
    frame, cumulants = _rhs_frame(branch, rhs)
    return _rows(frame.pieces(cumulants, c2)[0])


def fd_solve(problem: TransmissionProblem, branch: BranchId, rank: int,
             mesh: int = DEFAULT_MESH) -> FdSolution:
    """Run the recursion to the requested rank on the given panel mesh."""
    if rank < 0:
        raise FdError("rank must be non-negative")
    engine = _Engine(problem, branch, mesh)
    corrections = [engine.zero_correction()]
    for _ in range(rank):
        corrections.append(engine.step(corrections))
    return FdSolution(problem=problem, branch=branch, rank=rank,
                      mesh_m=mesh, corrections=corrections)
