"""The correction recursion: series terms for the eigenvalue and eigenfunction.

Each rank first fixes the eigenvalue correction from a weighted integral of
the driving field (the weight is the zero approximation's own shape), then
assembles the full right-hand side, solves for the free amplitude of the
right panel, and finally produces the eigenfunction correction through the
sine-kernel convolution. The eigenvalue denominator is evaluated with the
same discrete rule as the numerator, which keeps the four homogeneous side
conditions of every correction at roundoff level on any mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import zero_eigenfunction
from .model import (BranchId, NonlinearitySpec, PotentialSpec,
                    TransmissionProblem)
from .quadrature import (GridFunction, PanelFn, PanelMesh, cumulative_simpson,
                         sine_sweep, weighted_trig_cumulants)

DEFAULT_MESH = 2048


class FdError(ValueError):
    """Recursion cannot proceed with the given inputs."""


def adomian(n: NonlinearitySpec, u_values):
    """Series term A_j of N applied to the truncated expansion.

    u_values holds the terms u(0)..u(j) (scalars or equal-shaped arrays) and
    the result is the coefficient of t**j in N(sum_k u(k) t**k). The series
    of u**i is a list of its terms up to t**j; u**(i+1) is its truncated
    product with the series of u, each term summed over r = 0..k in order,
    and A_j adds up a_i times the t**j term of u**i. A_0 equals N(u(0)).
    """
    seq = [np.asarray(v, dtype=float) for v in u_values]
    if not seq:
        raise FdError("adomian needs at least the zero-order term")
    series = list(np.stack(np.broadcast_arrays(*seq)))
    j = len(series) - 1
    out = np.zeros_like(series[0])
    power = series
    for i, a in enumerate(n.coeffs, start=1):
        if a != 0.0:
            out = out + a * power[j]
        if i < n.degree:
            power = [sum((power[r] * series[k - r] for r in range(k + 1)), 0.0)
                     for k in range(j + 1)]
    return out if out.ndim else float(out)


@dataclass
class Correction:
    """One term of the expansion: eigenvalue, both panel pieces, amplitude."""

    lambda_j: float
    u1: PanelFn
    u2: PanelFn
    du1: PanelFn
    du2: PanelFn
    c2_j: float
    rhs1: np.ndarray | None = None
    rhs2: np.ndarray | None = None


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

    def _summed(self, piece: str) -> PanelFn:
        first = getattr(self.corrections[0], piece)
        return PanelFn(first.mesh, sum(getattr(c, piece).values
                                       for c in self.corrections))

    def u_total(self) -> GridFunction:
        return GridFunction(self._summed("u1"), self._summed("u2"))

    def du_total(self) -> tuple[PanelFn, PanelFn]:
        return self._summed("du1"), self._summed("du2")

    def truncate(self, k: int) -> "FdSolution":
        if not 0 <= k <= self.rank:
            raise FdError(f"cannot truncate rank-{self.rank} solution at {k}")
        return FdSolution(self.problem, self.branch, k, self.mesh_m,
                          self.corrections[: k + 1])


def _potential_on_panels(q: PotentialSpec, mesh_left: PanelMesh,
                         mesh_right: PanelMesh):
    """Node values of a smooth potential, or (None, None) for the weight."""
    if q.is_singular:
        return None, None
    left, right = (np.asarray(q(m.nodes), dtype=float)
                   for m in (mesh_left, mesh_right))
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise FdError("potential is not finite at a mesh node")
    return left, right


def _driving_field(corrections: list[Correction], q_left, q_right,
                   nl: NonlinearitySpec):
    """Everything on the right-hand side except the new eigenvalue term.

    q_left/q_right are node values of a smooth potential, or None for the
    singular built-in weight; in the latter case the weighted factors are
    returned separately.
    """
    j = len(corrections) - 1
    g1 = np.zeros_like(corrections[0].u1.values)
    g2 = np.zeros_like(corrections[0].u2.values)
    for p in range(1, j + 1):
        lam = corrections[j + 1 - p].lambda_j
        g1 -= lam * corrections[p].u1.values
        g2 -= lam * corrections[p].u2.values
    last = corrections[j]
    if q_left is None:
        weighted1, weighted2 = last.u1, last.u2
    else:
        weighted1 = weighted2 = None
        g1 += q_left * last.u1.values
        g2 += q_right * last.u2.values
    if not nl.is_empty:
        g1 += adomian(nl, [c.u1.values for c in corrections])
        g2 += adomian(nl, [c.u2.values for c in corrections])
    return g1, g2, weighted1, weighted2


class _Frame:
    """Trig tables of one frequency on both panels and the rules using them.

    The engine is a frame plus the problem data; the step-level functions
    build a bare frame for a given right-hand side.
    """

    def __init__(self, branch: BranchId, lambda0: float, mesh_m: int):
        self.branch = branch
        self.lambda0 = lambda0
        self.omega = math.sqrt(lambda0)
        self.mesh_left = PanelMesh("left", mesh_m)
        self.mesh_right = PanelMesh("right", mesh_m)
        xl, xr = self.mesh_left.nodes, self.mesh_right.nodes
        w = self.omega
        self.cos_left, self.sin_left = np.cos(w * xl), np.sin(w * xl)
        self.cos_right, self.sin_right = np.cos(w * xr), np.sin(w * xr)
        self.sin_tail = np.sin(w * (1.0 - xr))
        self.cos_tail = np.cos(w * (1.0 - xr))

    def cumulants(self, g1, g2, weighted1=None, weighted2=None):
        """Running cos/sin integrals of smooth and interface-weighted parts."""
        h, w = self.mesh_left.h, self.omega
        c1 = cumulative_simpson(g1 * self.cos_left, h)
        s1 = cumulative_simpson(g1 * self.sin_left, h)
        c2 = cumulative_simpson(g2 * self.cos_right, h)
        s2 = cumulative_simpson(g2 * self.sin_right, h)
        if weighted1 is not None:
            wc1, ws1 = weighted_trig_cumulants(weighted1, w)
            wc2, ws2 = weighted_trig_cumulants(weighted2, w)
            c1, s1, c2, s2 = c1 + wc1, s1 + ws1, c2 + wc2, s2 + ws2
        return c1, s1, c2, s2

    def amplitude(self, cumulants) -> float:
        """Free amplitude from the cumulants of the final field."""
        cf1, sf1, cf2, sf2 = (c[-1] for c in cumulants)
        w = self.omega
        if self.branch.family == "I":
            sh, ch = math.sin(w / 2.0), math.cos(w / 2.0)
            if abs(sh) < 1e-8:
                raise FdError("family I amplitude rule hit sin(omega/2) = 0; "
                              "branch data is inconsistent")
            return (sh * (cf1 + cf2) - ch * (sf1 + sf2)) / (w * sh)
        return -(cf1 + cf2) / w

    def pieces(self, cumulants, amp: float):
        """u1, u2, du1, du2 from the cumulants of the final field.

        The right piece sweeps back from x = 1 and adds amp*sin(w*(1 - x)).
        """
        cf1, sf1, cf2, sf2 = cumulants
        w = self.omega
        u1, du1 = sine_sweep(self.cos_left, self.sin_left, cf1, sf1, w)
        tail, dtail = sine_sweep(self.cos_right, self.sin_right,
                                 cf2[-1] - cf2, sf2[-1] - sf2, w)
        u2 = amp * self.sin_tail - tail
        du2 = -amp * w * self.cos_tail - dtail
        return (PanelFn(self.mesh_left, u1), PanelFn(self.mesh_right, u2),
                PanelFn(self.mesh_left, du1), PanelFn(self.mesh_right, du2))


class _Engine(_Frame):
    """Shared per-solve state: meshes, trig tables, zero-order cumulants."""

    def __init__(self, problem: TransmissionProblem, branch: BranchId,
                 mesh_m: int = DEFAULT_MESH):
        if mesh_m % 2 or mesh_m < 4:
            raise FdError("mesh size must be even and at least 4")
        self.zero = zero_eigenfunction(branch)
        super().__init__(branch, self.zero.lambda0, mesh_m)
        self.problem = problem
        xl, xr = self.mesh_left.nodes, self.mesh_right.nodes
        self.u1_zero = PanelFn(self.mesh_left, self.zero.u1(xl))
        self.u2_zero = PanelFn(self.mesh_right, self.zero.u2(xr))
        self.zero_cumulants = self.cumulants(self.u1_zero.values,
                                             self.u2_zero.values)
        self.denominator = self._weight_total(self.zero_cumulants)
        self.q_left, self.q_right = _potential_on_panels(
            problem.potential, self.mesh_left, self.mesh_right)

    def _weight_total(self, cumulants) -> float:
        """Combine full-panel cumulants against the family weight function."""
        c_left, s_left, c_right, s_right = (c[-1] for c in cumulants)
        if self.branch.family == "I":
            sw, cw = math.sin(self.omega), math.cos(self.omega)
            return sw * (c_left + c_right) - cw * (s_left + s_right)
        return s_left + s_right

    def zero_correction(self) -> Correction:
        xl, xr = self.mesh_left.nodes, self.mesh_right.nodes
        return Correction(
            lambda_j=self.lambda0,
            u1=self.u1_zero,
            u2=self.u2_zero,
            du1=PanelFn(self.mesh_left, self.zero.du1(xl)),
            du2=PanelFn(self.mesh_right, self.zero.du2(xr)),
            c2_j=self.zero.c2_zero,
        )

    def step(self, corrections: list[Correction]) -> Correction:
        field = _driving_field(corrections, self.q_left, self.q_right,
                               self.problem.nonlinearity)
        cumulants = self.cumulants(*field)
        lam = self._weight_total(cumulants) / self.denominator
        # the final field is the driving field minus lam times the zero
        # approximation, so its cumulants follow by linearity
        final = tuple(c - lam * c0
                      for c, c0 in zip(cumulants, self.zero_cumulants))
        amp = self.amplitude(final)
        u1, u2, du1, du2 = self.pieces(final, amp)
        if self.q_left is None:
            rhs1 = rhs2 = None
        else:
            rhs1 = field[0] - lam * self.u1_zero.values
            rhs2 = field[1] - lam * self.u2_zero.values
        return Correction(lambda_j=lam, u1=u1, u2=u2, du1=du1, du2=du2,
                          c2_j=amp, rhs1=rhs1, rhs2=rhs2)


def _rhs_frame(branch: BranchId, rhs: RhsField):
    """Frame for the right-hand side plus the cumulants of its field."""
    frame = _Frame(branch, rhs.lambda0, rhs.smooth1.mesh.m)
    return frame, frame.cumulants(rhs.smooth1.values, rhs.smooth2.values,
                                  rhs.weighted1, rhs.weighted2)


def lambda_correction(branch: BranchId, corrections: list[Correction],
                      q: PotentialSpec, n: NonlinearitySpec) -> float:
    """Next eigenvalue term from the corrections computed so far."""
    if not corrections:
        raise FdError("need at least the zero-order correction")
    engine = _Engine(TransmissionProblem(q, n), branch,
                     corrections[0].u1.mesh.m)
    return engine.step(corrections).lambda_j


def rhs_assemble(j: int, corrections: list[Correction], lambda_next: float,
                 q: PotentialSpec, n: NonlinearitySpec) -> RhsField:
    """Right-hand side of the rank-(j+1) problem, given its eigenvalue."""
    if j != len(corrections) - 1:
        raise FdError("rhs_assemble expects corrections 0..j")
    zero = corrections[0]
    mesh_left, mesh_right = zero.u1.mesh, zero.u2.mesh
    g1, g2, weighted1, weighted2 = _driving_field(
        corrections, *_potential_on_panels(q, mesh_left, mesh_right), n)
    return RhsField(
        lambda0=zero.lambda_j,
        smooth1=PanelFn(mesh_left, g1 - lambda_next * zero.u1.values),
        smooth2=PanelFn(mesh_right, g2 - lambda_next * zero.u2.values),
        weighted1=weighted1, weighted2=weighted2,
    )


def c2_correction(branch: BranchId, rhs: RhsField) -> float:
    """Right-panel amplitude for the assembled right-hand side."""
    frame, cumulants = _rhs_frame(branch, rhs)
    return frame.amplitude(cumulants)


def u_correction(branch: BranchId, rhs: RhsField,
                 c2: float) -> tuple[PanelFn, PanelFn]:
    """Eigenfunction correction pieces for the assembled right-hand side."""
    frame, cumulants = _rhs_frame(branch, rhs)
    u1, u2, _, _ = frame.pieces(cumulants, c2)
    return u1, u2


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
