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
right panel in row 1, so each rule is written once, the
interface-weighted substitution rule included. Per panel are only the zero
approximation and the right panel's backward sweep from x = 1.
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
                         cumulative_simpson, sine_sweep)

DEFAULT_MESH = 2048
_PANELS = ("left", "right")


class FdError(ValueError):
    """Recursion cannot proceed with the given inputs."""


class _AdomianSeries:
    """Adomian terms of N(sum_k u(k) t**k), one rank per push.

    u is the caller's array with u(k) in row k. The series keeps the terms
    of u**2..u**(d-1) in arrays shaped like u, d being the degree of the
    highest nonzero coefficient. A push forms only the t**j term of each
    power, one einsum over the rank axis that adds r = 0..j in order from
    0.0, straight into the row that stores it; the term of u**d goes into
    a scratch row and on into A_j.
    """

    def __init__(self, n: NonlinearitySpec, u: np.ndarray):
        degree = max((i for i, a in enumerate(n.coeffs, start=1) if a != 0.0),
                     default=0)
        self.coeffs = n.coeffs[:degree]
        self.u = u
        self.powers = [u] + [np.empty_like(u) for _ in range(degree - 2)]

    def push(self, j: int, out=None, scratch=None):
        """A_j; row j of u must hold u(j) already.

        out and scratch, arrays shaped like a row of u, take A_j and the
        products; fresh ones are made for those not given.
        """
        u, term = self.u, self.u[j]
        out = np.empty_like(term) if out is None else out
        out[...] = 0.0
        scratch = np.empty_like(out) if scratch is None else scratch
        top = len(self.coeffs)
        for i, a in enumerate(self.coeffs, start=1):
            if a != 0.0:
                out += np.multiply(a, term, out=scratch)
            if i < top:
                # the t**j term of u**(i+1): its stored row, or scratch
                term = self.powers[i][j, ...] if i + 1 < top else scratch
                np.einsum("k...,k...->...", self.powers[i - 1][:j + 1],
                          u[j::-1], out=term)
        return out


def adomian(n: NonlinearitySpec, u_values):
    """Series term A_j of N applied to the truncated expansion.

    u_values holds the terms u(0)..u(j) (scalars or equal-shaped arrays) and
    the result is the coefficient of t**j in N(sum_k u(k) t**k). This is a
    view of the incremental series the solver keeps on its stacked terms:
    every rank is pushed and the last A_j is returned. A_0 equals N(u(0)).
    """
    seq = [np.asarray(v, dtype=float) for v in u_values]
    if not seq:
        raise FdError("adomian needs at least the zero-order term")
    series = _AdomianSeries(n, np.stack(np.broadcast_arrays(*seq)))
    for j in range(len(seq)):
        out = series.push(j)
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
class FdSolution:
    """A solve's rank arrays, row k for correction k.

    lambdas and c2 are (rank+1,), u and du (rank+1, 2, M+1). rhs holds the
    smooth right-hand sides solved, row k-1 for correction k (None for the
    singular weight).
    """

    problem: TransmissionProblem
    branch: BranchId
    lambdas: np.ndarray
    c2: np.ndarray
    u: np.ndarray
    du: np.ndarray
    rhs: np.ndarray | None

    rank = property(lambda self: len(self.lambdas) - 1)
    mesh_m = property(lambda self: self.u.shape[-1] - 1)

    @property
    def corrections(self) -> list[Correction]:
        """Correction views of the rows; correction 0 has no rhs."""
        rhs = [None] * len(self.u) if self.rhs is None else [None, *self.rhs]
        return [Correction(*row)
                for row in zip(self.lambdas, self.u, self.du, self.c2, rhs)]

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    @property
    def lambda_total(self) -> float:
        return float(sum(self.lambdas))

    def u_total(self) -> GridFunction:
        return GridFunction(*_rows(sum(self.u)))


def _potential_on_panels(q: PotentialSpec, x: np.ndarray):
    """Smooth potential at the panel nodes x, or None for the weight."""
    if q.is_singular:
        return None
    values = np.asarray(q(x), dtype=float)
    if not np.isfinite(values).all():
        raise FdError("potential is not finite at a mesh node")
    return values


def _driving_field(lams, u: np.ndarray, q, a, out=None, scratch=None):
    """Everything on the right-hand side except the new eigenvalue term.

    lams and u hold lambda(0..j) and the panel arrays u(0..j), so the sum
    of lambda(j+1-p)*u(p) is one einsum over the rank axis, adding p = 1..j
    in order from 0.0. q holds a smooth potential at the nodes, or None for
    the singular weight; then u(j) is returned as the weighted factor, else
    None. a is the Adomian term A_j. out and scratch, panel arrays, take the
    field and q*u(j); fresh ones are made for those not given.
    """
    g = np.einsum("k,k...->...", -np.array(lams[:0:-1]), u[1:], out=out)
    if q is not None:
        g += np.multiply(q, u[-1], out=scratch)
    g += a
    return g, (u[-1] if q is None else None)


class _Frame:
    """Trig tables of one frequency on both panels and the rules using them.

    trig stacks cos(w*x) and sin(w*x) at the nodes as panel arrays, so the
    cos and sin cumulants of a field take one quadrature call. The engine
    is a frame plus the problem data.
    """

    def __init__(self, branch: BranchId, lambda0: float, mesh_m: int):
        self.branch = branch
        self.lambda0 = lambda0
        self.omega = math.sqrt(lambda0)
        self.m = mesh_m
        self.h = PanelMesh("left", mesh_m).h
        x, w = _panel_nodes(mesh_m), self.omega
        self.trig = np.stack([np.cos(w * x), np.sin(w * x)])
        self.sin_tail = np.sin(w * (1.0 - x[1]))
        self.cos_tail = np.cos(w * (1.0 - x[1]))

    def cumulants(self, g, weighted=None, out=None, scratch=None):
        """Running cos and sin integrals of the panel field g, cos in row 0.

        weighted, if given, is the panel array that multiplies the interface
        weight; it goes through the substitution rule, cos and sin of both
        panels in one call. out and scratch, (2, 2, M+1) arrays, take the
        integrals and the integrands; fresh ones are made for those not
        given.
        """
        run = cumulative_simpson(np.multiply(g, self.trig, out=scratch),
                                 self.h, out=out)
        if weighted is not None:
            sub = _substitution(self.m)
            psi = np.multiply(sub.at_points(weighted)[:, None],
                              self.substituted_trig, out=scratch)
            run += sub.running(psi).swapaxes(0, 1)
        return run

    @cached_property
    def substituted_trig(self):
        """cos and sin of w*x(t) at the substituted points, panel first.

        A (2, 2, M+1) array, cos in column 0. Built by the first
        interface-weighted field and kept for the solve.
        """
        wx = self.omega * _substitution(self.m).xs
        return np.stack([np.cos(wx), np.sin(wx)], axis=1)

    def weight_total(self, cumulants) -> float:
        """Combine full-interval cumulants against the family weight."""
        c, s = cumulants[..., -1].sum(axis=-1)
        if self.branch.family == "I":
            return math.sin(self.omega) * c - math.cos(self.omega) * s
        return s

    def amplitude(self, cumulants) -> float:
        """Free amplitude from the cumulants of the final field."""
        cf, sf = cumulants[..., -1].sum(axis=-1)  # both panels' end values
        w = self.omega
        if self.branch.family == "I":
            sh, ch = math.sin(w / 2.0), math.cos(w / 2.0)
            return (sh * cf - ch * sf) / (w * sh)
        return -cf / w

    def pieces(self, cumulants, amp: float, out=None):
        """u and du from the cumulants of the final field, which it spends.

        The left panel sweeps from x = 0. The right one sweeps back from
        x = 1, its cumulants turned into tails in place, and adds
        amp*sin(w*(1 - x)). out, if given, is the pair of panel arrays
        that takes u and du.
        """
        right = cumulants[:, 1]
        np.subtract(right[:, -1:], right, out=right)
        w = self.omega
        u, du = sine_sweep(*self.trig, *cumulants, w, out=out)
        np.subtract(amp * self.sin_tail, u[1], out=u[1])
        np.subtract(-amp * w * self.cos_tail, du[1], out=du[1])
        return u, du


class _Engine(_Frame):
    """Per-solve state: zero cumulants, potential, series and rank arrays.

    lambdas, c2, u, du and, for a smooth potential, rhs are sized once
    with one row per correction: row 0 is the zero approximation, step j
    writes row j+1 and rhs row j (rank 0 has no right-hand side). The
    series reads u too. g, cum and scratch take a step's driving field,
    cumulants and products, so a step keeps no array it makes.
    """

    def __init__(self, problem: TransmissionProblem, branch: BranchId,
                 mesh_m: int, rank: int):
        if mesh_m % 2 or mesh_m < 4:
            raise FdError("mesh size must be even and at least 4")
        self.zero = zero_eigenfunction(branch)
        super().__init__(branch, self.zero.lambda0, mesh_m)
        x = _panel_nodes(mesh_m)
        left, right = x
        self.q = _potential_on_panels(problem.potential, x)
        self.lambdas, self.c2 = np.empty(rank + 1), np.empty(rank + 1)
        self.u = np.empty((rank + 1, 2, mesh_m + 1))
        # du and rhs share one block: as three rank arrays, glibc's malloc
        # handed their pages back to the OS after every solve and faulted
        # them in again on the next
        block = np.empty((rank + 1 + rank * (self.q is not None), 2,
                          mesh_m + 1))
        self.du = block[:rank + 1]
        self.rhs = None if self.q is None else block[rank + 1:]
        self.lambdas[0], self.c2[0] = self.lambda0, self.zero.c2_zero
        self.u[0] = [self.zero.u1(left), self.zero.u2(right)]
        self.du[0] = [self.zero.du1(left), self.zero.du2(right)]
        self.filled = 1
        self.zero_cumulants = self.cumulants(self.u[0])
        self.denominator = self.weight_total(self.zero_cumulants)
        self.series = _AdomianSeries(problem.nonlinearity, self.u)
        self.g = np.empty_like(self.u[0])
        self.cum = np.empty_like(self.zero_cumulants)
        self.scratch = np.empty_like(self.zero_cumulants)

    def step(self) -> None:
        """Write the rows of the next correction from the rows before."""
        j = self.filled - 1
        if self.filled == len(self.u):
            raise FdError(f"all {self.filled} rows of the solve are filled")
        g, cum, (a, spare) = self.g, self.cum, self.scratch
        _, weighted = _driving_field(self.lambdas[:j + 1], self.u[:j + 1],
                                     self.q, self.series.push(j, a, spare),
                                     out=g, scratch=spare)
        self.cumulants(g, weighted, out=cum, scratch=self.scratch)
        lam = self.weight_total(cum) / self.denominator
        # the final field is the driving field minus lam times the zero
        # approximation, so its cumulants follow by linearity
        cum -= np.multiply(lam, self.zero_cumulants, out=self.scratch)
        amp = self.amplitude(cum)
        u, du = self.pieces(cum, amp, out=(self.u[j + 1], self.du[j + 1]))
        if not all(np.isfinite(v).all() for v in (lam, u, du)):
            raise FdError(f"correction {j + 1} is not finite; "
                          "the series diverges")
        self.lambdas[j + 1], self.c2[j + 1] = lam, amp
        if self.q is not None:
            rhs = self.rhs[j]
            np.subtract(g, np.multiply(lam, self.u[0], out=rhs), out=rhs)
        self.filled += 1


def fd_solve(problem: TransmissionProblem, branch: BranchId, rank: int,
             mesh: int = DEFAULT_MESH) -> FdSolution:
    """Run the recursion to the requested rank on the given panel mesh."""
    if rank < 0:
        raise FdError("rank must be non-negative")
    engine = _Engine(problem, branch, mesh, rank)
    # A diverging series overflows before step() sees a non-finite
    # correction and raises FdError; that error is the one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(rank):
            engine.step()
    return FdSolution(problem, branch, engine.lambdas, engine.c2, engine.u,
                      engine.du, engine.rhs)
