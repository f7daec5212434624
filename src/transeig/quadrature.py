"""Panel meshes, cumulative Simpson integration, and the sine-kernel convolution.

Everything operates on the two panels [0, 1/2] and [1/2, 1] with uniform
nodes. Running integrals anchor at the panel's left endpoint. They run
along the last axis, so one call integrates both rows of a (2, M+1) panel
array, the form in which the solver keeps its fields (left panel in row 0,
right panel in row 1). The weighted variant removes the built-in
|1/2 - x|**-0.5 interface singularity with the substitution
t = sqrt(|1/2 - x|) and integrates a smooth function of t; it too takes
a panel array and integrates both panels in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, sqrt

import numpy as np
from numpy.typing import NDArray

from .model import INTERFACE


class QuadratureError(ValueError):
    """Unusable mesh or kernel parameter."""


@dataclass(frozen=True)
class PanelMesh:
    """Uniform mesh of an interface panel, m subintervals (even, >= 4)."""

    panel: str
    m: int

    def __post_init__(self) -> None:
        if self.panel not in ("left", "right"):
            raise QuadratureError(f"unknown panel: {self.panel!r}")
        if self.m < 4 or self.m % 2:
            raise QuadratureError("panel mesh needs an even m >= 4")

    @property
    def a(self) -> float:
        return 0.0 if self.panel == "left" else INTERFACE

    @property
    def b(self) -> float:
        return INTERFACE if self.panel == "left" else 1.0

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.m

    @property
    def nodes(self) -> NDArray[np.float64]:
        return np.linspace(self.a, self.b, self.m + 1)


def cumulative_simpson(values, h: float, out=None) -> NDArray[np.float64]:
    """Running integral over a uniform mesh, exact for cubics.

    Even prefixes use composite Simpson; odd prefixes use the last computed
    even prefix three nodes back plus a Simpson-3/8 block, except the first
    interval which uses the standard four-point opening rule. The rule runs
    along the last axis; leading axes hold independent integrands, such as
    the two rows of a panel array. out, if given, is a float array shaped
    like values and sharing no memory with it; the rule writes into it and
    makes only its two half-length sums.
    """
    f = np.atleast_1d(np.asarray(values, dtype=float))
    n = f.shape[-1] - 1
    if n < 4 or n % 2:
        raise QuadratureError("cumulative rule needs an even node count >= 5")
    out = np.empty_like(f) if out is None else out
    out[..., 0] = 0.0
    # the sums go to contiguous half-length arrays, worked on in place
    pairs = np.multiply(4.0, f[..., 1:-1:2])
    np.add(f[..., 0:-2:2], pairs, out=pairs)
    pairs += f[..., 2::2]
    pairs *= h / 3.0
    np.cumsum(pairs, axis=-1, out=out[..., 2::2])
    blocks = np.multiply(3.0, f[..., 1:-2:2])
    np.add(f[..., 0:-3:2], blocks, out=blocks)
    blocks += np.multiply(3.0, f[..., 2:-1:2], out=pairs[..., 1:])
    blocks += f[..., 3::2]
    blocks *= 3.0 * h / 8.0
    out[..., 1] = (h / 24.0) * (9.0 * f[..., 0] + 19.0 * f[..., 1]
                                - 5.0 * f[..., 2] + f[..., 3])
    np.add(out[..., 0:-3:2], blocks, out=out[..., 3::2])
    return out


class _Stencil:
    """Four-point Lagrange stencils at fixed points of a uniform grid.

    Locating the stencils depends only on the grid and the points; applying
    them along the last axis of node values is four products summed in
    order. The k-th node of every stencil is gathered from the view
    f[..., k:] at the stencils' start, so no shifted index array is built.
    """

    def __init__(self, a: float, h: float, npts: int, x):
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        cell = np.floor((xq - a) / h).astype(int)
        self.start = np.clip(cell - 1, 0, npts - 4)
        t = (xq - (a + self.start * h)) / h
        t0, t1, t2, t3 = t, t - 1.0, t - 2.0, t - 3.0
        self.weights = (-t1 * t2 * t3 / 6.0, t0 * t2 * t3 / 2.0,
                        -t0 * t1 * t3 / 2.0, t0 * t1 * t2 / 6.0)

    def __call__(self, f: NDArray[np.float64], out=None) -> NDArray[np.float64]:
        s, (w0, *weights) = self.start, self.weights
        # mode="clip" lets take write to out unbuffered; s is in range
        out = f.take(s, axis=-1, out=out, mode="clip")
        out *= w0
        term = np.empty_like(out)
        for k, w in enumerate(weights, start=1):
            f[..., k:].take(s, axis=-1, out=term, mode="clip")
            out += np.multiply(term, w, out=term)
        return out


class _Points:
    """Points as a memo key: hashed on a few samples, equal bit for bit."""

    def __init__(self, xq: NDArray[np.float64]):
        self.xq = xq

    def __hash__(self) -> int:
        return hash((self.xq.shape, *self.xq.flat[::1 + self.xq.size // 8]))

    def __eq__(self, other) -> bool:
        return np.array_equal(self.xq.view(np.uint64),
                              other.xq.view(np.uint64))


@lru_cache(maxsize=2)
def _located(a: float, h: float, npts: int, points: _Points) -> _Stencil:
    """The stencil of one point set, keyed on the points' content.

    Two entries hold the substituted points of both panels of a mesh. A
    point that is nan or lies off [a, a + (npts - 1) h] by more than a
    rounding slack is refused rather than extrapolated.
    """
    # runs on a miss only: the key the memo keeps gets a private copy
    xq = points.xq = points.xq.copy()
    slack = 1e-9 * h
    if not ((xq >= a - slack) & (xq <= a + (npts - 1) * h + slack)).all():
        raise QuadratureError("interpolation point off the grid "
                              f"[{a}, {a + (npts - 1) * h}]")
    return _Stencil(a, h, npts, xq)


def interp_uniform(a: float, h: float, values: NDArray, x) -> NDArray[np.float64]:
    """Local cubic (four-point Lagrange) interpolation on a uniform grid."""
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.size < 4:
        raise QuadratureError("interpolation needs 1-D values on >= 4 nodes")
    xq = np.asarray(x, dtype=float)
    out = _located(a, h, f.size, _Points(xq))(f)
    return out if np.ndim(x) else float(out[0])


@dataclass
class PanelFn:
    """Node values on one panel with cubic interpolation off the nodes."""

    mesh: PanelMesh
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.m + 1,):
            raise QuadratureError("value count does not match the mesh")

    def __call__(self, x):
        return interp_uniform(self.mesh.a, self.mesh.h, self.values, x)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass
class GridFunction:
    """A function on (0, 1) stored per panel, one-sided at the interface."""

    left: PanelFn
    right: PanelFn

    def __call__(self, x):
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        if not ((xq >= 0.0) & (xq <= 1.0)).all():
            raise QuadratureError("GridFunction is defined on [0, 1] only")
        out = np.empty_like(xq)
        mask = xq <= INTERFACE
        if mask.any():
            out[mask] = np.atleast_1d(self.left(xq[mask]))
        if (~mask).any():
            out[~mask] = np.atleast_1d(self.right(xq[~mask]))
        return out if np.ndim(x) else float(out[0])

    @property
    def sup_norm(self) -> float:
        return max(self.left.sup, self.right.sup)


class _Substitution:
    """t = sqrt(|1/2 - s|) on both panels of an m-mesh, located once.

    Holds the step of the uniform t-mesh, the points x(t) on it as a
    read-only panel array, and per panel the back map: the cubic stencils
    at the value of t of each panel node.
    """

    def __init__(self, m: int):
        self.meshes = tuple(PanelMesh(panel, m) for panel in ("left", "right"))
        t_top = sqrt(INTERFACE)
        t = np.linspace(0.0, t_top, m + 1)
        self.ht = t_top / m
        self.xs = np.stack([INTERFACE - t * t, INTERFACE + t * t])
        self.xs.flags.writeable = False
        self.back = tuple(_Stencil(0.0, self.ht, m + 1,
                                   np.sqrt(np.abs(INTERFACE - mesh.nodes)))
                          for mesh in self.meshes)

    def at_points(self, g) -> NDArray[np.float64]:
        """The panel array g at x(t), one interpolation per panel."""
        return np.stack([interp_uniform(mesh.a, mesh.h, row, xs)
                         for mesh, row, xs in zip(self.meshes, g, self.xs)])

    def running(self, psi) -> NDArray[np.float64]:
        """Running integrals at the panel nodes of integrands psi of t.

        psi is panel first; one call integrates it on the uniform t-mesh,
        and each panel's back map takes its running t-integrals to its nodes.
        psi is spent: its rows take the back maps.
        """
        run = cumulative_simpson(psi, self.ht)
        left, right = self.back
        back = left(run[0], out=psi[0])
        np.multiply(2.0, np.subtract(run[0, ..., -1:], back, out=back),
                    out=run[0])
        np.multiply(2.0, right(run[1], out=psi[1]), out=run[1])
        run[..., 0] = 0.0
        return run


@lru_cache(maxsize=2)
def _substitution(m: int) -> _Substitution:
    """The substitution of an m-mesh; two meshes fit."""
    return _Substitution(m)


def weighted_cumulative(g) -> NDArray[np.float64]:
    """Running integral of |1/2 - s|**-0.5 * g(s) from each panel's start.

    g is a (2, M+1) panel array. The interface weight is removed by
    t = sqrt(|1/2 - s|): the transformed integrand g(x(t)) is smooth in t.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or len(g) != 2:
        raise QuadratureError("weighted rule needs a (2, M+1) panel array")
    sub = _substitution(g.shape[1] - 1)
    return sub.running(sub.at_points(g))


def sine_sweep(cosx, sinx, c_part, s_part, w: float, out=None):
    """Sine-kernel convolution and its x-derivative from cos/sin cumulants.

    c_part and s_part integrate f(s)*cos(w*s) and f(s)*sin(w*s) over the
    sweep range; cosx and sinx are cos(w*x) and sin(w*x). out, if given,
    is the pair of arrays the two results are written into.
    """
    u, du = (None, None) if out is None else out
    u = np.multiply(sinx, c_part, out=u)
    u -= np.multiply(cosx, s_part, out=du)
    u /= w
    du = np.multiply(cosx, c_part, out=du)
    du += sinx * s_part
    return u, du


def kernel_convolution(lambda0: float, f: PanelFn, direction: str):
    """Convolve the smooth panel field with sin(w*(x - s))/w, w = sqrt(lambda0).

    direction "from-left" integrates from the panel start to x; "from-right"
    integrates from x to the panel end. The kernel splits into products of
    cos(w*s) and sin(w*s) with trigonometric factors of x, so the whole
    sweep costs two running integrals, taken in one quadrature call.
    """
    # `not <` also refuses nan, which `lambda0 <= 0.0` lets through
    if not 0.0 < lambda0 < inf:
        raise QuadratureError("kernel needs a finite lambda0 > 0")
    if direction not in ("from-left", "from-right"):
        raise QuadratureError(f"unknown direction: {direction!r}")
    w = sqrt(lambda0)
    mesh = f.mesh
    trig = np.stack([np.cos(w * mesh.nodes), np.sin(w * mesh.nodes)])
    run = cumulative_simpson(f.values * trig, mesh.h)
    if direction == "from-right":
        run = run[:, -1:] - run
    return PanelFn(mesh, sine_sweep(*trig, *run, w)[0])
