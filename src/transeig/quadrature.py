"""Panel meshes, cumulative Simpson integration, and the sine-kernel convolution.

Everything operates on the two panels [0, 1/2] and [1/2, 1] with uniform
nodes. Running integrals anchor at the panel's left endpoint. They run
along the last axis, so one call integrates both rows of a (2, M+1) panel
array, the form in which the solver keeps its fields (left panel in row 0,
right panel in row 1). The weighted variant removes the built-in
|1/2 - x|**-0.5 interface singularity with the substitution
t = sqrt(|1/2 - x|) and integrates a smooth function of t, one panel at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

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


def cumulative_simpson(values, h: float) -> NDArray[np.float64]:
    """Running integral over a uniform mesh, exact for cubics.

    Even prefixes use composite Simpson; odd prefixes use the last computed
    even prefix three nodes back plus a Simpson-3/8 block, except the first
    interval which uses the standard four-point opening rule. The rule runs
    along the last axis; leading axes hold independent integrands, such as
    the two rows of a panel array.
    """
    f = np.atleast_1d(np.asarray(values, dtype=float))
    n = f.shape[-1] - 1
    if n < 4 or n % 2:
        raise QuadratureError("cumulative rule needs an even node count >= 5")
    out = np.empty_like(f)
    out[..., 0] = 0.0
    pairs = (h / 3.0) * (f[..., 0:-2:2] + 4.0 * f[..., 1:-1:2]
                         + f[..., 2::2])
    out[..., 2::2] = np.cumsum(pairs, axis=-1)
    out[..., 1] = (h / 24.0) * (9.0 * f[..., 0] + 19.0 * f[..., 1]
                                - 5.0 * f[..., 2] + f[..., 3])
    out[..., 3::2] = out[..., 0:-3:2] + (3.0 * h / 8.0) * (
        f[..., 0:-3:2] + 3.0 * f[..., 1:-2:2] + 3.0 * f[..., 2:-1:2]
        + f[..., 3::2]
    )
    return out


class _Stencil:
    """Four-point Lagrange stencils at fixed points of a uniform grid.

    Locating the stencils depends only on the grid and the points; applying
    them to node values is four products summed in order.
    """

    def __init__(self, a: float, h: float, npts: int, x):
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        cell = np.floor((xq - a) / h).astype(int)
        self.start = np.clip(cell - 1, 0, npts - 4)
        t = (xq - (a + self.start * h)) / h
        t0, t1, t2, t3 = t, t - 1.0, t - 2.0, t - 3.0
        self.w0 = -t1 * t2 * t3 / 6.0
        self.w1 = t0 * t2 * t3 / 2.0
        self.w2 = -t0 * t1 * t3 / 2.0
        self.w3 = t0 * t1 * t2 / 6.0

    def __call__(self, f: NDArray[np.float64]) -> NDArray[np.float64]:
        s = self.start
        return (self.w0 * f[s] + self.w1 * f[s + 1]
                + self.w2 * f[s + 2] + self.w3 * f[s + 3])


def interp_uniform(a: float, h: float, values: NDArray, x) -> NDArray[np.float64]:
    """Local cubic (four-point Lagrange) interpolation on a uniform grid."""
    f = np.asarray(values, dtype=float)
    out = _Stencil(a, h, f.size, x)(f)
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

    @classmethod
    def from_callable(cls, mesh: PanelMesh, fn) -> "PanelFn":
        return cls(mesh, np.asarray(fn(mesh.nodes), dtype=float))

    @classmethod
    def zeros(cls, mesh: PanelMesh) -> "PanelFn":
        return cls(mesh, np.zeros(mesh.m + 1))

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
    """t = sqrt(|1/2 - s|) on one panel, located once per mesh.

    Holds the step of the uniform t-mesh, the points x(t) on it, and the
    cubic stencils at the value of t of each panel node.
    """

    def __init__(self, mesh: PanelMesh):
        t_top = sqrt(mesh.b - mesh.a)
        t = np.linspace(0.0, t_top, mesh.m + 1)
        self.left = mesh.panel == "left"
        self.ht = t_top / mesh.m
        self.xs = INTERFACE - t * t if self.left else INTERFACE + t * t
        self.xs.flags.writeable = False
        self.back = _Stencil(0.0, self.ht, mesh.m + 1,
                             np.sqrt(np.abs(INTERFACE - mesh.nodes)))

    def running(self, psi) -> NDArray[np.float64]:
        """Running integral at the panel nodes of a transformed integrand.

        psi(t) is integrated on the uniform t-mesh and the running t-integral
        is mapped back to the nodes by the cubic stencils.
        """
        big_psi = cumulative_simpson(psi, self.ht)
        if self.left:
            out = 2.0 * (big_psi[-1] - self.back(big_psi))
        else:
            out = 2.0 * self.back(big_psi)
        out[0] = 0.0
        return out


@lru_cache(maxsize=4)
def _substitution(mesh: PanelMesh) -> _Substitution:
    """The substitution of a panel mesh; both panels of two meshes fit."""
    return _Substitution(mesh)


def weighted_cumulative(g: PanelFn) -> NDArray[np.float64]:
    """Running integral of |1/2 - s|**-0.5 * g(s) from the panel start.

    The interface weight is removed by t = sqrt(|1/2 - s|): the transformed
    integrand g(x(t)) is smooth in t.
    """
    sub = _substitution(g.mesh)
    return sub.running(g(sub.xs))


def _weighted_trig(g: PanelFn, cos_xs, sin_xs):
    """weighted_trig_cumulants given cos(w*x) and sin(w*x) at the x(t)."""
    sub = _substitution(g.mesh)
    gx = g(sub.xs)
    return sub.running(gx * cos_xs), sub.running(gx * sin_xs)


def weighted_trig_cumulants(g: PanelFn, w: float):
    """Weighted running integrals of g(s)*cos(w*s) and g(s)*sin(w*s).

    g is interpolated once at the transformed points; the trigonometric
    factors are evaluated there exactly.
    """
    xs = _substitution(g.mesh).xs
    return _weighted_trig(g, np.cos(w * xs), np.sin(w * xs))


def sine_sweep(cosx, sinx, c_part, s_part, w: float):
    """Sine-kernel convolution and its x-derivative from cos/sin cumulants.

    c_part and s_part integrate f(s)*cos(w*s) and f(s)*sin(w*s) over the
    sweep range; cosx and sinx are cos(w*x) and sin(w*x).
    """
    return (sinx * c_part - cosx * s_part) / w, cosx * c_part + sinx * s_part


def kernel_convolution(lambda0: float, f: PanelFn, direction: str,
                       with_derivative: bool = False):
    """Convolve the smooth panel field with sin(w*(x - s))/w, w = sqrt(lambda0).

    direction "from-left" integrates from the panel start to x; "from-right"
    integrates from x to the panel end. The kernel splits into products of
    cos(w*s) and sin(w*s) with trigonometric factors of x, so the whole
    sweep costs two running integrals. With with_derivative the analytic
    x-derivative of the convolution (cosine kernel) is returned alongside.
    """
    if lambda0 <= 0.0:
        raise QuadratureError("kernel needs lambda0 > 0")
    if direction not in ("from-left", "from-right"):
        raise QuadratureError(f"unknown direction: {direction!r}")
    w = sqrt(lambda0)
    mesh = f.mesh
    x = mesh.nodes
    cosx = np.cos(w * x)
    sinx = np.sin(w * x)
    c_run = cumulative_simpson(f.values * cosx, mesh.h)
    s_run = cumulative_simpson(f.values * sinx, mesh.h)
    if direction == "from-right":
        c_run, s_run = c_run[-1] - c_run, s_run[-1] - s_run
    g, dg = sine_sweep(cosx, sinx, c_run, s_run, w)
    if with_derivative:
        return PanelFn(mesh, g), PanelFn(mesh, dg)
    return PanelFn(mesh, g)
