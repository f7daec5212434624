"""Independent cross-check: shooting across the interface jump.

Integrates the initial-value form of the equation with the DOP853
Runge-Kutta pair (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and
II.10), applies the unit slope jump at the interface, and root-finds the
terminal boundary defect over lambda. The integrator is solve_ivp's
DOP853, with its tableau, initial step, error norm and step control, run
on Python floats for the 2-vector (u, u'): a stage costs a dozen
multiply-adds, no numpy array, and nothing outlives a shot. scipy supplies
the tableau and brentq, imported on first use. Only smooth potentials are
supported; the fixed slope at the origin removes the scaling freedom, so
lambda is the single unknown.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (FLUX_JUMP, INTERFACE, SLOPE_AT_ZERO, TransmissionProblem,
                    horner)


@dataclass
class ShotResult:
    """Terminal miss plus the sampled trajectory and step statistics."""

    miss: float
    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    nfev: int


def shoot(problem: TransmissionProblem, lam: float,
          tol: float = 1e-10) -> ShotResult:
    """Integrate from x=0 with (u, u') = (0, 1) and report u(1).

    A failed integration raises ValueError, like a bracket without a sign
    change, so a caller can move on to its next bracket.
    """
    q = problem.potential
    if q.is_singular:
        raise ValueError("shooting requires a potential that is finite on "
                         "each panel; validate singular problems through "
                         "the integrated residual instead")
    # The model's Horner rule on Python floats: the operands and order of
    # PotentialSpec/NonlinearitySpec.__call__, so every shot is bit-identical,
    # without a 0-d numpy array per multiply and add.
    poly = q.coeffs if q.kind == "polynomial" else None
    n = (0.0,) + problem.nonlinearity.coeffs

    def rhs(x, u, du):
        qx = horner(poly, x) if poly is not None else float(q(x))
        return du, (qx - lam) * u + horner(n, u)

    xs, us, dus, nfev = [], [], [], 0
    state = (0.0, SLOPE_AT_ZERO)
    for a, b in ((0.0, INTERFACE), (INTERFACE, 1.0)):
        x, u, du, calls = _dop853(rhs, a, b, state, rtol=tol, atol=tol * 1e-3)
        xs += x
        us += u
        dus += du
        nfev += calls
        state = (u[-1], du[-1] + FLUX_JUMP)
    return ShotResult(miss=us[-1], x=np.array(xs), u=np.array(us),
                      du=np.array(dus), nfev=nfev)


# solve_ivp's step control for DOP853 (scipy/integrate/_ivp/rk.py): the
# error estimator has order 7, so a step scales with error_norm ** (-1/8).
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0
_SQRT2 = math.sqrt(2.0)


@functools.cache
def _tableau():
    """DOP853's A rows, C, B, E5 and E3 as Python floats.

    Read from the public class solve_ivp integrates with, so the two share
    one set of coefficients. Zero entries stay: 0 * inf is nan in solve_ivp's
    dot products, and an overflowing stage must be rejected here too.
    """
    from scipy.integrate import DOP853
    n = DOP853.n_stages
    return (tuple(tuple(DOP853.A[s, :s].tolist()) for s in range(1, n)),
            tuple(DOP853.C[1:n].tolist()), tuple(DOP853.B.tolist()),
            tuple(DOP853.E5.tolist()), tuple(DOP853.E3.tolist()))


def _dot(coefs, ku, kv):
    """sum_j coefs[j] * k[j] for each component, in stage order."""
    du = dv = 0.0
    for coef, kuj, kvj in zip(coefs, ku, kv):
        du += coef * kuj
        dv += coef * kvj
    return du, dv


def _sumsq(p, q):
    """p**2 + q**2 by products, which overflow to inf instead of raising."""
    return p * p + q * q


def _rms(p, q):
    """solve_ivp's RMS norm of a 2-vector."""
    return math.sqrt(_sumsq(p, q)) / _SQRT2


def _dop853(f, a, b, y0, rtol, atol):
    """Integrate (u, v)' = f(x, u, v) from a to b > a with DOP853.

    solve_ivp(method="DOP853")'s algorithm on Python floats: its tableau,
    initial step, RMS error norm and step control, with no max_step.
    Returns the accepted nodes and states, starting at a and ending at b,
    and the number of f calls. Overflow shows up as inf or nan, which the
    error norm rejects until the step is too small, so it raises the same
    ValueError as a stiff problem.
    """
    rows, nodes, weights, e5, e3 = _tableau()
    x, (u, v) = a, y0
    fu, fv = f(x, u, v)
    # select_initial_step
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(u / su, v / sv), _rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, b - a)
    gu, gv = f(a + h0, u + h0 * fu, v + h0 * fv)
    d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100 * h0, h1, b - a)
    nfev = 2
    xs, us, vs = [x], [u], [v]
    while x < b:
        min_step = 10 * (math.nextafter(x, math.inf) - x)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # `not >=` also stops a nan step, where solve_ivp would loop
            if not h_abs >= min_step:
                raise ValueError(f"integration failed on [{a}, {b}]: "
                                 "Required step size is less than spacing "
                                 "between numbers.")
            x_new = min(x + h_abs, b)
            h = x_new - x
            ku, kv = [fu], [fv]
            for row, c in zip(rows, nodes):
                du, dv = _dot(row, ku, kv)
                gu, gv = f(x + c * h, u + du * h, v + dv * h)
                ku.append(gu)
                kv.append(gv)
            du, dv = _dot(weights, ku, kv)
            u_new, v_new = u + h * du, v + h * dv
            fu_new, fv_new = f(x + h, u_new, v_new)
            ku.append(fu_new)
            kv.append(fv_new)
            nfev += len(ku) - 1
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = _dot(e5, ku, kv)
            e3u, e3v = _dot(e3, ku, kv)
            err5 = _sumsq(e5u / su, e5v / sv)
            denom = err5 + 0.01 * _sumsq(e3u / su, e3v / sv)
            error_norm = h * err5 / math.sqrt(denom * 2) if denom else 0.0
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs = h * factor
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        x, u, v, fu, fv = x_new, u_new, v_new, fu_new, fv_new
        xs.append(x)
        us.append(u)
        vs.append(v)
    return xs, us, vs, nfev


def find_eigenvalue(problem: TransmissionProblem,
                    bracket: tuple[float, float],
                    tol: float = 1e-12) -> float:
    """Root of the miss function on the bracket."""
    from scipy.optimize import brentq
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    shot_tol = max(tol, 1e-13)

    shots: dict[float, float] = {}

    def miss(lam: float) -> float:
        # brentq starts from the two bracket ends the sign check has shot
        if lam not in shots:
            shots[lam] = shoot(problem, lam, tol=shot_tol).miss
        return shots[lam]

    f_lo, f_hi = miss(lo), miss(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError(f"the shooting value u(1) does not change sign "
                         f"on [{lo}, {hi}]")
    return float(brentq(miss, lo, hi, xtol=tol))
