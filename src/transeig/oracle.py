"""Independent cross-check: shooting across the interface jump.

Integrates the initial-value form of the equation with the DOP853
Runge-Kutta pair (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and
II.10), applies the unit slope jump at the interface, and root-finds the
terminal boundary defect over lambda. The integrator is solve_ivp's
DOP853, with its tableau, initial step, error norm and step control, run
on Python floats for the 2-vector (u, u'): the tableau is carried here as
float constants, a stage sums only its nonzero coefficients, no numpy array
is made per stage, and nothing outlives a shot. The root finder is a port
of scipy's brentq, so the module imports nothing from scipy. Only smooth
potentials are supported; the fixed slope at the origin removes the
scaling freedom, so lambda is the single unknown.
"""

from __future__ import annotations

import math
import sys
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
# Accepted steps per leg before a shot gives up; an ex1 leg takes about 40.
_MAX_STEPS = 10_000

# DOP853's tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5), the
# coefficients of solve_ivp's DOP853 as exact floats. Each sum keeps only its
# nonzero (stage, coefficient) pairs, in stage order: from a +0.0 start a
# zero term adds +-0.0, which leaves the sum unchanged, so a finite step is
# bit-identical to the dense dot. A non-finite stage reaches B and E5 through
# the nonzero entries, except the last one (f at the new point), whose error
# weights are all zero; E5 keeps that 0.0 so that 0 * inf = nan rejects the
# step, as in solve_ivp.
_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861),
     (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386),
     (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998),
     (4, 0.10726203044637328), (5, -0.015319437748624402),
     (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414),
     (4, -0.868219346841726), (5, 27.59209969944671),
     (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677),
     (4, -0.590290826836843), (5, 21.230051448181193),
     (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064),
     (4, 1.0914373489967295), (5, -8.149787010746927),
     (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725),
     (4, -2.0008720582248625), (5, -17.9589318631188),
     (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303),
     (10, 0.6433927460157636)),
)
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409),
      (6, 1.8915178993145003), (7, -5.801203960010585),
      (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044),
       (6, -0.4957589496572502), (7, 1.6643771824549864),
       (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294), (12, 0.0))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409),
       (6, 1.8915178993145003), (7, -5.801203960010585),
       (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))


def _dot(pairs, ku, kv):
    """sum_j coef_j * k[j] for each component, over (j, coef_j) pairs."""
    du = dv = 0.0
    for j, coef in pairs:
        du += coef * ku[j]
        dv += coef * kv[j]
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
    ValueError as a stiff problem; so does a leg that needs more than
    _MAX_STEPS steps, where solve_ivp would step on for ever.
    """
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
        if len(xs) > _MAX_STEPS:
            raise ValueError(f"integration failed on [{a}, {b}]: more than "
                             f"{_MAX_STEPS} steps.")
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
            for row, c in zip(_A, _C):
                du, dv = _dot(row, ku, kv)
                gu, gv = f(x + c * h, u + du * h, v + dv * h)
                ku.append(gu)
                kv.append(gv)
            du, dv = _dot(_B, ku, kv)
            u_new, v_new = u + h * du, v + h * dv
            fu_new, fv_new = f(x + h, u_new, v_new)
            ku.append(fu_new)
            kv.append(fv_new)
            nfev += len(ku) - 1
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = _dot(_E5, ku, kv)
            e3u, e3v = _dot(_E3, ku, kv)
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
    return _brentq(miss, lo, hi, xtol=tol)


# scipy.optimize.brentq's defaults: rtol = 4 * eps and 100 iterations.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa, xb, xtol):
    """Brent's root finder (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), ported line for line from scipy's brentq.c.

    The same iterates and f calls as scipy.optimize.brentq(f, xa, xb,
    xtol=xtol), and the same errors: ValueError for xtol <= 0, a nan f
    value or no sign change, RuntimeError when 100 iterations do not
    converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} "
                       "iterations.")


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def _div(n: float, d: float) -> float:
    """n / d as C divides doubles: a zero d gives inf or nan, not an error.

    brentq.c divides by products of tiny f values that can underflow to 0;
    the inf or nan step then fails the short-step test and Brent bisects.
    """
    if d != 0:
        return n / d
    if n == 0 or math.isnan(n):
        return math.nan
    return math.copysign(math.inf, n) * math.copysign(1.0, d)
