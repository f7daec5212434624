"""Independent cross-check: shooting across the interface jump.

Integrates the initial-value form of the equation with the DOP853
Runge-Kutta pair (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and
II.10), applies the unit slope jump at the interface, and root-finds the
terminal boundary defect over lambda. The integrator is solve_ivp's
DOP853, with its tableau, initial step, error norm and step control, run
on Python floats for the 2-vector (u, u'). The tableau is carried here as
float constants. A problem's first shot generates one straight-line
function from it that integrates a leg: the initial step, the step
control, the twelve stages, the new state and both error sums of a step,
each sum written out over its nonzero coefficients, and the right-hand
side written out at each stage, q and N by Horner's rule on their literal
coefficients. A bounded cache keeps the function for later shots of the
same problem. A step makes no function call (a tabulated potential makes
one per stage), no loop, no list and no numpy array, and nothing outlives
a shot. The root finder is a port of scipy's brentq, so the module
imports nothing from scipy. Only smooth potentials are supported; the
fixed slope at the origin removes the scaling freedom, so lambda is the
single unknown.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import FLUX_JUMP, INTERFACE, SLOPE_AT_ZERO, TransmissionProblem


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
    change, so a caller can move on to its next bracket; so do a lam that
    is not finite and a tol that is not finite and positive.
    """
    if not math.isfinite(lam):
        raise ValueError(f"shooting needs a finite lambda, not {lam}")
    _check_tol(tol)
    q = problem.potential
    if q.is_singular:
        raise ValueError("shooting requires a potential that is finite on "
                         "each panel; validate singular problems through "
                         "the integrated residual instead")
    leg = _leg(q.coeffs if q.kind == "polynomial" else None,
               problem.nonlinearity.coeffs)
    xs, us, dus, nfev = [], [], [], 0
    state = (0.0, SLOPE_AT_ZERO)
    for a, b in ((0.0, INTERFACE), (INTERFACE, 1.0)):
        x, u, du, calls = leg(q, lam, a, b, *state, tol, tol * 1e-3)
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
# Accepted steps per leg before a shot gives up; an ex1 leg takes about 40.
_MAX_STEPS = 10_000

# DOP853's tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5), the
# coefficients of solve_ivp's DOP853 as exact floats. Each sum keeps only its
# nonzero (stage, coefficient) pairs, in stage order: a zero term would add
# +-0.0, which changes at most the sign of a zero sum. A non-finite stage
# reaches B and E5 through the nonzero entries, except the last one (f at
# the new point), whose error weights are all zero; E5 keeps that 0.0 so
# that 0 * inf = nan rejects the step, as in solve_ivp.
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

# One leg of solve_ivp(method="DOP853") on Python floats: its initial step
# (select_initial_step), RMS error norm and step control, with no max_step.
# _leg fills in the stages, the new point and the error sums from the
# tableau, and the right-hand side at a and at the initial step's probe.
# Inside the step loop min and max are written as the comparisons they
# make, which saves the calls. Overflow shows up as inf or nan, which the
# error norm rejects until the step is too small, so it raises the same
# ValueError as a stiff problem; so does a leg that needs more than
# _MAX_STEPS steps, where solve_ivp would step on for ever.
_LEG_SOURCE = """\
def leg(q, lam, a, b, u, v, rtol, atol):
    x, k0u = a, v
    {rhs_at_a}
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    p, r = u / su, v / sv
    d0 = sqrt(p * p + r * r) / SQRT2
    p, r = k0u / su, k0v / sv
    d1 = sqrt(p * p + r * r) / SQRT2
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, b - a)
    t, w, gu = a + h0, u + h0 * k0u, v + h0 * k0v
    {rhs_at_probe}
    p, r = (gu - k0u) / su, (gv - k0v) / sv
    d2 = div(sqrt(p * p + r * r) / SQRT2, h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100 * h0, h1, b - a)
    nfev = 2
    xs, us, vs = [x], [u], [v]
    while x < b:
        if len(xs) > {max_steps}:
            raise failed(a, b, "more than {max_steps} steps.")
        min_step = 10 * (nextafter(x, inf) - x)
        if min_step > h_abs:
            h_abs = min_step
        rejected = False
        while True:
            # `not >=` also stops a nan step, where solve_ivp would loop
            if not h_abs >= min_step:
                raise failed(a, b, "Required step size is less than "
                                   "spacing between numbers.")
            x_new = x + h_abs
            if b < x_new:
                x_new = b
            h = x_new - x
            {stages}
            {new_point}
            nfev += {nfev_per_step}
            p, r = abs(u), abs(u_new)
            su = atol + (r if r > p else p) * rtol
            p, r = abs(v), abs(v_new)
            sv = atol + (r if r > p else p) * rtol
            p, r = ({e5u}) / su, ({e5v}) / sv
            err5 = p * p + r * r
            p, r = ({e3u}) / su, ({e3v}) / sv
            denom = err5 + 0.01 * (p * p + r * r)
            error_norm = h * err5 / sqrt(denom * 2) if denom else 0.0
            if error_norm < 1:
                factor = ({max_factor} if error_norm == 0 else
                          min({max_factor},
                              {safety} * error_norm ** {exponent}))
                if rejected:
                    factor = min(1, factor)
                h_abs = h * factor
                break
            h_abs = h * max({min_factor}, {safety} * error_norm ** {exponent})
            rejected = True
        x, u, v, k0u, k0v = x_new, u_new, v_new, k{last}u, k{last}v
        xs.append(x)
        us.append(u)
        vs.append(v)
    return xs, us, vs, nfev
"""


def _failed(a: float, b: float, reason: str) -> ValueError:
    return ValueError(f"integration failed on [{a}, {b}]: {reason}")


def _horner(var: str, coeffs, arg: str,
            from_top: bool) -> tuple[list[str], str]:
    """model.horner(coeffs, arg) as lines that compute it into var.

    Returns the lines and the expression of the value. The operands and
    order are model.horner's, each coefficient written as its repr (the
    names inf and nan cover the non-finite ones), less each zero
    coefficient, which can change only the sign of a zero. With from_top
    the rule starts from the top nonzero coefficient c instead of
    0.0 * arg + c, which differs only where arg is not finite.
    """
    value, lines = "0.0", []
    for c in reversed(coeffs):
        if from_top and value == "0.0":
            value = repr(c) if c else "0.0"
        else:
            lines.append(f"{var} = {value} * {arg}"
                         + (f" + {c!r}" if c else ""))
            value = var
    return lines, value


@functools.lru_cache(maxsize=16)
def _leg(q_coeffs: tuple[float, ...] | None,
         n_coeffs: tuple[float, ...]):
    """A problem's DOP853 leg as straight-line code, generated on first use.

    q_coeffs are the potential's coefficients, None for a tabulated one,
    and n_coeffs N's a_1..a_d. The returned leg(q, lam, a, b, u, v, rtol,
    atol) integrates (u, v)' = (v, (q(x) - lam) u + N(u)) from (u, v) at a
    to b > a and returns the accepted nodes and states, starting at a and
    ending at b, and the number of right-hand side evaluations. q is the
    PotentialSpec, which the leg calls only when it is tabulated.

    The right-hand side is written out at each evaluation by _horner. q
    starts from its top coefficient: x is finite (at the initial step's
    probe it can be nan, but only together with u). N starts from 0.0 * u
    at a and at the probe, so an infinite u gives nan as in model.horner,
    and from its top coefficient inside a step, where a u that is not
    finite makes the stage, the error sums and the error norm non-finite
    either way, and the step is rejected alike.

    Stage j is (k{j}u, k{j}v), k{j}u being the v of its point. Each stage,
    solution and error sum is c * k_j + ..., left to right over the
    tableau's pairs, which is the loop "s = 0.0; s += c * k_j" less its
    0.0 start. What is left out can change only the sign of a zero, and
    from a start that is not -0.0, which is every start shoot makes, such
    a sign never reaches a state, a node or a step size: a state moves as
    s + y, which is -0.0 only when s is, q enters only through q - lam,
    and k_j only through these sums and squares. So a leg is bit-identical
    to that loop calling PotentialSpec and NonlinearitySpec on 0-d arrays.
    """
    def rhs(x, u, out, in_step=True):
        if q_coeffs is None:
            q_lines, qx = [f"p = float(q({x}))"], "p"
        else:
            q_lines, qx = _horner("p", q_coeffs, x, from_top=True)
        n_lines, nu = _horner("n", (0.0,) + n_coeffs, u, from_top=in_step)
        return [*q_lines, *n_lines, f"{out} = ({qx} - lam) * {u} + {nu}"]

    def total(pairs, part):
        return " + ".join(f"{coef!r} * k{j}{part}" for j, coef in pairs)

    last = len(_A) + 1
    stages = []
    for s, (row, c) in enumerate(zip(_A, _C), start=1):
        stages += [f"t = x + {c!r} * h",
                   f"w = u + ({total(row, 'u')}) * h",
                   f"k{s}u = v + ({total(row, 'v')}) * h",
                   *rhs("t", "w", f"k{s}v")]
    new_point = [f"u_new = u + h * ({total(_B, 'u')})",
                 f"k{last}u = v_new = v + h * ({total(_B, 'v')})",
                 "t = x + h",
                 *rhs("t", "u_new", f"k{last}v")]
    source = _LEG_SOURCE.format(
        rhs_at_a="\n    ".join(rhs("x", "u", "k0v", in_step=False)),
        rhs_at_probe="\n    ".join(rhs("t", "w", "gv", in_step=False)),
        stages="\n            ".join(stages),
        new_point="\n            ".join(new_point),
        e5u=total(_E5, "u"), e5v=total(_E5, "v"),
        e3u=total(_E3, "u"), e3v=total(_E3, "v"),
        last=last, nfev_per_step=last, max_steps=_MAX_STEPS,
        safety=repr(_SAFETY), min_factor=repr(_MIN_FACTOR),
        max_factor=repr(_MAX_FACTOR), exponent=repr(_EXPONENT))
    namespace = {"sqrt": math.sqrt, "nextafter": math.nextafter,
                 "SQRT2": math.sqrt(2.0), "inf": math.inf,
                 "nan": math.nan, "failed": _failed, "div": _div}
    exec(compile(source, "<DOP853 leg>", "exec"), namespace)
    return namespace["leg"]


# The finest root tolerance: brentq adds 4 eps of the root to any tol,
# and that term alone passes 1e-13 for roots above 113.
MIN_TOL = 1e-13


def find_eigenvalue(problem: TransmissionProblem,
                    bracket: tuple[float, float],
                    tol: float = 1e-12) -> float:
    """Root of the miss function on the bracket, by brentq with shots at
    tol. Misses of one sign at both ends raise ValueError naming the
    bracket; a tol below MIN_TOL raises ValueError too."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    _check_tol(tol)
    if tol < MIN_TOL:
        raise ValueError(f"tolerance must be at least {MIN_TOL:g}, not {tol}")
    try:
        return _brentq(lambda lam: shoot(problem, lam, tol=tol).miss,
                       lo, hi, xtol=tol)
    except _NoSignChange:
        raise ValueError(f"the shooting value u(1) does not change sign "
                         f"on [{lo}, {hi}]") from None


def _check_tol(tol: float) -> None:
    # `not <` also refuses nan, which max() and brentq's xtol check pass on
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, not {tol}")


# scipy.optimize.brentq's defaults: rtol = 4 * eps and 100 iterations.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


class _NoSignChange(ValueError):
    """brentq's error for bracket ends whose f values share a sign."""


def _brentq(f, xa, xb, xtol):
    """Brent's root finder (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), ported line for line from scipy's brentq.c.

    The same iterates and f calls as scipy.optimize.brentq(f, xa, xb,
    xtol=xtol), and the same errors: ValueError for xtol <= 0, a nan f
    value or no sign change (as _NoSignChange), RuntimeError when 100
    iterations do not converge.
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
        raise _NoSignChange("f(a) and f(b) must have different signs")
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
    A leg's initial step divides by h0, which is 0 where f overflows at
    the leg's start, as solve_ivp's numpy division does.
    """
    if d != 0:
        return n / d
    if n == 0 or math.isnan(n):
        return math.nan
    return math.copysign(math.inf, n) * math.copysign(1.0, d)
