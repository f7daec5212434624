"""Independent cross-check: shooting across the interface jump.

Integrates the initial-value form of the equation with an adaptive
Runge-Kutta pair, applies the unit slope jump at the interface, and
root-finds the terminal boundary defect over lambda. Only smooth
potentials are supported; the fixed slope at the origin removes the
scaling freedom, so lambda is the single unknown.
"""

from __future__ import annotations

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
    from scipy.integrate import solve_ivp
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

    def rhs(x, y):
        u, du = y
        x, u = float(x), float(u)
        qx = horner(poly, x) if poly is not None else float(q(x))
        return (du, (qx - lam) * u + horner(n, u))

    legs = []
    state = (0.0, SLOPE_AT_ZERO)
    for a, b in ((0.0, INTERFACE), (INTERFACE, 1.0)):
        sol = solve_ivp(rhs, (a, b), state, method="DOP853",
                        rtol=tol, atol=tol * 1e-3)
        if not sol.status == 0:
            raise ValueError(f"integration failed on [{a}, {b}]: "
                             f"{sol.message}")
        legs.append(sol)
        state = (sol.y[0, -1], sol.y[1, -1] + FLUX_JUMP)
    first, second = legs
    return ShotResult(
        miss=float(second.y[0, -1]),
        x=np.concatenate([first.t, second.t]),
        u=np.concatenate([first.y[0], second.y[0]]),
        du=np.concatenate([first.y[1], second.y[1]]),
        nfev=first.nfev + second.nfev,
    )


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
