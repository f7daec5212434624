"""Majorant sequences and convergence diagnostics for the correction series.

The correction norms are dominated by scalar sequences built from the same
recurrence skeleton as the corrections themselves. Their generating function
has a finite radius of convergence R, and the series for a given branch
converges whenever r_n = 1/(a*R) < 1 with the branch scaling constant a.
The sequences grow like R**-j, so they are carried in a rescaled form
w_j = vbar_j * gamma**j with an adaptively tightened gamma; ratios of
consecutive terms are exact in either form.

The report takes R from the branch point of the inverse generating
function, exact when N is absent and conservative otherwise: the largest
value of the inverse map at the real roots of its critical-point
polynomial. The ratio test approaches R from above and stays a library
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .basis import zero_eigenvalue
from .fdcore import adomian
from .model import BranchId, NonlinearitySpec

V0 = 8.0 / 3.0
_RESCALE_AT = 1e100
_LOG_FLOAT_MAX = math.log(1.7e308)
_RATIO_WINDOW = 10


def radius_linear(q_norm: float) -> float:
    """Radius of convergence of the majorant generating function, N absent."""
    if not 0.0 <= q_norm < math.inf:  # `not` refuses nan as well
        raise ValueError("potential norm must be finite and non-negative")
    if q_norm == 0.0:
        return math.inf
    scale = 1.0 + 2.0 * V0 + 2.0 * math.sqrt(V0 * (1.0 + V0))
    product = (1.0 + V0) * q_norm * scale
    if math.isinf(product):  # q_norm above about 3.9e306; R is subnormal
        return 1.0 / ((1.0 + V0) * scale) / q_norm
    return 1.0 / product


def branch_constants(branch: BranchId) -> tuple[float, float]:
    """Scaling constants (a, b) entering the majorant normalization."""
    if branch.family == "I":
        root = math.sqrt(zero_eigenvalue(branch))
        return math.sqrt(3.0) * root / (2.0 + math.sqrt(3.0)), 3.0 / (8.0 * root)
    pin = math.pi * branch.n
    if branch.n % 2 == 0:
        return pin, 3.0 / (8.0 * pin)
    return pin, 1.0 / (8.0 * pin)


def convergence_ratio(branch: BranchId, radius: float) -> float:
    """Sufficient-condition ratio r_n = 1/(a * R) for the given branch."""
    if not radius > 0.0:  # `not` refuses nan as well
        raise ValueError("radius must be positive")
    if math.isinf(radius):
        return 0.0
    a, _ = branch_constants(branch)
    return 1.0 / (a * radius)


@dataclass
class MajorantState:
    """Dominating sequences in rescaled form.

    scaled[j] holds vbar_j * gamma**j under the current gamma. The second
    majorant satisfies mubar_j * (1 + v0) = vbar_j for j >= 1, so mu_bar()
    derives it. Reconstruction of the raw values can saturate to inf for
    long sequences; the flag records that, and ratios should always be
    taken through the ratios() method, which never leaves the
    representable range.
    """

    terms: int
    scaled: np.ndarray
    gamma: float
    overflowed: bool = False

    def log_vbar(self, j: int) -> float:
        if not 0 <= j <= self.terms:
            raise ValueError(f"term {j} not computed (have 0..{self.terms})")
        if self.scaled[j] == 0.0:
            return -math.inf
        return math.log(self.scaled[j]) - j * math.log(self.gamma)

    def vbar(self, j: int) -> float:
        lv = self.log_vbar(j)
        if lv == -math.inf:
            return 0.0
        return math.exp(lv) if lv < _LOG_FLOAT_MAX else math.inf

    def vbar_sequence(self) -> np.ndarray:
        return np.array([self.vbar(j) for j in range(self.terms + 1)])

    def mu_bar(self, j: int) -> float:
        if not 1 <= j <= self.terms:
            raise ValueError(f"term {j} not computed (have 1..{self.terms})")
        return self.vbar(j) / (1.0 + V0)

    def ratios(self) -> np.ndarray:
        """Consecutive ratios vbar_j / vbar_{j+1}, exact in scaled form."""
        w = self.scaled
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.gamma * w[:-1] / w[1:]
        return out


def majorant_sequence(q_norm: float, nbar: NonlinearitySpec | None,
                      terms: int) -> MajorantState:
    """Compute the dominating sequences up to index `terms`.

    nbar supplies the nonlinearity whose majorant (absolute coefficients)
    drives the recurrence; None or an empty spec gives the linear case. The
    first step uses the mean-value bound with the majorant derivative, later
    steps the eliminated recurrence with series terms of the majorant.
    """
    if terms < 1:
        raise ValueError("need at least one term beyond the start")
    if not 0.0 <= q_norm < math.inf:  # `not` refuses nan as well
        raise ValueError("potential norm must be finite and non-negative")
    bar = None
    if nbar is not None and not nbar.is_empty:
        bar = nbar.majorant_spec()
    w = np.zeros(terms + 1)
    w[0] = V0
    gamma = 1.0
    drive0 = q_norm * V0
    if bar is not None:
        drive0 += bar.majorant_derivative(V0) * V0
    w[1] = (1.0 + V0) * drive0
    overflowed = False
    for j in range(1, terms):
        quad = float(np.dot(w[1:j + 1][::-1], w[1:j + 1]))
        drive = q_norm * w[j]
        if bar is not None:
            drive += adomian(bar, w[:j + 1])
        w[j + 1] = quad + (1.0 + V0) * gamma * drive
        if w[j + 1] > _RESCALE_AT:
            sigma = (1.0 / w[j + 1]) ** (1.0 / (j + 1))
            w[:j + 2] *= sigma ** np.arange(j + 2)
            gamma *= sigma
            overflowed = True
    return MajorantState(terms=terms, scaled=w, gamma=gamma,
                         overflowed=overflowed)


def estimate_radius_nonlinear(state: MajorantState) -> float:
    """Ratio-test estimate of the generating function's radius.

    Takes the smallest of the last ten consecutive-term ratios as the
    lim-inf proxy.
    """
    if state.terms < _RATIO_WINDOW:
        raise ValueError("radius estimate needs at least 10 computed terms")
    if np.all(state.scaled[1:] == 0.0):
        return math.inf
    ratios = state.ratios()
    ratios = ratios[np.isfinite(ratios)]
    return float(np.min(ratios[-_RATIO_WINDOW:]))


def branch_point_radius(q_norm: float,
                        nbar: NonlinearitySpec | None) -> float:
    """Radius from the branch point of the inverse generating function.

    The inverse map z(g) = (g - g**2) / ((1 + v0) * D(g)), with f = v0 + g
    and D(g) = q * f + shift + Nbar(f) a polynomial with non-negative
    coefficients, rises from 0 at g = 0 and turns over at the square-root
    branch point. R is its largest value at the real parts of the roots in
    (0, 1) of the critical polynomial (1 - 2g) D - (g - g**2) D'; z never
    exceeds R on (0, 1), so a spurious candidate cannot raise it. The
    linear case is radius_linear.
    """
    if not 0.0 <= q_norm < math.inf:  # `not` refuses nan as well
        raise ValueError("potential norm must be finite and non-negative")
    if nbar is None or nbar.is_empty:
        return radius_linear(q_norm)
    bar = nbar.majorant_spec()
    shift = bar.majorant_derivative(V0) * V0 - bar.majorant(V0)
    # D(g) = Nbar(v0 + g) by Horner's rule on coefficient arrays, + q*f + shift
    denom = np.zeros(1)
    for a in reversed((0.0,) + bar.coeffs):
        denom = np.convolve(denom, (V0, 1.0))
        denom[0] += a
    denom[:2] += (q_norm * V0 + shift, q_norm)
    crit = (np.convolve((1.0, -2.0), denom)
            - np.convolve((0.0, 1.0, -1.0), P.polyder(denom)))
    # drop leading coefficients at roundoff level: a subnormal one
    # overflows the companion matrix
    crit = P.polytrim(crit, np.finfo(float).eps * np.abs(crit).max())
    g = P.polyroots(crit).real
    g = g[(g > 0.0) & (g < 1.0)]
    if not g.size:
        raise ValueError("the inverse generating function has no critical "
                         "point in (0, 1)")
    f = V0 + g
    # a subnormal D puts R past the float range: it reads inf
    with np.errstate(over="ignore", divide="ignore"):
        z = (g - g * g) / ((1.0 + V0) * (q_norm * f + shift + bar.majorant(f)))
    return float(z.max())


@dataclass
class DecayReport:
    """Computable part of the error bound at one rank."""

    ratio: float
    rank: int
    factor: float
    condition_satisfied: bool
    message: str


def decay_report(r_n: float, m: int) -> DecayReport:
    """Decay factor r_n**m / (m+1), saturating to inf, and its reading."""
    if not r_n >= 0.0:  # `not` refuses nan as well
        raise ValueError("ratio must be non-negative")
    if m < 0:
        raise ValueError("rank must be non-negative")
    try:
        factor = r_n ** m / (m + 1)
    except OverflowError:
        factor = math.inf
    if r_n < 1.0:
        message = "sufficient condition satisfied; superexponential decay"
    elif r_n == 1.0:
        message = "boundary case; bound still decays like 1/(m+1)"
    else:
        message = ("condition not satisfied; empirical convergence "
                   "may still occur")
    return DecayReport(ratio=r_n, rank=m, factor=factor,
                       condition_satisfied=r_n < 1.0, message=message)


@dataclass
class ConvergenceReport:
    """Branch-level convergence diagnostics serialized by the CLI."""

    q_norm: float
    radius: float
    ratio: float
    condition_satisfied: bool
    decay_factors: list[float]
    message: str

    def as_dict(self) -> dict:
        return asdict(self)


def convergence_report(q_norm: float, nbar: NonlinearitySpec | None,
                       branch: BranchId, rank: int) -> ConvergenceReport:
    """Assemble the diagnostics for one branch at the requested rank."""
    radius = branch_point_radius(q_norm, nbar)
    ratio = convergence_ratio(branch, radius)
    reports = [decay_report(ratio, m) for m in range(rank + 1)]
    return ConvergenceReport(
        q_norm=q_norm, radius=radius, ratio=ratio,
        condition_satisfied=ratio < 1.0,
        decay_factors=[r.factor for r in reports],
        message=reports[-1].message,
    )
