"""Majorant sequences and convergence diagnostics for the correction series.

The correction norms are dominated by scalar sequences built from the same
recurrence skeleton as the corrections themselves. Their generating function
has a finite radius of convergence R, and the series for a given branch
converges whenever r_n = 1/(a*R) < 1 with the branch scaling constant a.
The sequences grow like R**-j, so they are carried in a rescaled form
w_j = vbar_j * gamma**j with an adaptively tightened gamma; ratios of
consecutive terms are exact in either form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .basis import zero_eigenvalue
from .fdcore import adomian
from .model import BranchId, NonlinearitySpec

V0 = 8.0 / 3.0
_RESCALE_AT = 1e100
_LOG_FLOAT_MAX = math.log(1.7e308)


def radius_linear(q_norm: float) -> float:
    """Radius of convergence of the majorant generating function, N absent."""
    if q_norm < 0.0:
        raise ValueError("potential norm must be non-negative")
    if q_norm == 0.0:
        return math.inf
    return 1.0 / ((1.0 + V0) * q_norm
                  * (1.0 + 2.0 * V0 + 2.0 * math.sqrt(V0 * (1.0 + V0))))


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
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if math.isinf(radius):
        return 0.0
    a, _ = branch_constants(branch)
    return 1.0 / (a * radius)


@dataclass
class MajorantState:
    """Dominating sequences in rescaled form.

    scaled[j] holds vbar_j * gamma**j and scaled_mu[j] holds
    mubar_j * gamma**j, both under the current gamma. Reconstruction of the
    raw values can saturate to inf for long sequences; the flag records
    that, and ratios should always be taken through the ratios() method,
    which never leaves the representable range.
    """

    q_norm: float
    nbar: NonlinearitySpec
    terms: int
    scaled: np.ndarray
    scaled_mu: np.ndarray
    gamma: float
    overflowed: bool = False
    ratio_interval: tuple[float, float] | None = None

    @property
    def v0(self) -> float:
        return V0

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
        if self.scaled_mu[j] == 0.0:
            return 0.0
        lv = math.log(self.scaled_mu[j]) - j * math.log(self.gamma)
        return math.exp(lv) if lv < _LOG_FLOAT_MAX else math.inf

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
    if q_norm < 0.0:
        raise ValueError("potential norm must be non-negative")
    bar = None
    if nbar is not None and not nbar.is_empty:
        bar = nbar.majorant_spec()
    w = np.zeros(terms + 1)
    mu = np.zeros(terms + 1)
    w[0] = V0
    gamma = 1.0
    drive0 = q_norm * V0
    if bar is not None:
        drive0 += bar.majorant_derivative(V0) * V0
    mu[1] = gamma * drive0
    w[1] = (1.0 + V0) * mu[1]
    overflowed = False
    for j in range(1, terms):
        quad = float(np.dot(w[1:j + 1][::-1], w[1:j + 1]))
        quad_mu = float(np.dot(mu[1:j + 1][::-1], w[1:j + 1]))
        drive = q_norm * w[j]
        if bar is not None:
            drive += adomian(bar, w[:j + 1])
        mu[j + 1] = quad_mu + gamma * drive
        w[j + 1] = quad + (1.0 + V0) * gamma * drive
        if w[j + 1] > _RESCALE_AT:
            sigma = (1.0 / w[j + 1]) ** (1.0 / (j + 1))
            powers = sigma ** np.arange(j + 2)
            w[:j + 2] *= powers
            mu[:j + 2] *= powers
            gamma *= sigma
            overflowed = True
    return MajorantState(q_norm=q_norm,
                         nbar=nbar if nbar is not None
                         else NonlinearitySpec.empty(),
                         terms=terms, scaled=w, scaled_mu=mu, gamma=gamma,
                         overflowed=overflowed)


def estimate_radius_nonlinear(state: MajorantState,
                              window: int = 10) -> float:
    """Ratio-test estimate of the generating function's radius.

    Takes the smallest of the trailing consecutive-term ratios as the
    lim-inf proxy. The inspected window is recorded on the state as an
    uncertainty interval; a non-monotone window widens it.
    """
    if state.terms < 10:
        raise ValueError("radius estimate needs at least 10 computed terms")
    if np.all(state.scaled[1:] == 0.0):
        state.ratio_interval = (math.inf, math.inf)
        return math.inf
    ratios = state.ratios()
    ratios = ratios[np.isfinite(ratios)]
    take = min(window, len(ratios))
    tail = ratios[-take:]
    estimate = float(np.min(tail))
    decreasing = bool(np.all(np.diff(tail) <= tail[:-1] * 1e-12))
    if decreasing:
        state.ratio_interval = (estimate, float(tail[-1]))
    else:
        state.ratio_interval = (estimate, float(np.max(tail)))
    return estimate


def branch_point_radius(q_norm: float,
                        nbar: NonlinearitySpec | None) -> float:
    """Radius from the branch point of the inverse generating function.

    The inverse map z(f) rises from 0 at f = v0 and turns over at the
    square-root branch point; the maximum over f > v0 is the radius. In the
    linear case this reproduces radius_linear exactly.
    """
    if q_norm < 0.0:
        raise ValueError("potential norm must be non-negative")
    bar = None
    if nbar is not None and not nbar.is_empty:
        bar = nbar.majorant_spec()
    if q_norm == 0.0 and bar is None:
        return math.inf

    shift = bar.majorant_derivative(V0) * V0 - bar.majorant(V0) \
        if bar is not None else 0.0

    def negative_z(g: float) -> float:
        f = V0 + g
        denom = q_norm * f + shift
        if bar is not None:
            denom += bar.majorant(f)
        return -(g - g * g) / ((1.0 + V0) * denom)

    result = minimize_scalar(negative_z, bounds=(1e-12, 1.0 - 1e-12),
                             method="bounded",
                             options={"xatol": 1e-13})
    return float(-result.fun)


@dataclass
class DecayReport:
    """Computable part of the error bound at one rank."""

    ratio: float
    rank: int
    factor: float
    condition_satisfied: bool
    message: str
    constant_note: str = ("factor multiplies an unknown constant; "
                         "only the decay shape is predicted")


def decay_report(r_n: float, m: int) -> DecayReport:
    """Predicted decay factor r_n**m / (m+1) and its qualitative reading."""
    if r_n < 0.0:
        raise ValueError("ratio must be non-negative")
    if m < 0:
        raise ValueError("rank must be non-negative")
    factor = r_n ** m / (m + 1)
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
    radius_method: str
    radius_interval: tuple[float, float] | None = None

    def as_dict(self) -> dict:
        return {
            "q_norm": self.q_norm,
            "radius": self.radius,
            "ratio": self.ratio,
            "condition_satisfied": self.condition_satisfied,
            "decay_factors": self.decay_factors,
            "message": self.message,
            "radius_method": self.radius_method,
            "radius_interval": (list(self.radius_interval)
                                if self.radius_interval else None),
        }


def convergence_report(q_norm: float, nbar: NonlinearitySpec | None,
                       branch: BranchId, rank: int,
                       terms: int = 40) -> ConvergenceReport:
    """Assemble the diagnostics for one branch at the requested rank."""
    interval = None
    if nbar is None or nbar.is_empty:
        radius = radius_linear(q_norm)
        method = "closed-form"
    else:
        state = majorant_sequence(q_norm, nbar, max(terms, 10))
        radius = estimate_radius_nonlinear(state)
        interval = state.ratio_interval
        method = "ratio-test"
    ratio = convergence_ratio(branch, radius)
    reports = [decay_report(ratio, m) for m in range(rank + 1)]
    return ConvergenceReport(
        q_norm=q_norm, radius=radius, ratio=ratio,
        condition_satisfied=ratio < 1.0,
        decay_factors=[r.factor for r in reports],
        message=reports[-1].message,
        radius_method=method, radius_interval=interval,
    )
