"""Exact eigenpairs of the unperturbed transmission problem.

Both families share the representation u1(x) = sin(w*x)/w on the left panel
and u2(x) = c2 * sin(w*(1 - x)) on the right panel, with w = sqrt(lambda0).
Family I has w = 2*pi*(sign*2/3 + 2n) and c2 = 1/w; family II has w = 2*pi*n
and c2 = -((-1)**n + 1)/(2*pi*n), which vanishes for odd n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BranchId, ModelError


@dataclass(frozen=True)
class ZeroApproximation:
    branch: BranchId
    lambda0: float
    c2_zero: float

    @property
    def omega(self) -> float:
        return math.sqrt(self.lambda0)

    def u1(self, x):
        return np.sin(self.omega * np.asarray(x, dtype=float)) / self.omega

    def du1(self, x):
        return np.cos(self.omega * np.asarray(x, dtype=float))

    def u2(self, x):
        return self.c2_zero * np.sin(self.omega * (1.0 - np.asarray(x, dtype=float)))

    def du2(self, x):
        return -self.c2_zero * self.omega * np.cos(
            self.omega * (1.0 - np.asarray(x, dtype=float)))


def zero_eigenvalue(branch: BranchId) -> float:
    """Eigenvalue of the unperturbed problem for the given branch."""
    if branch.family == "I":
        base = branch.sign * (2.0 / 3.0) + 2.0 * branch.n
        return 4.0 * math.pi ** 2 * base * base
    if branch.n < 1:
        raise ModelError("family II starts at n = 1")
    return 4.0 * math.pi ** 2 * branch.n * branch.n


def zero_eigenfunction(branch: BranchId) -> ZeroApproximation:
    """Closed-form zero approximation satisfying all four side conditions."""
    lam0 = zero_eigenvalue(branch)
    omega = math.sqrt(lam0)
    if branch.family == "I":
        c2 = 1.0 / omega
    else:
        c2 = -(((-1) ** branch.n) + 1.0) / (2.0 * math.pi * branch.n)
    return ZeroApproximation(branch=branch, lambda0=lam0, c2_zero=c2)


def ascending_branches(count: int) -> list[BranchId]:
    """The first `count` branches ordered by increasing eigenvalue.

    Interleaves both families: I+0, II 1, I-1, II 2, I+1, II 3, I-2, ...
    """
    if count < 1:
        raise ModelError("need at least one branch")
    pool: list[BranchId] = [BranchId("I", 0, 1)]
    top = count + 2
    for n in range(1, top):
        pool.append(BranchId("II", n))
        pool.append(BranchId("I", n, 1))
        pool.append(BranchId("I", n, -1))
    pool.sort(key=zero_eigenvalue)
    return pool[:count]
