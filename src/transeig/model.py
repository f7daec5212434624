"""Problem definitions: potentials, nonlinearities, branch labels.

The boundary value problem lives on (0, 1) with an interface at x = 1/2.
The solution is continuous across the interface, its derivative jumps by
one, and the left boundary slope is fixed to one. Those constants are part
of the formulation, not user inputs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

INTERFACE = 0.5

#: Fixed formulation data: u1(0) = 0, u2(1) = 0, u1'(0) = SLOPE_AT_ZERO,
#: [u](1/2) = 0 and [u'](1/2) = FLUX_JUMP.
FLUX_JUMP = 1.0
SLOPE_AT_ZERO = 1.0


class ModelError(ValueError):
    """Invalid problem description."""


def horner(coeffs, x):
    """sum_k coeffs[k] x**k by Horner's rule, in numpy.polynomial's order."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class PotentialSpec:
    """A potential q on (0, 1) with a computable L1 norm.

    kind is one of "polynomial" (coefficients c0..cd, low degree first),
    "inverse_sqrt_half" (q(x) = |1/2 - x|**-0.5), or "tabulated" (arbitrary
    evaluator supplied by the caller). The interface weight is the one
    singular potential, its exponent fixed at -1/2; a tabulated potential is
    treated as smooth, i.e. sampled at the mesh nodes.
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    tabulated_l1: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("polynomial", "inverse_sqrt_half", "tabulated"):
            raise ModelError(f"unknown potential kind: {self.kind!r}")
        if self.kind == "tabulated" and self.evaluator is None:
            raise ModelError("tabulated potential needs an evaluator")
        if self.kind == "polynomial" and not self.coeffs:
            raise ModelError("polynomial potential needs a coefficient")
        if not 0.0 <= (self.tabulated_l1 or 0.0) < math.inf:
            raise ModelError("tabulated L1 norm must be finite and >= 0")

    @staticmethod
    def polynomial(coeffs) -> "PotentialSpec":
        return PotentialSpec(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))

    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec(kind="polynomial", coeffs=(0.0,))

    @staticmethod
    def inverse_sqrt_half() -> "PotentialSpec":
        return PotentialSpec(kind="inverse_sqrt_half")

    @staticmethod
    def tabulated(evaluator, l1: float | None = None) -> "PotentialSpec":
        return PotentialSpec(kind="tabulated", evaluator=evaluator, tabulated_l1=l1)

    @property
    def is_singular(self) -> bool:
        return self.kind == "inverse_sqrt_half"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "polynomial":
            return horner(self.coeffs, x)
        if self.kind == "inverse_sqrt_half":
            with np.errstate(divide="ignore"):
                return np.abs(INTERFACE - x) ** -0.5
        return self.evaluator(x)


def l1_norm(q: PotentialSpec) -> float:
    """Integral of |q| over (0, 1), analytic for the built-in kinds."""
    if q.kind == "polynomial":
        poly = np.polynomial.Polynomial(q.coeffs)
        roots = [r.real for r in poly.roots()
                 if abs(r.imag) < 1e-12 and 1e-12 < r.real < 1 - 1e-12]
        cuts = [0.0, *sorted(set(roots)), 1.0]
        anti = poly.integ()
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += abs(anti(b) - anti(a))
        return float(total)
    if q.kind == "inverse_sqrt_half":
        # antiderivative -2*sqrt(1/2 - x) on each side of the interface
        return float(4.0 * math.sqrt(INTERFACE))
    if q.tabulated_l1 is not None:
        return float(q.tabulated_l1)
    coarse, value = (_gauss_legendre_abs(q, cells) for cells in (128, 256))
    if not math.isfinite(value) or abs(value - coarse) > 1e-6 * max(1.0, value):
        raise ModelError("tabulated potential is not reliably integrable; "
                         "supply its L1 norm explicitly")
    return value


def _gauss_legendre_abs(q: PotentialSpec, cells: int) -> float:
    """Integral of |q| by 8-point Gauss-Legendre on equal cells of each panel.

    The panels meet at the interface, so a jump of q there costs nothing;
    the nodes stay inside the cells and never sample the interface itself.
    """
    t, w = np.polynomial.legendre.leggauss(8)
    h = INTERFACE / cells
    mid = h * (np.arange(2 * cells) + 0.5)
    x = (mid[:, None] + 0.5 * h * t).ravel()
    with np.errstate(all="ignore"):
        fx = np.broadcast_to(np.abs(np.asarray(q(x), dtype=float)), x.shape)
        return float(0.5 * h * (fx.reshape(-1, 8) @ w).sum())


@dataclass(frozen=True)
class NonlinearitySpec:
    """Finite power series N(u) = sum a_i u^i with i >= 1 (no constant term).

    coeffs stores a_1..a_d. An all-zero or empty tuple means the linear
    problem. The majorant replaces every coefficient with its absolute
    value, which dominates N and all of its derivatives on |v| <= u.
    """

    coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))

    @staticmethod
    def empty() -> "NonlinearitySpec":
        return NonlinearitySpec(())

    @staticmethod
    def power(exponent: int, coefficient: float = 1.0) -> "NonlinearitySpec":
        if exponent < 1:
            raise ModelError("nonlinearity terms start at degree 1")
        a = [0.0] * exponent
        a[exponent - 1] = coefficient
        return NonlinearitySpec(tuple(a))

    @property
    def is_empty(self) -> bool:
        return all(a == 0.0 for a in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __call__(self, u):
        """N(u) for scalar or array u."""
        out = horner((0.0,) + self.coeffs, np.asarray(u, dtype=float))
        return out if out.ndim else float(out)

    def majorant_spec(self) -> "NonlinearitySpec":
        return NonlinearitySpec(tuple(abs(a) for a in self.coeffs))

    def majorant(self, u):
        """Majorant series at u >= 0 (absolute coefficients)."""
        return self.majorant_spec()(u)

    def majorant_derivative(self, u):
        """d/du of the majorant series, sum i*|a_i|*u**(i-1)."""
        slopes = [i * abs(a) for i, a in enumerate(self.coeffs, start=1)]
        out = horner(slopes or [0.0], np.asarray(u, dtype=float))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class BranchId:
    """Which zero-approximation branch to follow.

    Family I eigenvalues are 4*pi**2*(sign*2/3 + 2n)**2 with n >= 0; the
    sign only matters for n >= 1 (both signs coincide at n = 0, canonical
    form keeps +1). Family II eigenvalues are 4*pi**2*n**2 with n >= 1.
    """

    family: str
    n: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.family not in ("I", "II"):
            raise ModelError(f"unknown family: {self.family!r}")
        if self.sign not in (-1, 1):
            raise ModelError("sign must be +1 or -1")
        if self.n < 0:
            raise ModelError("branch index must be non-negative")
        if self.family == "II":
            if self.n < 1:
                raise ModelError("family II starts at n = 1")
            object.__setattr__(self, "sign", 1)
        elif self.n == 0 and self.sign == -1:
            object.__setattr__(self, "sign", 1)

    @property
    def tag(self) -> str:
        if self.family == "I":
            word = "plus" if self.sign > 0 else "minus"
            return f"I_{word}_{self.n}"
        return f"II_{self.n}"

    @staticmethod
    def from_tag(tag: str) -> "BranchId":
        """The branch whose .tag is tag; any other string is refused."""
        family, _, rest = tag.partition("_")
        word, _, n = rest.rpartition("_")
        try:
            branch = BranchId(family, int(n), -1 if word == "minus" else 1)
        except ValueError:  # ModelError included
            branch = None
        if branch is None or branch.tag != tag:
            raise ModelError(f"unknown branch tag {tag!r}; a tag reads "
                             "I_plus_<n>, I_minus_<n> or II_<n>")
        return branch


@dataclass(frozen=True)
class TransmissionProblem:
    """Potential plus nonlinearity; the jump and boundary data are fixed."""

    potential: PotentialSpec
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec.empty)

    @property
    def is_linear(self) -> bool:
        return self.nonlinearity.is_empty

    @property
    def is_singular(self) -> bool:
        return self.potential.is_singular


def _json(value, kind: type, what: str):
    """value itself if it is a JSON object (dict) or array of finite numbers.

    NaN, Infinity and numbers beyond the float range (which the json module
    reads as inf) are not finite.
    """
    if not isinstance(value, kind) or kind is list and not all(
            type(v) in (int, float) and abs(v) <= sys.float_info.max
            for v in value):
        name = "object" if kind is dict else "array of finite numbers"
        raise ModelError(f"{what} must be a JSON {name}")
    return value


def _record(value, what: str, keys: tuple[str, ...]) -> dict:
    """value itself if it is a JSON object with no key outside keys.

    A misspelled key would otherwise be dropped and its default solved.
    """
    unknown = sorted(set(_json(value, dict, what)) - set(keys))
    if unknown:
        raise ModelError(f"{what} has unknown key {unknown[0]!r}; "
                         f"it takes {', '.join(keys)}")
    return value


def _potential_from_dict(data: dict) -> PotentialSpec:
    kind = _json(data, dict, "potential record").get("kind")
    if kind == "polynomial":
        _record(data, "potential record", ("kind", "coeffs"))
        return PotentialSpec.polynomial(
            _json(data.get("coeffs", [0.0]), list, "potential coeffs"))
    if kind == "inverse_sqrt_half":
        _record(data, "potential record", ("kind",))
        return PotentialSpec.inverse_sqrt_half()
    raise ModelError(f"unsupported potential kind in problem file: {kind!r}")


def _branch_from_dict(data: dict) -> BranchId:
    _record(data, "branch record", ("family", "n", "sign"))
    try:
        family = data["family"]
        n = data["n"]
    except KeyError as exc:
        raise ModelError(f"branch record is missing {exc}") from exc
    sign = data.get("sign", 1)
    if type(n) is not int or type(sign) is not int:
        raise ModelError(f"branch n and sign must be JSON integers, "
                         f"got n={n!r}, sign={sign!r}")
    branch = BranchId(family=family, n=n, sign=sign)
    # BranchId drops a family II sign, so a sign of -1 would be lost
    if branch.family == "II" and branch.sign != sign:
        raise ModelError(f"family II branches have no sign; the branch "
                         f"record gives {branch.tag} sign {sign}")
    return branch


def load_problem(path) -> tuple[TransmissionProblem, BranchId | None]:
    """Read a problem-definition JSON file.

    Returns the problem and the branch record if the file names one.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot read problem file {path}: {exc}") from exc
    _record(data, "problem file", ("potential", "nonlinearity", "branch"))
    if "potential" not in data:
        raise ModelError("problem file lacks a potential record")
    potential = _potential_from_dict(data["potential"])
    nl = data.get("nonlinearity")
    nl = {} if nl is None else _record(nl, "nonlinearity record",
                                       ("coeffs_from_degree_1",))
    coeffs = _json(nl.get("coeffs_from_degree_1", []), list,
                   "nonlinearity coefficients")
    nonlinearity = NonlinearitySpec(tuple(coeffs))
    branch = _branch_from_dict(data["branch"]) if "branch" in data else None
    return TransmissionProblem(potential, nonlinearity), branch
