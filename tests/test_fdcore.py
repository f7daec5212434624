import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transeig.basis import ascending_branches, zero_eigenvalue
from transeig.convergence import branch_constants
from transeig.fdcore import (DEFAULT_MESH, FdError, RhsField,
                             _AdomianSeries, _Engine, adomian, c2_correction,
                             fd_solve, lambda_correction, rhs_assemble,
                             u_correction)
from transeig.model import (BranchId, NonlinearitySpec, PotentialSpec,
                            TransmissionProblem, load_problem)
from transeig import quadrature
from transeig.quadrature import PanelFn, PanelMesh

EX1 = TransmissionProblem(PotentialSpec.polynomial([0.0, 1.0, 3.0]),
                          NonlinearitySpec.power(2))
EX2 = TransmissionProblem(PotentialSpec.inverse_sqrt_half(),
                          NonlinearitySpec.power(2))
B0 = BranchId("I", 0, 1)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def series_coefficient_by_sampling(n, u_values, j):
    """Coefficient of t**j in N(sum u_k t**k) via roots-of-unity sampling.

    Exact for polynomial N because the composite is itself a polynomial of
    degree <= len(coeffs)*j; sampling on a circle of radius 1/2 with one
    point more than that degree recovers any coefficient by a plain DFT.
    """
    degree = len(n.coeffs)
    kpts = degree * j + 1
    r = 0.5
    z = r * np.exp(2j * math.pi * np.arange(kpts) / kpts)
    p = np.zeros_like(z)
    for k, u in enumerate(u_values):
        p += u * z ** k
    samples = np.zeros_like(z)
    for i, a in enumerate(n.coeffs, start=1):
        if a != 0.0:
            samples += a * p ** i
    coeff = np.mean(samples * z ** (-j)) / 1.0
    return float(coeff.real)


def test_adomian_square_hand_values():
    nl = NonlinearitySpec.power(2)
    assert adomian(nl, [2.0]) == pytest.approx(4.0)
    assert adomian(nl, [2.0, 3.0]) == pytest.approx(12.0)
    assert adomian(nl, [2.0, 3.0, 1.0]) == pytest.approx(13.0)


def test_adomian_cube_hand_values():
    nl = NonlinearitySpec.power(3)
    assert adomian(nl, [1.0]) == pytest.approx(1.0)
    assert adomian(nl, [1.0, 2.0]) == pytest.approx(6.0)


def test_adomian_derivative_structure():
    # for N = u**3: A1 = 3 u0^2 u1, A2 = 3 u0^2 u2 + 3 u0 u1^2,
    # A3 = 3 u0^2 u3 + 6 u0 u1 u2 + u1^3
    nl = NonlinearitySpec.power(3)
    u0, u1, u2, u3 = 0.7, -1.3, 0.4, 2.2
    assert adomian(nl, [u0, u1]) == pytest.approx(3 * u0 ** 2 * u1)
    assert adomian(nl, [u0, u1, u2]) == pytest.approx(
        3 * u0 ** 2 * u2 + 3 * u0 * u1 ** 2)
    assert adomian(nl, [u0, u1, u2, u3]) == pytest.approx(
        3 * u0 ** 2 * u3 + 6 * u0 * u1 * u2 + u1 ** 3)


def test_adomian_against_sampling_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        degree = int(rng.integers(1, 5))
        coeffs = rng.uniform(-2.0, 2.0, degree)
        nl = NonlinearitySpec(tuple(coeffs))
        j = int(rng.integers(0, 6))
        u_values = list(rng.uniform(-2.0, 2.0, j + 1))
        expected = series_coefficient_by_sampling(nl, u_values, j)
        assert adomian(nl, u_values) == pytest.approx(expected, abs=1e-12)


def test_adomian_on_arrays():
    nl = NonlinearitySpec.power(2)
    u0 = np.array([1.0, 2.0])
    u1 = np.array([3.0, -1.0])
    out = adomian(nl, [u0, u1])
    assert np.allclose(out, 2.0 * u0 * u1)


def test_adomian_on_arrays_matches_each_element():
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        degree = int(rng.integers(0, 5))
        nl = NonlinearitySpec(tuple(rng.uniform(-2.0, 2.0, degree)))
        j = int(rng.integers(0, 7))
        u_values = [rng.uniform(-2.0, 2.0, 5) for _ in range(j + 1)]
        out = adomian(nl, u_values)
        each = [adomian(nl, [u[e] for u in u_values]) for e in range(5)]
        assert out.shape == (5,)
        assert np.array_equal(out, each)


def test_adomian_accepts_many_scalar_terms():
    # the t**99 term of (sum_k t**k / 2**k)**2 is 100 / 2**99, exactly
    terms = [0.5 ** k for k in range(100)]
    assert adomian(NonlinearitySpec.power(2), terms) == 100 * 0.5 ** 99


def test_adomian_empty_series():
    assert adomian(NonlinearitySpec.empty(), [2.0, 3.0]) == 0.0
    with pytest.raises(FdError):
        adomian(NonlinearitySpec.power(2), [])


def adomian_by_rebuild(n, u_values):
    """A_j with the series of every power u**i rebuilt from scratch.

    The term k of u**(i+1) sums power[r] * u[k - r] over r = 0..k in order,
    the arithmetic the incremental series has to keep.
    """
    series = list(np.stack(np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in u_values])))
    j = len(series) - 1
    out = np.zeros_like(series[0])
    power = series
    for i, a in enumerate(n.coeffs, start=1):
        if a != 0.0:
            out = out + a * power[j]
        power = [sum((power[r] * series[k - r] for r in range(k + 1)), 0.0)
                 for k in range(j + 1)]
    return out


SERIES_VALUES = st.floats(-2.0, 2.0)


@given(coeffs=st.lists(SERIES_VALUES, min_size=1, max_size=4),
       us=st.one_of(
           st.lists(SERIES_VALUES, min_size=1, max_size=8),
           st.lists(st.lists(SERIES_VALUES, min_size=3, max_size=3)
                    .map(np.array), min_size=1, max_size=8)))
@settings(max_examples=200, deadline=None)
def test_series_pushes_are_adomian_bit_for_bit(coeffs, us):
    nl = NonlinearitySpec(tuple(coeffs))
    series = _AdomianSeries(nl)
    for j, u in enumerate(us):
        pushed = series.push(np.asarray(u, dtype=float))
        assert np.array_equal(pushed, adomian(nl, us[:j + 1]))
        assert np.array_equal(pushed, adomian_by_rebuild(nl, us[:j + 1]))


def test_series_keeps_no_terms_of_the_top_power():
    series = _AdomianSeries(NonlinearitySpec((0.5, 0.0, -1.0, 0.0)))
    for _ in range(3):
        series.push(np.ones(4))
    assert [len(p) for p in series.powers] == [3, 3]


def test_lambda_correction_catches_up_with_fd_solve():
    problem, branch = load_problem(PROBLEMS / "example1.json")
    sol = fd_solve(problem, branch, rank=4, mesh=128)
    for j in range(4):
        lam = lambda_correction(branch, sol.corrections[:j + 1],
                                problem.potential, problem.nonlinearity)
        assert lam == sol.corrections[j + 1].lambda_j


def test_zero_potential_corrections_vanish():
    problem = TransmissionProblem(PotentialSpec.zero())
    sol = fd_solve(problem, B0, rank=3, mesh=128)
    for c in sol.corrections[1:]:
        assert c.lambda_j == 0.0
        assert c.c2_j == 0.0
        assert np.all(c.u1.values == 0.0)
        assert np.all(c.u2.values == 0.0)
    assert sol.lambda_total == sol.lambda0


def test_constant_shift_is_exact_at_rank_one():
    shift = 2.75
    problem = TransmissionProblem(PotentialSpec.polynomial([shift]))
    sol = fd_solve(problem, BranchId("II", 1), rank=3, mesh=256)
    assert sol.corrections[1].lambda_j == pytest.approx(shift, rel=1e-12)
    assert abs(sol.corrections[2].lambda_j) < 1e-10
    assert sol.corrections[1].u1.sup < 1e-10
    assert sol.corrections[2].u1.sup < 1e-10
    assert sol.lambda_total == pytest.approx(zero_eigenvalue(BranchId("II", 1))
                                             + shift, rel=1e-12)


@pytest.mark.parametrize("branch", [
    BranchId("I", 0, 1), BranchId("I", 1, -1),
    BranchId("II", 1), BranchId("II", 2),
])
def test_discrete_denominator_matches_branch_constant(branch):
    engine = _Engine(EX1, branch, 256)
    _, b = branch_constants(branch)
    assert engine.denominator == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize("problem", [EX1, EX2], ids=["smooth", "singular"])
def test_corrections_satisfy_homogeneous_side_conditions(problem):
    sol = fd_solve(problem, B0, rank=3, mesh=256)
    for c in sol.corrections[1:]:
        scale = max(c.u1.sup, c.u2.sup, 1e-30)
        assert abs(c.u1.values[0]) <= 1e-10 * scale
        assert abs(c.du1.values[0]) <= 1e-8 * max(scale, 1.0)
        assert abs(c.u2.values[-1]) <= 1e-10 * scale
        assert abs(c.u1.values[-1] - c.u2.values[0]) <= 1e-8 * max(scale, 1.0)
        assert abs(c.du2.values[0] - c.du1.values[-1]) <= 1e-8 * max(scale, 1.0)


def test_first_eigenvalue_correction_value():
    # frozen from an independent rank-1 run: lambda(1) for the quadratic
    # potential x + 3x^2 with N = u^2 on the lowest branch
    sol = fd_solve(EX1, B0, rank=1, mesh=2048)
    assert sol.corrections[1].lambda_j == pytest.approx(2.1481065276497,
                                                        abs=1e-9)


def test_rank_one_sup_magnitudes():
    sol = fd_solve(EX1, B0, rank=1, mesh=1024)
    assert sol.corrections[1].u1.sup == pytest.approx(0.019, rel=0.1)
    assert sol.corrections[1].u2.sup == pytest.approx(0.025, rel=0.1)


def test_fd_solve_converged_eigenvalue():
    sol = fd_solve(EX1, B0, rank=4, mesh=512)
    assert sol.lambda_total == pytest.approx(19.6754786167117, abs=1e-8)


def test_lambda_partial_and_truncate():
    sol = fd_solve(EX1, B0, rank=3, mesh=128)
    for k in range(4):
        trunc = sol.truncate(k)
        assert trunc.rank == k
        assert trunc.lambda_total == sol.lambda_partial(k)
    with pytest.raises(FdError):
        sol.truncate(4)
    with pytest.raises(FdError):
        sol.truncate(-1)


def test_solution_evaluation_helpers():
    sol = fd_solve(EX1, B0, rank=2, mesh=128)
    u = sol.u_total()
    assert u(0.5) == pytest.approx(u(0.5 + 1e-12), abs=1e-6)
    assert abs(u(0.0)) < 1e-12
    assert abs(u(1.0)) < 1e-12
    du1, du2 = sol.du_total()
    assert du2.values[0] - du1.values[-1] == pytest.approx(1.0, abs=1e-8)


def assert_views_match_engine(problem, branch, mesh, rank):
    """The step-level functions reproduce each engine step to 1e-12."""
    q, nl = problem.potential, problem.nonlinearity
    engine = _Engine(problem, branch, mesh)
    corrections = [engine.zero_correction()]
    for _ in range(rank):
        j = len(corrections) - 1
        lam = lambda_correction(branch, corrections, q, nl)
        rhs = rhs_assemble(j, corrections, lam, q, nl)
        c2 = c2_correction(branch, rhs)
        u1, u2 = u_correction(branch, rhs, c2)
        step = engine.step(corrections)
        assert lam == pytest.approx(step.lambda_j, abs=1e-12)
        assert c2 == pytest.approx(step.c2_j, abs=1e-12)
        assert np.max(np.abs(u1.values - step.u1.values)) < 1e-12
        assert np.max(np.abs(u2.values - step.u2.values)) < 1e-12
        corrections.append(step)


# the ids of the smooth cases predate the singular ones
@pytest.mark.parametrize("name,branch", [
    pytest.param("example1.json", BranchId("I", 0, 1), id="branch0"),
    pytest.param("example1.json", BranchId("II", 1), id="branch1"),
    pytest.param("example2.json", BranchId("I", 0, 1),
                 id="example2-branch0"),
    pytest.param("example2.json", BranchId("II", 1), id="example2-branch1"),
])
def test_standalone_ops_reproduce_the_engine(name, branch):
    problem, _ = load_problem(PROBLEMS / name)
    assert_views_match_engine(problem, branch, 128, 3)


@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
       index=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_standalone_ops_reproduce_the_engine_for_random_potentials(
        coeffs, index):
    problem = TransmissionProblem(PotentialSpec.polynomial(coeffs),
                                  NonlinearitySpec.power(2))
    assert_views_match_engine(problem, ascending_branches(4)[index], 64, 2)


def test_rhs_assemble_index_check():
    engine = _Engine(EX1, B0, 64)
    corrections = [engine.zero_correction()]
    with pytest.raises(FdError):
        rhs_assemble(1, corrections, 0.0, EX1.potential, EX1.nonlinearity)


def _inverse_sqrt_half(x):
    with np.errstate(divide="ignore"):
        return np.abs(0.5 - x) ** -0.5


def _nan_at_half(x):
    with np.errstate(invalid="ignore"):
        return (0.5 - x) / (0.5 - x)


@pytest.mark.parametrize("evaluator", [_inverse_sqrt_half, _nan_at_half],
                         ids=["inf", "nan"])
def test_non_finite_tabulated_potential_raises(evaluator):
    problem = TransmissionProblem(PotentialSpec.tabulated(evaluator),
                                  NonlinearitySpec.power(2))
    with pytest.raises(FdError, match="not finite"):
        fd_solve(problem, B0, rank=2, mesh=64)
    corrections = [_Engine(EX1, B0, 64).zero_correction()]
    with pytest.raises(FdError, match="not finite"):
        rhs_assemble(0, corrections, 0.0, problem.potential,
                     problem.nonlinearity)


def test_u_correction_constant_forcing():
    lam0 = zero_eigenvalue(B0)
    w = math.sqrt(lam0)
    mesh_left = PanelMesh("left", 256)
    mesh_right = PanelMesh("right", 256)
    rhs = RhsField(lambda0=lam0,
                   smooth1=PanelFn(mesh_left, np.ones(mesh_left.m + 1)),
                   smooth2=PanelFn.zeros(mesh_right))
    u1, u2 = u_correction(B0, rhs, c2=0.0)
    exact = (1.0 - np.cos(w * mesh_left.nodes)) / lam0
    assert np.max(np.abs(u1.values - exact)) < 1e-10
    # cos(w/2) = -1/2 on family I, so the interface value is 1.5/lambda0
    assert u1.values[-1] == pytest.approx(1.5 / lam0, abs=1e-10)
    assert np.all(u2.values == 0.0)


def test_fd_solve_argument_validation():
    with pytest.raises(FdError):
        fd_solve(EX1, B0, rank=-1)
    with pytest.raises(FdError):
        fd_solve(EX1, B0, rank=1, mesh=63)
    assert DEFAULT_MESH % 2 == 0


def _correction_arrays(sol):
    return [(c.lambda_j, c.c2_j, c.u1.values, c.u2.values, c.du1.values,
             c.du2.values) for c in sol.corrections]


def test_cached_substitution_serves_each_mesh_its_own():
    quadrature._substitution.cache_clear()
    first = _correction_arrays(fd_solve(EX2, B0, 8, 64))
    fd_solve(EX2, B0, 8, 128)
    last = _correction_arrays(fd_solve(EX2, B0, 8, 64))
    for a, b in zip(first, last):
        assert a[0] == b[0] and a[1] == b[1]
        assert all(np.array_equal(x, y) for x, y in zip(a[2:], b[2:]))


def test_weighted_step_interpolates_only_off_the_nodes(monkeypatch):
    # one g(x(t)) per panel and step; the back map uses cached stencils
    calls = []
    original = quadrature.interp_uniform

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(quadrature, "interp_uniform", counted)
    fd_solve(EX2, B0, 8, 64)
    assert len(calls) == 16


#: q = 1e200*x with N = u**2: the second correction overflows
DIVERGENT = TransmissionProblem(PotentialSpec.polynomial([0.0, 1e200]),
                                NonlinearitySpec.power(2))


def test_divergent_series_raises():
    with np.errstate(all="ignore"), pytest.raises(FdError, match="diverges"):
        fd_solve(DIVERGENT, B0, rank=4, mesh=64)


def test_corrections_are_panel_arrays_with_row_views():
    sol = fd_solve(EX1, B0, rank=2, mesh=64)
    for c in sol.corrections:
        assert c.u.shape == c.du.shape == (2, 65)
        assert np.array_equal(c.u1.values, c.u[0])
        assert np.array_equal(c.du2.values, c.du[1])
        assert c.u1.mesh == PanelMesh("left", 64)
        assert c.u2.mesh == PanelMesh("right", 64)
        with pytest.raises(ValueError):
            c.u1.values[0] = 1.0
    assert sol.corrections[0].rhs is None
    assert all(c.rhs.shape == (2, 65) for c in sol.corrections[1:])
    assert all(c.rhs is None for c in fd_solve(EX2, B0, 2, 64).corrections)
