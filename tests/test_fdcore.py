import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transeig.basis import ascending_branches, zero_eigenvalue
from transeig.convergence import branch_constants
from transeig.fdcore import (DEFAULT_MESH, FdError, FdSolution,
                             _AdomianSeries, _driving_field, _Engine, _Frame,
                             adomian, fd_solve)
from transeig.model import (BranchId, NonlinearitySpec, PotentialSpec,
                            TransmissionProblem, load_problem)
from transeig import quadrature
from transeig.quadrature import PanelMesh
from transeig.residual import residual_by_rank

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
    series = _AdomianSeries(nl, np.stack(np.broadcast_arrays(
        *[np.asarray(u, dtype=float) for u in us])))
    for j in range(len(us)):
        pushed = series.push(j)
        assert np.array_equal(pushed, adomian(nl, us[:j + 1]))
        assert np.array_equal(pushed, adomian_by_rebuild(nl, us[:j + 1]))


def test_series_keeps_no_terms_of_the_top_power():
    # degree 3: the caller's u and one array for u**2, none for u**3
    u = np.ones((3, 4))
    series = _AdomianSeries(NonlinearitySpec((0.5, 0.0, -1.0, 0.0)), u)
    for j in range(3):
        series.push(j)
    assert series.powers[0] is u
    assert [p.shape for p in series.powers] == [(3, 4)] * 2


def _panel_terms(rng, rows, m):
    """Random panel arrays over several magnitudes, a tenth of them -0.0."""
    terms = (rng.standard_normal((rows, 2, m + 1))
             * 10.0 ** rng.integers(-4, 5, (rows, 1, 1)))
    terms[rng.random(terms.shape) < 0.1] = -0.0
    return terms


def cauchy_by_loop(p, u, j):
    return sum((p[r] * u[j - r] for r in range(j + 1)), 0.0)


# The rank-axis einsums must add exactly as the in-order loops they
# replaced, signed zeros included; tobytes() sees -0.0 where array_equal
# does not. A numpy whose einsum fuses multiply-add fails here instead of
# moving the golden digests.
@given(m=st.integers(2, 8192).map(lambda k: 2 * k), j=st.integers(0, 10),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_rank_axis_einsums_add_as_the_loops_byte_for_byte(m, j, seed):
    rng = np.random.default_rng(seed)
    u = _panel_terms(rng, j + 1, m)
    lams = list(rng.standard_normal(j + 1))
    g = np.zeros_like(u[0])
    for p in range(1, j + 1):
        g -= lams[j + 1 - p] * u[p]
    # a = -0.0 adds nothing, so the driving field is the convolution alone
    driven, _ = _driving_field(lams, u, None, np.full_like(g, -0.0))
    assert driven.tobytes() == g.tobytes()
    series = _AdomianSeries(NonlinearitySpec((0.0, 0.0, 0.0, 1.0)), u)
    for k in range(j + 1):
        series.push(k)
    square, cube = series.powers[1:]
    for k in range(j + 1):
        assert square[k].tobytes() == cauchy_by_loop(u, u, k).tobytes()
        assert cube[k].tobytes() == cauchy_by_loop(square, u, k).tobytes()


@given(us=st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(-0.0)),
                   min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_cauchy_einsum_on_scalar_terms_adds_as_the_loop(us):
    u = np.array(us)
    series = _AdomianSeries(NonlinearitySpec((0.0, 0.0, 0.0, 1.0)), u)
    for k in range(len(us)):
        series.push(k)
    square, cube = series.powers[1:]
    for k in range(len(us)):
        assert square[k].tobytes() == cauchy_by_loop(u, u, k).tobytes()
        assert cube[k].tobytes() == cauchy_by_loop(square, u, k).tobytes()


#: the cubic q and three-term N of the golden digests; degree 3 keeps u**2
CUBIC = TransmissionProblem(PotentialSpec.polynomial([1.0, -4.0, 7.0, 2.5]),
                            NonlinearitySpec((0.5, -2.0, 3.0)))


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
    engine = _Engine(EX1, branch, 256, 0)
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
    # the rank-k solution is the row slices 0..k; its eigenvalue is the
    # partial sum, added from rank 0 as the CSV's running sum adds it
    sol = fd_solve(EX1, B0, rank=3, mesh=128)
    partial = np.cumsum(sol.lambdas)
    for k in range(4):
        rows = (a[:k + 1] for a in (sol.lambdas, sol.c2, sol.u, sol.du))
        trunc = FdSolution(EX1, B0, *rows, sol.rhs[:k])
        assert (trunc.rank, trunc.mesh_m) == (k, 128)
        assert trunc.lambda_total == float(sum(sol.lambdas[:k + 1]))
        assert trunc.lambda_total == partial[k]


def test_solution_evaluation_helpers():
    sol = fd_solve(EX1, B0, rank=2, mesh=128)
    u = sol.u_total()
    assert u(0.5) == pytest.approx(u(0.5 + 1e-12), abs=1e-6)
    assert abs(u(0.0)) < 1e-12
    assert abs(u(1.0)) < 1e-12
    du = sum(sol.du)
    assert du[1, 0] - du[0, -1] == pytest.approx(1.0, abs=1e-8)


def reference_step(problem, branch, lambdas, u):
    """Correction j+1 from the rows 0..j of lambdas and u, in fresh arrays.

    The kept reference of one engine step: the driving field is an explicit
    loop adding p = 1..j from 0.0, the Adomian term is rebuilt from rows
    0..j, and a bare frame supplies the cumulants, the eigenvalue quotient,
    the amplitude and the pieces. Returns lambda, c2, u, du and the smooth
    right-hand side (None for the singular weight).
    """
    j = len(u) - 1
    frame = _Frame(branch, lambdas[0], u.shape[-1] - 1)
    g = np.zeros_like(u[0])
    for p in range(1, j + 1):
        g -= lambdas[j + 1 - p] * u[p]
    weighted = None
    if problem.potential.is_singular:
        weighted = u[j]
    else:
        x = np.stack([PanelMesh(panel, frame.m).nodes
                      for panel in ("left", "right")])
        g += problem.potential(x) * u[j]
    g += adomian(problem.nonlinearity, u)
    zero_cumulants = frame.cumulants(u[0])
    cum = frame.cumulants(g, weighted)
    lam = frame.weight_total(cum) / frame.weight_total(zero_cumulants)
    # the final field is g - lam*u(0), so its cumulants follow by linearity
    cum -= lam * zero_cumulants
    amp = frame.amplitude(cum)
    u_next, du_next = frame.pieces(cum, amp)
    rhs = None if weighted is not None else g - lam * u[0]
    return lam, amp, u_next, du_next, rhs


def assert_reference_steps_give_every_row(problem, branch, rank, mesh):
    """Each row of the solve is the reference step's, byte for byte."""
    sol = fd_solve(problem, branch, rank, mesh)
    assert (sol.rhs is None) == problem.potential.is_singular
    for j in range(rank):
        lam, amp, u, du, rhs = reference_step(
            problem, branch, sol.lambdas[:j + 1].copy(), sol.u[:j + 1].copy())
        assert np.float64(lam).tobytes() == sol.lambdas[j + 1].tobytes()
        assert np.float64(amp).tobytes() == sol.c2[j + 1].tobytes()
        assert u.tobytes() == sol.u[j + 1].tobytes()
        assert du.tobytes() == sol.du[j + 1].tobytes()
        if rhs is not None:
            assert rhs.tobytes() == sol.rhs[j].tobytes()


@pytest.mark.parametrize("rank,mesh", [(4, 128), (8, 64)],
                         ids=["r4m128", "r8m64"])
@pytest.mark.parametrize("branch", ascending_branches(4),
                         ids=lambda b: b.tag)
@pytest.mark.parametrize("problem", [EX1, EX2, CUBIC],
                         ids=["ex1", "ex2", "cubic"])
def test_reference_step_reproduces_every_row(problem, branch, rank, mesh):
    assert_reference_steps_give_every_row(problem, branch, rank, mesh)


# the ids of the smooth cases predate the singular ones
@pytest.mark.parametrize("name,branch", [
    pytest.param("example1.json", BranchId("I", 0, 1), id="branch0"),
    pytest.param("example1.json", BranchId("II", 1), id="branch1"),
    pytest.param("example2.json", BranchId("I", 0, 1),
                 id="example2-branch0"),
    pytest.param("example2.json", BranchId("II", 1), id="example2-branch1"),
])
def test_standalone_ops_reproduce_the_engine(name, branch):
    # the shipped problem files, as load_problem reads them
    problem, _ = load_problem(PROBLEMS / name)
    assert_reference_steps_give_every_row(problem, branch, 3, 128)


@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
       index=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_reference_step_reproduces_every_row_for_random_potentials(
        coeffs, index):
    problem = TransmissionProblem(PotentialSpec.polynomial(coeffs),
                                  NonlinearitySpec.power(2))
    assert_reference_steps_give_every_row(
        problem, ascending_branches(4)[index], 2, 64)


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


def test_u_correction_constant_forcing():
    lam0 = zero_eigenvalue(B0)
    w = math.sqrt(lam0)
    mesh_left = PanelMesh("left", 256)
    frame = _Frame(B0, lam0, 256)
    cum = frame.cumulants(np.stack([np.ones(257), np.zeros(257)]))
    (u1, u2), _ = frame.pieces(cum, 0.0)
    exact = (1.0 - np.cos(w * mesh_left.nodes)) / lam0
    assert np.max(np.abs(u1 - exact)) < 1e-10
    # cos(w/2) = -1/2 on family I, so the interface value is 1.5/lambda0
    assert u1[-1] == pytest.approx(1.5 / lam0, abs=1e-10)
    assert np.all(u2 == 0.0)


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


@pytest.mark.parametrize("rank", [8, 2])
def test_forward_stencils_are_located_once_per_point_set(monkeypatch, rank):
    # the back maps are cached with the substitution; built before counting
    quadrature._substitution(64)
    quadrature._located.cache_clear()
    built = []

    class Counted(quadrature._Stencil):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(quadrature, "_Stencil", Counted)
    residual_by_rank(fd_solve(EX2, B0, rank, 64))
    assert sorted(built) == [0.0, 0.5]


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
    assert sol.rhs.shape == (2, 2, 65)
    for k, c in enumerate(sol.corrections[1:], start=1):
        assert [np.shares_memory(c.rhs, row) for row in sol.rhs] == [
            i == k - 1 for i in range(2)]
    assert all(c.rhs is None for c in fd_solve(EX2, B0, 2, 64).corrections)


@pytest.mark.parametrize("problem", [EX1, EX2], ids=["smooth", "singular"])
def test_corrections_are_rows_of_one_rank_stack(problem):
    sol = fd_solve(problem, B0, rank=5, mesh=64)
    assert sol.u.shape == (6, 2, 65)
    for k, c in enumerate(sol.corrections):
        assert [np.shares_memory(c.u, row) for row in sol.u] == [
            i == k for i in range(6)]


def test_engine_refuses_a_repeated_step():
    # a step past the last row has no row to write and must touch none
    engine = _Engine(EX1, B0, 64, 2)
    for _ in range(2):
        engine.step()
    kept = engine.u.copy()
    with pytest.raises(FdError, match="filled"):
        engine.step()
    assert np.array_equal(engine.u, kept)


def _steps_traced(problem, mesh, rank, warm):
    """Memory retained by and peak above the start of the steps after warm.

    Both are in panel arrays of the mesh; tracemalloc sees numpy's buffers.
    """
    panel = 2 * (mesh + 1) * np.dtype(float).itemsize
    engine = _Engine(problem, B0, mesh, rank)
    for _ in range(warm):
        engine.step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(rank - warm):
            engine.step()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (end - start) / panel, (peak - start) / panel


# Measured: ex1 retains 0.09 panel arrays over six steps and ex2 0.06,
# no whole array: a step keeps nothing it makes. ex1 peaks at 4.1, the
# quadrature's two half-length sums, the sine sweep's temporary and the
# tails' products; ex2 peaks at 6.1 in the weighted rule. A step that
# allocated its du or rhs would retain one or two panel arrays per step,
# six or twelve here.
@pytest.mark.parametrize("problem,peak_bound", [(EX1, 5.0), (EX2, 7.0)],
                         ids=["ex1", "ex2"])
def test_engine_steps_write_in_place(problem, peak_bound):
    retained, peak = _steps_traced(problem, 2048, 8, warm=2)
    assert retained < 0.5
    assert peak < peak_bound


@pytest.mark.parametrize("problem", [EX1, EX2], ids=["smooth", "singular"])
def test_engines_stepped_in_turn_share_no_scratch(problem):
    # two engines stepped alternately give the corrections of two solves
    branches = ascending_branches(2)
    engines = [_Engine(problem, b, 64, 4) for b in branches]
    for _ in range(4):
        for engine in engines:
            engine.step()
    for b, engine in zip(branches, engines):
        alone = fd_solve(problem, b, 4, 64)
        for field in ("lambdas", "c2", "u", "du", "rhs"):
            a, b_ = getattr(engine, field), getattr(alone, field)
            assert (a is None and b_ is None) or np.array_equal(a, b_)
