import math
from pathlib import Path

import numpy as np
import pytest

from transeig.fdcore import fd_solve
from transeig.model import (BranchId, NonlinearitySpec, PotentialSpec,
                            TransmissionProblem, load_problem)
from transeig.quadrature import GridFunction, PanelFn, PanelMesh
from transeig.residual import (ResidualReport, _finish, count_interior_zeros,
                               integrated_residual, log_table,
                               pointwise_residual, residual_by_rank,
                               residual_report)

EX1 = TransmissionProblem(PotentialSpec.polynomial([0.0, 1.0, 3.0]),
                          NonlinearitySpec.power(2))
EX2 = TransmissionProblem(PotentialSpec.inverse_sqrt_half(),
                          NonlinearitySpec.power(2))
B0 = BranchId("I", 0, 1)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def grid_from(callable_, m=200):
    left = PanelFn.from_callable(PanelMesh("left", m), callable_)
    right = PanelFn.from_callable(PanelMesh("right", m), callable_)
    return GridFunction(left, right)


def test_zero_potential_solution_has_tiny_residual():
    problem = TransmissionProblem(PotentialSpec.zero())
    sol = fd_solve(problem, B0, rank=0, mesh=512)
    for report in (pointwise_residual(sol), integrated_residual(sol)):
        assert report.combined < 1e-10


def test_pointwise_rejects_singular_potential():
    sol = fd_solve(EX2, B0, rank=1, mesh=64)
    with pytest.raises(ValueError, match="integrated_residual"):
        pointwise_residual(sol)


def test_dispatch_picks_the_right_kind():
    sol1 = fd_solve(EX1, B0, rank=1, mesh=64)
    assert residual_report(sol1).kind == "pointwise"
    sol2 = fd_solve(EX2, B0, rank=1, mesh=64)
    assert residual_report(sol2).kind == "integrated"


def test_residual_forms_agree_on_magnitude():
    # both forms measure the same defect, so their logs should be close
    sol = fd_solve(EX1, B0, rank=2, mesh=1024)
    p = pointwise_residual(sol)
    i = integrated_residual(sol)
    assert p.combined > 0 and i.combined > 0
    assert abs(math.log10(p.combined) - math.log10(i.combined)) <= 1.0


def test_rank_zero_integrated_residual_magnitude():
    # frozen check on the singular problem: the rank-0 defect of the lowest
    # branch has sup norm about 0.58 in the once-integrated form
    sol = fd_solve(EX2, B0, rank=0, mesh=2048)
    rep = integrated_residual(sol)
    assert rep.combined == pytest.approx(0.58, rel=0.05)


def test_residuals_shrink_with_rank():
    sol = fd_solve(EX1, B0, rank=4, mesh=1024)
    reports = residual_by_rank(sol)
    assert len(reports) == 5
    norms = [r.combined for r in reports]
    assert all(a > b for a, b in zip(norms[:-1], norms[1:]))
    assert norms[4] < 1e-4 * norms[0]


def test_count_zeros_single_sine():
    u = grid_from(lambda x: np.sin(2.0 * math.pi * x))
    assert count_interior_zeros(u) == 1


def test_count_zeros_scale_invariant():
    for scale in (1.0, 17.0, 1e-7):
        u = grid_from(lambda x: scale * np.sin(6.0 * math.pi * x))
        assert count_interior_zeros(u) == 5


def test_count_zeros_flat_function():
    u = grid_from(lambda x: np.zeros_like(x))
    assert count_interior_zeros(u) == 0
    u = grid_from(lambda x: np.ones_like(x))
    assert count_interior_zeros(u) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("node", [0, 50, 350, 401])
def test_count_zeros_refuses_a_non_finite_sample(bad, node):
    # sup and tol would turn non-finite and every comparison false: 0 zeros
    u = grid_from(lambda x: np.sin(2.0 * math.pi * x))
    panel, index = (u.left, node) if node <= 200 else (u.right, node - 201)
    panel.values[index] = bad
    with pytest.raises(ValueError, match="non-finite"):
        count_interior_zeros(u)


def test_count_zeros_from_solver():
    sol = fd_solve(EX1, B0, rank=2, mesh=256)
    assert count_interior_zeros(sol.u_total()) == 0


def test_count_zeros_refuses_a_tolerance_that_is_not_finite_non_negative():
    # every sample fails `>= tol` at a nan or inf tol, which read 0 zeros
    u = fd_solve(EX1, BranchId("II", 4), rank=2, mesh=256).u_total()
    assert count_interior_zeros(u) == count_interior_zeros(u, 0.0) == 7
    for tol in (math.nan, math.inf, -1e-6):
        with pytest.raises(ValueError, match="finite and non-negative"):
            count_interior_zeros(u, tol)


def test_log_table_layout():
    reports = {(0, 0): 1.0, (0, 1): math.exp(-3.0),
               (2, 0): math.exp(2.0), (2, 1): 1e-300}
    mat, ns, ms = log_table(reports)
    assert ns == [0, 2] and ms == [0, 1]
    assert mat.shape == (2, 2)
    assert mat[0, 0] == 0.0
    assert mat[1, 0] == pytest.approx(-3.0)
    assert mat[0, 1] == pytest.approx(2.0)
    assert mat[1, 1] == pytest.approx(math.log(1e-300))


def test_a_nan_norm_is_not_an_exact_solution():
    # NaN in either panel reaches combined and its log; only 0 gives -inf
    for nu in ([[0.0], [math.nan]], [[math.nan], [0.0]]):
        rep = _finish("pointwise", 1, np.array(nu))
        assert math.isnan(rep.combined) and math.isnan(rep.log_value)
    assert _finish("pointwise", 0, np.zeros((2, 3))).log_value == -math.inf
    mat, _, _ = log_table({(0, 0): math.nan, (1, 0): 0.0, (2, 0): math.inf})
    assert math.isnan(mat[0, 0])
    assert mat[0, 1] == -math.inf and mat[0, 2] == math.inf


def test_log_table_accepts_reports():
    sol = fd_solve(EX1, B0, rank=1, mesh=64)
    rep = residual_report(sol)
    mat, ns, ms = log_table({(0, 1): rep})
    assert mat[0, 0] == pytest.approx(rep.log_value)


def test_report_fields_consistent():
    sol = fd_solve(EX1, B0, rank=2, mesh=256)
    rep = pointwise_residual(sol)
    assert isinstance(rep, ResidualReport)
    assert rep.rank == 2
    assert rep.combined == max(rep.norm1, rep.norm2)
    assert rep.log_value == pytest.approx(math.log(rep.combined))


@pytest.mark.parametrize("name,kind", [("example1.json", "pointwise"),
                                       ("example2.json", "integrated")])
@pytest.mark.parametrize("rank", [0, 1, 6])
def test_one_pass_table_equals_per_rank_reports(name, kind, rank):
    problem, branch = load_problem(PROBLEMS / name)
    sol = fd_solve(problem, branch, rank, 64)
    table = residual_by_rank(sol)
    assert len(table) == rank + 1
    for k, row in enumerate(table):
        assert row.kind == kind
        assert vars(row) == vars(residual_report(sol.truncate(k)))
