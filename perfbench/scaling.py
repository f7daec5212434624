"""Rank and mesh scaling of one solve, reported but not gated.

The README claims that rank m costs O(m M) on an M-node mesh. For each
shipped problem this times `fd_solve` on branch I+0 at ranks 4, 8, 16, 32
(M=16384) and at meshes 2048 to 131072 (rank 8), once per point, and
fits the log-log slopes. Exponents near 1 support the claim.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from transeig.fdcore import fd_solve
from transeig.model import BranchId, load_problem

RANKS, RANK_MESH = (4, 8, 16, 32), 16384
MESHES, MESH_RANK = tuple(2048 * 2 ** i for i in range(7)), 8
SMOKE_RANKS, SMOKE_MESHES, SMOKE_MESH_RANK = (2, 4), (64, 128), 2


def _solve_seconds(problem, rank: int, mesh: int) -> float:
    start = perf_counter()
    fd_solve(problem, BranchId("I", 0, 1), rank, mesh)
    return perf_counter() - start


def _slope(sizes, seconds) -> float:
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def scaling_report(problem_paths: dict, smoke: bool) -> dict:
    """Fitted exponents and raw timings, keyed `scaling.<problem>.*`."""
    ranks, rank_mesh = (SMOKE_RANKS, SMOKE_MESHES[0]) if smoke else (
        RANKS, RANK_MESH)
    meshes, mesh_rank = (SMOKE_MESHES, SMOKE_MESH_RANK) if smoke else (
        MESHES, MESH_RANK)
    report = {}
    for name, path in problem_paths.items():
        problem, _ = load_problem(path)
        by_rank = [_solve_seconds(problem, r, rank_mesh) for r in ranks]
        by_mesh = [_solve_seconds(problem, mesh_rank, m) for m in meshes]
        report[f"scaling.{name}.rank_exponent"] = _slope(ranks, by_rank)
        report[f"scaling.{name}.mesh_exponent"] = _slope(meshes, by_mesh)
        report[f"scaling.{name}.seconds_by_rank"] = dict(zip(ranks, by_rank))
        report[f"scaling.{name}.seconds_by_mesh"] = dict(zip(meshes, by_mesh))
    return report
