"""Command-line front end: single solves, branch sweeps, oracle validation.

Outputs are deterministic: floating-point cells use a fixed 16-digit
scientific format, JSON keys are sorted, and sweep results are collected
per branch and written in ascending order regardless of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from .basis import ascending_branches, zero_eigenvalue
from .convergence import branch_point_radius, convergence_report
from .fdcore import DEFAULT_MESH, fd_solve
from .model import (BranchId, ModelError, TransmissionProblem, l1_norm,
                    load_problem)
from .oracle import find_eigenvalue
from .residual import count_interior_zeros, log_table, residual_by_rank


def _check_flags(args: argparse.Namespace) -> None:
    """Range checks the parser cannot express; a failing flag exits 2."""
    if args.rank < 0:
        raise ModelError("rank must be non-negative")
    if args.mesh % 2 or args.mesh < 4:
        raise ModelError("mesh size must be even and at least 4")
    # `not <` also refuses nan, which `tol <= 0.0` lets through
    if not 0.0 < getattr(args, "tol", 1.0) < math.inf:
        raise ModelError("tolerance must be finite and positive")
    if getattr(args, "jobs", 1) < 1:
        raise ModelError("worker count must be at least 1")


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _branch_payload(problem: TransmissionProblem, l1: float, radius: float,
                    args: argparse.Namespace, branch: BranchId) -> dict:
    """Solve one branch and render its CSV and JSON texts.

    l1 is the L1 norm of the problem's potential and radius the
    branch_point_radius of l1 and the problem's nonlinearity; both depend
    on the problem only, so a command computes them once for all branches.
    """
    rank = args.rank
    sol = fd_solve(problem, branch, rank, args.mesh)
    # an overflow shows as a non-finite norm, refused below as one error
    with np.errstate(over="ignore", invalid="ignore"):
        reports = residual_by_rank(sol)
    for r in reports:
        if not math.isfinite(r.combined):
            raise ValueError(f"{branch.tag}: residual norm at rank {r.rank} "
                             f"is {r.combined}; nothing was written")
    zero_count = count_interior_zeros(sol.u_total())
    conv = convergence_report(l1, problem.nonlinearity, branch, rank,
                              radius)
    lines = ["m,lambda,sup_u1,sup_u2,residual_norm"]
    lams = np.cumsum(sol.lambdas)  # adds in rank order, as lambda_partial
    for m, (u, report) in enumerate(zip(sol.u, reports)):
        sups = np.abs(u).max(axis=-1)  # sup of u1 and of u2
        lines.append(",".join([
            str(m),
            _fmt(lams[m]),
            *map(_fmt, sups),
            _fmt(report.combined),
        ]))
    csv_text = "\n".join(lines) + "\n"
    payload = {
        "branch": branch.tag,
        "config": {"family": branch.family, "mesh": args.mesh, "n": branch.n,
                   "rank": rank, "sign": branch.sign},
        "convergence": conv.as_dict(),
        "lambda": sol.lambda_total,
        "problem": args.problem,
        "residual_kind": reports[-1].kind,
        "residual_norm": reports[-1].combined,
        "zero_count": zero_count,
    }
    json_text = json.dumps(_json_safe(payload), sort_keys=True, indent=2,
                           allow_nan=False) + "\n"
    return {
        "tag": branch.tag,
        "csv": csv_text,
        "json": json_text,
        "norms": [r.combined for r in reports],
        "lambda": sol.lambda_total,
        "zero_count": zero_count,
    }


def _norm_and_radius(problem: TransmissionProblem) -> tuple[float, float]:
    """The potential's L1 norm and the radius _branch_payload reports."""
    l1 = l1_norm(problem.potential)
    return l1, branch_point_radius(l1, problem.nonlinearity)


def _write_branch_files(out: Path, payload: dict) -> None:
    (out / f"{payload['tag']}.csv").write_text(payload["csv"],
                                               encoding="utf-8")
    (out / f"{payload['tag']}.json").write_text(payload["json"],
                                                encoding="utf-8")


def cmd_solve(args: argparse.Namespace) -> int:
    problem, file_branch = load_problem(args.problem)
    branch = ((file_branch or BranchId("I", 0)) if args.branch is None
              else BranchId.from_tag(args.branch))
    payload = _branch_payload(problem, *_norm_and_radius(problem), args, branch)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_branch_files(out, payload)
    print(f"{payload['tag']}: lambda = {_fmt(payload['lambda'])}  "
          f"residual = {payload['norms'][-1]:.2e}  "
          f"zeros = {payload['zero_count']}")
    print(f"wrote {out / (payload['tag'] + '.csv')} and .json")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    branches = ascending_branches(args.first)
    problem, _ = load_problem(args.problem)
    task = partial(_branch_payload, problem, *_norm_and_radius(problem), args)
    jobs = min(args.jobs, len(branches))
    if jobs > 1:
        # imported here: multiprocessing costs every other command's start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            payloads = list(pool.map(task, branches))
    else:
        payloads = [task(b) for b in branches]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for payload in payloads:
        _write_branch_files(out, payload)
        print(f"{payload['tag']}: lambda = {_fmt(payload['lambda'])}")
    matrix = log_table([p["norms"] for p in payloads])
    lines = ["m," + ",".join(p["tag"] for p in payloads)]
    for m, row in enumerate(matrix):
        lines.append(f"{m}," + ",".join(map(_fmt, row)))
    (out / "log_table.csv").write_text("\n".join(lines) + "\n",
                                       encoding="utf-8")
    print(f"wrote {len(payloads)} branch files and log_table.csv to {out}")
    return 0


def _oracle_near(problem, center: float, levels: list[float], index: int,
                 tol: float) -> float:
    """Shooting root of branch `index` next to its FD value `center`.

    Two widths around the FD value come first. Then comes the bracket
    between the midpoints to the neighbouring zero eigenvalues in `levels`
    (ascending, one beyond the branch); the lowest branch extends downward
    by its upper half-gap.
    """
    level = levels[index]
    upper = 0.5 * (levels[index + 1] - level)
    lower = 0.5 * (level - levels[index - 1]) if index else upper
    for bracket in ((center - 0.5, center + 0.5), (center - 2.0, center + 2.0),
                    (level - lower, level + upper)):
        try:
            return find_eigenvalue(problem, bracket, tol=tol)
        except ValueError as exc:
            last_error = exc
    raise last_error


def cmd_validate(args: argparse.Namespace) -> int:
    branches = ascending_branches(args.first)
    levels = [zero_eigenvalue(b) for b in ascending_branches(args.first + 1)]
    problem, _ = load_problem(args.problem)
    if problem.is_singular:
        print("validation by shooting is unavailable for a singular "
              "potential; check such solves with the integrated residual "
              "instead", file=sys.stderr)
        return 1
    rows = []
    for index, branch in enumerate(branches):
        sol = fd_solve(problem, branch, args.rank, args.mesh)
        lam_fd = sol.lambda_total
        lam_star = _oracle_near(problem, lam_fd, levels, index, args.tol)
        rows.append((index, branch.tag, lam_fd, lam_star,
                     abs(lam_fd - lam_star)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["index,branch,lambda_fd,lambda_oracle,abs_diff"]
    print(f"{'index':<6}{'branch':<12}{'lambda_fd':<24}"
          f"{'lambda_oracle':<24}abs_diff")
    for index, tag, lam_fd, lam_star, diff in rows:
        lines.append(f"{index},{tag},{_fmt(lam_fd)},{_fmt(lam_star)},"
                     f"{_fmt(diff)}")
        print(f"{index:<6}{tag:<12}{_fmt(lam_fd):<24}"
              f"{_fmt(lam_star):<24}{diff:.2e}")
    print(f"oracle tolerance {args.tol:g}: an abs_diff near or below it "
          "is oracle error")
    (out / "validate.csv").write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main is called
    in-process many times (tests, the benchmark harness), and building the
    parser costs about ten times as much as a parse."""
    parser = argparse.ArgumentParser(
        prog="transeig",
        description="Eigenvalue transmission problems on (0, 1) by the "
                    "correction recursion")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_rank: int) -> None:
        p.add_argument("--problem", required=True, metavar="PATH",
                       help="problem description file (JSON)")
        p.add_argument("--rank", type=int, default=default_rank, metavar="M_RANK",
                       help="number of corrections beyond the zero term")
        p.add_argument("--mesh", type=int, default=DEFAULT_MESH, metavar="M",
                       help="panel mesh size (even)")
        p.add_argument("--out", default="out", metavar="DIR",
                       help="output directory")

    solve = sub.add_parser("solve", help="solve a single branch")
    solve.set_defaults(run=cmd_solve)
    add_common(solve, default_rank=4)
    solve.add_argument("--branch", metavar="TAG",
                       help="branch tag such as I_plus_0, I_minus_1 or II_3 "
                            "(default: the problem file's record, else "
                            "I_plus_0)")

    sweep = sub.add_parser("sweep", help="solve the first K branches")
    sweep.set_defaults(run=cmd_sweep)
    add_common(sweep, default_rank=4)
    sweep.add_argument("--first", type=int, required=True, metavar="K",
                       help="number of branches in ascending order")
    sweep.add_argument("--jobs", type=int, default=1, metavar="INT",
                       help="worker processes")

    validate = sub.add_parser("validate",
                              help="cross-check eigenvalues by shooting")
    validate.set_defaults(run=cmd_validate)
    add_common(validate, default_rank=6)
    validate.add_argument("--first", type=int, default=6, metavar="K",
                          help="number of branches in ascending order")
    validate.add_argument("--tol", type=float, default=1e-10, metavar="REAL",
                          help="oracle root-finding tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.run(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
