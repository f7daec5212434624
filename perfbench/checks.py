"""Reference values and output checks for each workload.

References are computed once per run, after the timed loop, and every
operation's output directory is then checked against them:

- singular: each branch's residual norms decrease with rank until they
  reach roundoff, and its eigenvalue agrees with an M/2 solve. On seed 0
  the eigenvalues must also match the frozen table of the acceptance
  suite (criterion 2).
- oracle: each branch's eigenvalue agrees with the shooting oracle at
  tol 1e-13, and its final residual is at roundoff.
- reference: the FD column of `validate.csv` agrees with a rank-32 FD
  solve to within the rank-6 truncation error, and its oracle column
  agrees with the same solve to within the oracle's default tolerance.

The tolerances are ten to twenty times the worst value measured over
coefficient factors 0.5, 1 and 1.5. The rank-2, M=64 self-test checks the
plumbing, not the accuracy: it uses the looser SMOKE_TOL and skips the
frozen table.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from transeig.basis import ascending_branches
from transeig.fdcore import fd_solve
from transeig.oracle import find_eigenvalue

# Criterion 2 of tests/test_acceptance.py: the four lowest branches of
# problems/example2.json at rank 8, M=16384.
EX2_LAMBDA = [21.734887362829545, 41.751101775606187, 73.462193887097591,
              160.24664121090206]
EX2_LAMBDA_TOL = [1e-9, 1e-9, 1e-9, 1e-11]

ORACLE_TOL = 1e-13
REFERENCE_RANK = 32
# Residual norms below this are roundoff and need not decrease further.
RESIDUAL_FLOOR = 1e-13

FULL_TOL = {"mesh": 5e-9, "oracle": 5e-11, "residual": 1e-13,
            "fd": 1e-6, "oracle_column": 1e-7}
SMOKE_TOL = {"mesh": 1e-1, "oracle": 1e-1, "residual": 1e-1,
             "fd": 1e-1, "oracle_column": 1e-1}


def _oracle(problem, center: float) -> float:
    last_error = None
    for width in (0.5, 2.0):
        try:
            return find_eigenvalue(problem, (center - width, center + width),
                                   tol=ORACLE_TOL)
        except ValueError as exc:
            last_error = exc
    raise last_error


def references(workload, problem, rank: int, mesh: int) -> dict:
    """Reference eigenvalue per branch tag for the workload's check."""
    refs = {}
    for branch in ascending_branches(workload.branches):
        if workload.check == "singular":
            value = fd_solve(problem, branch, rank, mesh // 2).lambda_total
        elif workload.check == "oracle":
            # A rank-4 solve only centres the bracket; the root is the
            # oracle's own.
            center = fd_solve(problem, branch, 4, mesh).lambda_total
            value = _oracle(problem, center)
        else:
            value = fd_solve(problem, branch, REFERENCE_RANK,
                             mesh).lambda_total
        refs[branch.tag] = value
    return refs


def _near(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: {got!r} differs from {want!r} by "
            f"{abs(got - want):.2e} > {tol:.0e}"]


def _check_sweep(workload, out: Path, refs: dict, tol: dict,
                 table: bool) -> list[str]:
    errors = []
    if not (out / "log_table.csv").is_file():
        errors.append("log_table.csv is missing")
    for index, (tag, want) in enumerate(refs.items()):
        try:
            summary = json.loads((out / f"{tag}.json").read_text())
            lam = float(summary["lambda"])
            residual = float(summary["residual_norm"])
            with open(out / f"{tag}.csv", newline="") as handle:
                norms = [float(row["residual_norm"])
                         for row in csv.DictReader(handle)]
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"{tag}: unreadable output: {exc!r}")
            continue
        if workload.check == "singular":
            errors += _near(f"{tag} vs M/2 solve", lam, want, tol["mesh"])
            if any(b >= a > RESIDUAL_FLOOR for a, b in zip(norms, norms[1:])):
                errors.append(f"{tag}: residuals do not decrease: {norms}")
            if table:
                errors += _near(f"{tag} vs frozen table", lam,
                                EX2_LAMBDA[index], EX2_LAMBDA_TOL[index])
        else:
            errors += _near(f"{tag} vs oracle", lam, want, tol["oracle"])
            if not residual <= tol["residual"]:
                errors.append(f"{tag}: final residual {residual:.2e} > "
                              f"{tol['residual']:.0e}")
    return errors


def _check_validate(out: Path, refs: dict, tol: dict) -> list[str]:
    try:
        with open(out / "validate.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        return [f"validate.csv unreadable: {exc}"]
    if [row["branch"] for row in rows] != list(refs):
        return [f"validate.csv branches {[r['branch'] for r in rows]} "
                f"!= {list(refs)}"]
    errors = []
    for row in rows:
        want = refs[row["branch"]]
        fd, oracle = float(row["lambda_fd"]), float(row["lambda_oracle"])
        errors += _near(f"{row['branch']} FD vs rank {REFERENCE_RANK}", fd,
                        want, tol["fd"])
        errors += _near(f"{row['branch']} oracle vs rank {REFERENCE_RANK}",
                        oracle, want, tol["oracle_column"])
        errors += _near(f"{row['branch']} abs_diff", float(row["abs_diff"]),
                        abs(fd - oracle), 1e-12 * abs(want))
    return errors


def check_output(workload, out: Path, refs: dict, seed: int,
                 smoke: bool) -> list[str]:
    """Problems found in one operation's output directory; empty if none."""
    tol = SMOKE_TOL if smoke else FULL_TOL
    if workload.check == "reference":
        return _check_validate(out, refs, tol)
    return _check_sweep(workload, out, refs, tol,
                        table=seed == 0 and not smoke)
