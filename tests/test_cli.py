import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from transeig import cli
from transeig.fdcore import fd_solve
from transeig.model import BranchId, load_problem
from transeig.residual import count_interior_zeros

EX1 = Path(__file__).resolve().parent.parent / "problems" / "example1.json"
EX2 = Path(__file__).resolve().parent.parent / "problems" / "example2.json"
SRC = Path(cli.__file__).resolve().parent.parent


def write_free_problem(tmp_path, branch=None):
    data = {"potential": {"kind": "polynomial", "coeffs": [0.0]}}
    if branch is not None:
        data["branch"] = branch
    path = tmp_path / "free.json"
    path.write_text(json.dumps(data))
    return path


def test_solve_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(EX1), "--rank", "3",
                     "--mesh", "256", "--out", str(out)])
    assert code == 0
    csv_path = out / "I_plus_0.csv"
    json_path = out / "I_plus_0.json"
    assert csv_path.exists() and json_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,lambda,sup_u1,sup_u2,residual_norm"
    assert len(lines) == 5

    problem, branch = load_problem(EX1)
    sol = fd_solve(problem, branch, 3, 256)
    final_lambda = float(lines[-1].split(",")[1])
    assert final_lambda == pytest.approx(sol.lambda_total, rel=1e-14)

    payload = json.loads(json_path.read_text())
    assert payload["branch"] == "I_plus_0"
    assert payload["lambda"] == pytest.approx(sol.lambda_total, rel=1e-14)
    assert payload["config"]["mesh"] == 256
    assert payload["residual_kind"] == "pointwise"
    assert "convergence" in payload
    assert payload["zero_count"] == count_interior_zeros(sol.u_total())


def test_sup_columns_are_the_panel_sups(tmp_path):
    # II_1's rank-0 right piece is c2 * sin(w (1 - x)) with c2 = -0.0
    out = tmp_path / "out"
    assert cli.main(["solve", "--problem", str(EX1), "--family", "II",
                     "--n", "1", "--rank", "6", "--mesh", "256",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "II_1.csv").read_text().splitlines()[1:]]
    problem, _ = load_problem(EX1)
    sol = fd_solve(problem, BranchId("II", 1), 6, 256)
    zero = sol.corrections[0].u2.values
    assert np.all(zero == 0.0) and np.signbit(zero).any()
    assert rows[0][3] == "0.0000000000000000e+00"
    assert len(rows) == len(sol.corrections) == 7
    for row, c in zip(rows, sol.corrections):
        assert row[2:4] == [f"{c.u1.sup:.16e}", f"{c.u2.sup:.16e}"]


def test_lambda_column_is_each_partial_sum(tmp_path):
    # the column is one running sum; each cell must match the partial sum
    # re-added from rank 0, bit for bit, at every rank
    out = tmp_path / "out"
    assert cli.main(["sweep", "--problem", str(EX1), "--first", "2",
                     "--rank", "32", "--mesh", "2048", "--out", str(out)]) == 0
    problem, _ = load_problem(EX1)
    for branch in (BranchId("I", 0, 1), BranchId("II", 1)):
        sol = fd_solve(problem, branch, 32, 2048)
        cells = [line.split(",")[1] for line in
                 (out / f"{branch.tag}.csv").read_text().splitlines()[1:]]
        assert cells == [cli._fmt(sol.lambda_partial(m)) for m in range(33)]


def test_solve_zero_potential_constant_lambda(tmp_path):
    prob = write_free_problem(tmp_path, branch={"family": "II", "n": 1})
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(prob), "--rank", "2",
                     "--mesh", "128", "--out", str(out)])
    assert code == 0
    lines = (out / "II_1.csv").read_text().strip().splitlines()[1:]
    lambdas = [float(row.split(",")[1]) for row in lines]
    assert lambdas == [pytest.approx(4.0 * math.pi ** 2)] * 3


def test_solve_with_overflowing_decay_factor(tmp_path):
    prob = tmp_path / "big.json"
    prob.write_text(json.dumps(
        {"potential": {"kind": "polynomial", "coeffs": [1e6]}}))
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(prob), "--rank", "50",
                     "--mesh", "64", "--out", str(out)])
    assert code == 0
    conv = json.loads((out / "I_plus_0.json").read_text())["convergence"]
    assert sorted(conv) == ["condition_satisfied", "decay_factors",
                            "message", "q_norm", "radius", "ratio"]
    assert conv["decay_factors"][-1] == "inf"


def test_solve_flags_override_file_branch(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(EX1), "--family", "I",
                     "--n", "1", "--sign", "-", "--rank", "1",
                     "--mesh", "128", "--out", str(out)])
    assert code == 0
    assert (out / "I_minus_1.json").exists()
    payload = json.loads((out / "I_minus_1.json").read_text())
    assert payload["config"]["n"] == 1
    assert payload["config"]["sign"] == -1


def test_solve_sign_flag_keeps_file_family(tmp_path):
    prob = write_free_problem(tmp_path, branch={"family": "I", "n": 0})
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(prob), "--n", "1",
                     "--sign", "-", "--rank", "1", "--mesh", "64",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "I_minus_1.json").read_text())
    assert payload["config"] == {"family": "I", "mesh": 64, "n": 1,
                                 "rank": 1, "sign": -1}


@pytest.mark.parametrize("flags,named", [
    (["--n", "3", "--sign", "-"], "--n and --sign"),
    (["--n", "3"], "--n"),
    (["--sign", "-"], "--sign"),
], ids=["both", "n", "sign"])
def test_solve_refuses_branch_flags_without_a_family(tmp_path, capsys, flags,
                                                     named):
    # no --family and no branch record: the flags have nothing to refine
    prob = write_free_problem(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(prob), *flags, "--rank", "1",
                     "--mesh", "64", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: without --family or a branch record in the problem file, "
        f"{named} cannot select a branch\n")
    assert not out.exists()


def test_solve_without_branch_flags_or_record_solves_the_lowest(tmp_path):
    prob = write_free_problem(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(prob), "--rank", "1",
                     "--mesh", "64", "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["I_plus_0.csv",
                                                      "I_plus_0.json"]


def test_solve_family_flag_default_index(tmp_path):
    prob = write_free_problem(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["solve", "--problem", str(prob), "--family", "II",
                     "--rank", "0", "--mesh", "64", "--out", str(out)])
    assert code == 0
    assert (out / "II_1.json").exists()


def test_sweep_outputs_and_log_table(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--problem", str(EX1), "--first", "3",
                     "--rank", "2", "--mesh", "128", "--out", str(out)])
    assert code == 0
    for tag in ("I_plus_0", "II_1", "I_minus_1"):
        assert (out / f"{tag}.csv").exists()
        assert (out / f"{tag}.json").exists()
    lines = (out / "log_table.csv").read_text().strip().splitlines()
    assert lines[0].startswith("m,")
    assert len(lines) == 4  # header plus ranks 0..2


@pytest.mark.parametrize("problem", [EX1, EX2],
                         ids=["example1", "example2"])
def test_sweep_parallel_matches_serial(tmp_path, problem):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    base = ["sweep", "--problem", str(problem), "--first", "3", "--rank", "2",
            "--mesh", "64"]
    assert cli.main(base + ["--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main(base + ["--out", str(out2), "--jobs", "3"]) == 0
    for name in ("I_plus_0.csv", "I_plus_0.json", "II_1.csv", "II_1.json",
                 "I_minus_1.csv", "I_minus_1.json", "log_table.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_validate_smooth_problem(tmp_path, capsys):
    prob = write_free_problem(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["validate", "--problem", str(prob), "--first", "2",
                     "--rank", "2", "--mesh", "256", "--out", str(out)])
    assert code == 0
    lines = (out / "validate.csv").read_text().strip().splitlines()
    assert lines[0] == "index,branch,lambda_fd,lambda_oracle,abs_diff"
    assert len(lines) == 3
    diffs = [float(row.split(",")[4]) for row in lines[1:]]
    assert max(diffs) < 1e-6
    printed = capsys.readouterr().out
    assert "lambda_oracle" in printed


def modules_at_exit(code: str, prefix: str = "scipy") -> list[str]:
    """The prefix* modules a fresh interpreter holds after running code."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    script = (code + "\nimport json, sys\nprint(json.dumps(sorted("
              f"m for m in sys.modules if m.startswith({prefix!r}))))")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", [["sweep", "--first", "2"], ["solve"],
                                     ["validate", "--first", "2"]],
                         ids=lambda c: c[0])
def test_no_command_imports_scipy(tmp_path, command):
    argv = command + ["--problem", str(EX1), "--rank", "2", "--mesh", "64",
                      "--out", str(tmp_path / "out")]
    loaded = modules_at_exit(
        f"from transeig import cli\nassert cli.main({argv!r}) == 0")
    # the shooting oracle carries its own DOP853 tableau and brentq
    assert loaded == []


@pytest.mark.parametrize("command", [["sweep", "--first", "2", "--jobs", "1"],
                                     ["solve"], ["validate", "--first", "2"]],
                         ids=lambda c: c[0])
def test_serial_commands_load_no_multiprocessing(tmp_path, command):
    argv = command + ["--problem", str(EX1), "--rank", "2", "--mesh", "64",
                      "--out", str(tmp_path / "out")]
    assert modules_at_exit(f"from transeig import cli\n"
                           f"assert cli.main({argv!r}) == 0",
                           "multiprocessing") == []


def test_the_multiprocessing_check_sees_a_pool(tmp_path):
    # the control: a parallel sweep is the one command that needs the pool
    argv = ["sweep", "--first", "2", "--jobs", "2", "--problem", str(EX1),
            "--rank", "2", "--mesh", "64", "--out", str(tmp_path / "out")]
    assert "multiprocessing" in modules_at_exit(
        f"from transeig import cli\nassert cli.main({argv!r}) == 0",
        "multiprocessing")


def test_the_scipy_check_sees_an_import():
    # the control: an empty list above means scipy was not loaded
    assert "scipy.optimize" in modules_at_exit("import scipy.optimize")


def test_bare_import_loads_no_scipy():
    assert modules_at_exit("import transeig") == []


def test_a_tabulated_norm_loads_no_scipy():
    assert modules_at_exit(
        "import numpy as np\n"
        "from transeig.model import PotentialSpec, l1_norm\n"
        "assert abs(l1_norm(PotentialSpec.tabulated(np.cos))"
        " - np.sin(1.0)) < 1e-12") == []


def test_validate_from_rank_zero(tmp_path):
    # at rank 0 the FD value of I+0 is 2.13 from the root, outside both
    # widths around it; the bracket between neighbouring levels finds it
    code = cli.main(["validate", "--problem", str(EX1), "--first", "6",
                     "--rank", "0", "--mesh", "64",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "validate.csv").read_text().splitlines()
    assert len(lines) == 7


def test_validate_refuses_singular_potential(tmp_path, capsys):
    code = cli.main(["validate", "--problem", str(EX2), "--first", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "integrated residual" in err


def test_missing_problem_file(tmp_path, capsys):
    code = cli.main(["solve", "--problem", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("record", [
    {"potential": 5},
    {"potential": {"kind": "polynomial"}, "nonlinearity": 5},
    {"potential": {"kind": "polynomial"}, "branch": "I"},
    {"potential": {"kind": "polynomial", "coeffs": []}},
    {"potential": {"kind": "polynomial", "coeffs": [math.nan]}},
    {"potential": {"kind": "polynomial", "coeffs": [math.inf]}},
    {"potential": {"kind": "polynomial"},
     "nonlinearity": {"coeffs_from_degree_1": [math.nan]}},
    {"potential": {"kind": "polynomial"}, "branch": {"family": "II", "n": 1.5}},
    {"potential": {"kind": "polynomial"}, "branch": {"family": "II", "n": "2"}},
    {"potential": {"kind": "polynomial"}, "branch": {"family": "II", "n": True}},
    {"potential": {"kind": "polynomial", "coeffs": [0, 1, 3]},
     "nonlinearity": {"coeffs": [0, 1]}},
    {"potential": {"kind": "inverse_sqrt_half", "coeffs": [1.0]}},
    {"potential": {"kind": "polynomial"},
     "branch": {"family": "II", "n": 1, "sgn": 1}},
    {"potential": {"kind": "polynomial"}, "nonlinear": {}},
], ids=["potential", "nonlinearity", "branch", "empty-coeffs", "nan-coeff",
        "infinite-coeff", "nan-nonlinearity-coeff", "fractional-n", "string-n",
        "bool-n", "nonlinearity-key", "coeffs-of-the-weight", "branch-key",
        "top-level-key"])
def test_malformed_problem_file_exits_2(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    code = cli.main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_misspelled_key_is_named(tmp_path, capsys):
    # "coeffs" for "coeffs_from_degree_1" used to solve the free problem
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "potential": {"kind": "polynomial", "coeffs": [0, 1, 3]},
        "nonlinearity": {"coeffs": [0, 1]}}))
    code = cli.main(["solve", "--problem", str(path), "--rank", "2",
                     "--mesh", "64", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "nonlinearity record has unknown key 'coeffs'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flags", [
    ["solve", "--rank", "-1"],
    ["solve", "--mesh", "63"],
    ["validate", "--tol", "0"],
    ["sweep", "--first", "0"],
    ["sweep", "--first", "2", "--jobs", "0"],
    ["validate", "--first", "0"],
    ["validate", "--tol", "nan"],
    ["validate", "--tol", "inf"],
], ids=["rank", "mesh", "tol", "first", "jobs", "validate-first", "tol-nan",
        "tol-inf"])
def test_out_of_range_flags_exit_2(tmp_path, capsys, flags):
    code = cli.main(flags + ["--problem", str(EX1),
                             "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_tol_is_a_validate_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--problem", str(EX1), "--tol", "1e-10",
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


@pytest.mark.parametrize("first, jobs, sizes", [("2", "8", [2]),
                                                ("1", "4", [])],
                         ids=["first-2-jobs-8", "first-1-jobs-4"])
def test_sweep_pool_has_no_more_workers_than_branches(
        tmp_path, monkeypatch, first, jobs, sizes):
    opened = []

    class SerialPool:
        """Records the pool size and maps in this process."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code = cli.main(["sweep", "--problem", str(EX1), "--first", first,
                     "--jobs", jobs, "--rank", "1", "--mesh", "64",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert opened == sizes


def test_invalid_branch_flags(tmp_path, capsys):
    code = cli.main(["solve", "--problem", str(EX1), "--family", "II",
                     "--n", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_json_is_sorted_and_finite(tmp_path):
    out = tmp_path / "out"
    cli.main(["solve", "--problem", str(EX1), "--rank", "1",
              "--mesh", "128", "--out", str(out)])
    text = (out / "I_plus_0.json").read_text()
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert "NaN" not in text and "Infinity" not in text


def test_validate_reports_a_failed_oracle_integration(tmp_path, capsys):
    # a stiff cubic N makes the shooting integrator give up
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({
        "potential": {"kind": "polynomial", "coeffs": [0.0]},
        "nonlinearity": {"coeffs_from_degree_1": [0.0, 0.0, 1e6]}}))
    code = cli.main(["validate", "--problem", str(path), "--first", "1",
                     "--rank", "2", "--mesh", "64",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "integration failed" in err
    assert "Traceback" not in err


def test_divergent_series_exits_1_without_output(tmp_path, capsys):
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps({
        "potential": {"kind": "polynomial", "coeffs": [0.0, 1e200]},
        "nonlinearity": {"coeffs_from_degree_1": [0.0, 1.0]}}))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = cli.main(["solve", "--problem", str(path), "--rank", "4",
                         "--mesh", "64", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "diverges" in err
    assert not out.exists()


def test_divergent_solve_reports_one_line(tmp_path, capsys):
    # no outer errstate: the overflow on the way to the non-finite
    # correction must not reach the user as numpy warnings
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps({
        "potential": {"kind": "polynomial", "coeffs": [0.0, 1e200]},
        "nonlinearity": {"coeffs_from_degree_1": [0.0, 1.0]}}))
    code = cli.main(["solve", "--problem", str(path), "--rank", "4",
                     "--mesh", "64", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: correction 2 is not finite; the series diverges\n")


@pytest.mark.parametrize("argv,message", [
    (["solve", "--family", "II", "--n", "1"], "II_1: residual norm at rank 1 "
                                              "is nan"),
    (["sweep", "--first", "2"], "I_plus_0: residual norm at rank 1 is inf"),
], ids=["solve-nan", "sweep-inf"])
def test_non_finite_residual_exits_1_without_output(tmp_path, capsys, argv,
                                                    message):
    # N = 1e300*u**2: the corrections stay finite, the residual overflows;
    # no outer errstate, so a numpy warning would fail the test
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps({
        "potential": {"kind": "polynomial", "coeffs": [0.0, 1.0, 3.0]},
        "nonlinearity": {"coeffs_from_degree_1": [0.0, 1e300]}}))
    out = tmp_path / "out"
    code = cli.main(argv + ["--problem", str(path), "--rank", "1",
                            "--mesh", "64", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {message}; nothing was written\n")
    assert not out.exists()


def test_validate_prints_the_oracle_tolerance(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["validate", "--problem", str(EX1), "--first", "1",
                     "--rank", "2", "--mesh", "64", "--tol", "1e-12",
                     "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("oracle tolerance 1e-12: ")
    # stdout only: the CSV keeps its header and one row per branch
    assert len((out / "validate.csv").read_text().splitlines()) == 2
