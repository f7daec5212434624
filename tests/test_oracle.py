import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from transeig import oracle
from transeig.basis import ascending_branches
from transeig.fdcore import fd_solve
from transeig.model import (FLUX_JUMP, INTERFACE, SLOPE_AT_ZERO, BranchId,
                            NonlinearitySpec, PotentialSpec,
                            TransmissionProblem, load_problem)
from transeig.oracle import find_eigenvalue, shoot

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
FREE = TransmissionProblem(PotentialSpec.zero())


def closed_form_miss(lam):
    """Terminal value u(1) for the zero-potential linear problem.

    Integrating sin(w*x)/w from the left and adding the particular solution
    sin(w*(x - 1/2)) started by the unit slope jump gives
    (sin(w) + sin(w/2)) / w at x = 1.
    """
    w = math.sqrt(lam)
    return (math.sin(w) + math.sin(w / 2.0)) / w


@pytest.mark.parametrize("lam", [10.0, 50.0, 123.4])
def test_shoot_matches_closed_form(lam):
    shot = shoot(FREE, lam, tol=1e-12)
    assert shot.miss == pytest.approx(closed_form_miss(lam), abs=1e-10)


def test_shoot_at_pi_squared():
    shot = shoot(FREE, math.pi ** 2, tol=1e-12)
    assert shot.miss == pytest.approx(1.0 / math.pi, abs=1e-10)


def test_shoot_vanishes_on_exact_eigenvalues():
    for lam in (16.0 * math.pi ** 2 / 9.0, 4.0 * math.pi ** 2):
        shot = shoot(FREE, lam, tol=1e-12)
        assert abs(shot.miss) < 1e-10


def test_shoot_records_jump():
    shot = shoot(FREE, 30.0, tol=1e-10)
    # the interface node appears twice: once as the end of the first leg,
    # once as the start of the second, with the unit jump between them
    mid = shot.x.searchsorted(0.5)
    assert shot.x[mid] == 0.5 and shot.x[mid + 1] == 0.5
    assert shot.u[mid + 1] == pytest.approx(shot.u[mid], abs=1e-12)
    assert shot.du[mid + 1] - shot.du[mid] == pytest.approx(1.0, abs=1e-12)


def test_shoot_rejects_singular_potential():
    singular = TransmissionProblem(PotentialSpec.inverse_sqrt_half())
    with pytest.raises(ValueError):
        shoot(singular, 20.0)


def test_find_eigenvalue_zero_potential():
    lam = find_eigenvalue(FREE, (15.0, 20.0))
    assert lam == pytest.approx(16.0 * math.pi ** 2 / 9.0, abs=1e-10)


def test_find_eigenvalue_needs_sign_change():
    with pytest.raises(ValueError, match="sign"):
        find_eigenvalue(FREE, (1.0, 5.0))
    with pytest.raises(ValueError):
        find_eigenvalue(FREE, (5.0, 1.0))


def test_find_eigenvalue_tolerance_stability():
    a = find_eigenvalue(FREE, (15.0, 20.0), tol=1e-10)
    b = find_eigenvalue(FREE, (15.0, 20.0), tol=1e-13)
    assert abs(a - b) < 1e-8


def test_oracle_agrees_with_recursion_on_linearized_problem():
    problem = TransmissionProblem(PotentialSpec.polynomial([0.0, 1.0, 3.0]))
    sol = fd_solve(problem, BranchId("I", 0, 1), rank=8, mesh=1024)
    lam = find_eigenvalue(problem, (sol.lambda_total - 0.5,
                                    sol.lambda_total + 0.5))
    assert lam == pytest.approx(sol.lambda_total, abs=1e-8)


def test_oracle_handles_nonlinearity():
    problem = TransmissionProblem(PotentialSpec.polynomial([0.0, 1.0, 3.0]),
                                  NonlinearitySpec.power(2))
    sol = fd_solve(problem, BranchId("I", 0, 1), rank=8, mesh=1024)
    lam = find_eigenvalue(problem, (sol.lambda_total - 0.5,
                                    sol.lambda_total + 0.5))
    assert lam == pytest.approx(sol.lambda_total, abs=1e-6)


def array_rhs(problem, lam):
    """(u, u')' with q and N evaluated through their __call__ on 0-d arrays.

    The right-hand side the float one has to reproduce bit for bit.
    """
    q, nl = problem.potential, problem.nonlinearity

    def rhs(x, u, du):
        return du, (float(q(x)) - lam) * u + nl(u)

    return rhs


def by_dop853(rhs, a, b, state, tol):
    return oracle._dop853(rhs, a, b, state, rtol=tol, atol=tol * 1e-3)


def by_solve_ivp(rhs, a, b, state, tol):
    sol = solve_ivp(lambda x, y: rhs(x, *y), (a, b), state, method="DOP853",
                    rtol=tol, atol=tol * 1e-3)
    if sol.status != 0:
        raise ValueError(f"integration failed on [{a}, {b}]: {sol.message}")
    return sol.t, sol.y[0], sol.y[1], sol.nfev


def shoot_with(integrate, problem, lam, tol):
    """shoot's two legs and unit slope jump on the array rhs.

    integrate(rhs, a, b, state, tol) runs one leg and returns its nodes,
    u, u' and number of rhs calls.
    """
    rhs = array_rhs(problem, lam)
    legs = []
    state = (0.0, SLOPE_AT_ZERO)
    for a, b in ((0.0, INTERFACE), (INTERFACE, 1.0)):
        legs.append(integrate(rhs, a, b, state, tol))
        state = (legs[-1][1][-1], legs[-1][2][-1] + FLUX_JUMP)
    x, u, du, nfev = zip(*legs)
    return oracle.ShotResult(miss=float(u[1][-1]), x=np.concatenate(x),
                             u=np.concatenate(u), du=np.concatenate(du),
                             nfev=sum(nfev))


def shoot_by_arrays(problem, lam, tol=1e-10):
    """shoot with the array rhs, on the same float DOP853 loop."""
    return shoot_with(by_dop853, problem, lam, tol)


def shoot_by_solve_ivp(problem, lam, tol=1e-10):
    """The reference: the array rhs on solve_ivp(method="DOP853")."""
    return shoot_with(by_solve_ivp, problem, lam, tol)


def assert_same_shot(got, want):
    assert got.miss == want.miss
    assert got.nfev == want.nfev
    for name in ("x", "u", "du"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@given(q=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
       n=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=4),
       lam=st.floats(5.0, 400.0))
@example(q=[6.0], n=[3.0, 0.0, 3.0, 3.0], lam=5.0)
@settings(max_examples=25, deadline=None)
def test_float_rhs_shoots_as_the_array_rhs(q, n, lam):
    problem = TransmissionProblem(PotentialSpec.polynomial(q),
                                  NonlinearitySpec(tuple(n)))
    try:
        want = shoot_by_arrays(problem, lam)
    except ValueError as exc:
        # a blow-up on the same loop: shoot must give up in the same words
        with pytest.raises(ValueError) as got_exc:
            shoot(problem, lam)
        assert str(got_exc.value) == str(exc)
        return
    assert_same_shot(shoot(problem, lam), want)


def test_tabulated_potential_shoots_as_the_array_rhs():
    q = PotentialSpec.tabulated(lambda x: np.exp(x) * np.cos(3.0 * x))
    problem = TransmissionProblem(q, NonlinearitySpec.power(2))
    for lam in (12.0, 87.5):
        assert_same_shot(shoot(problem, lam, tol=1e-12),
                         shoot_by_arrays(problem, lam, tol=1e-12))


@pytest.fixture
def shot_lambdas(monkeypatch):
    """Every λ that oracle.shoot is called with, in order."""
    lams = []
    real = oracle.shoot

    def counted(problem, lam, tol=1e-10):
        lams.append(lam)
        return real(problem, lam, tol)

    monkeypatch.setattr(oracle, "shoot", counted)
    return lams


def test_find_eigenvalue_shoots_each_lambda_once(shot_lambdas):
    problem, branch = load_problem(PROBLEMS / "example1.json")
    lam_fd = fd_solve(problem, branch, rank=6).lambda_total
    # the first bracket `validate` tries for I+0, at its default --tol
    find_eigenvalue(problem, (lam_fd - 0.5, lam_fd + 0.5), tol=1e-10)
    assert len(shot_lambdas) == len(set(shot_lambdas)) == 7
    for bracket in ((15.0, 20.0), (20.0, 60.0)):
        shot_lambdas.clear()
        find_eigenvalue(FREE, bracket)
        assert len(shot_lambdas) == len(set(shot_lambdas))


@given(q=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
       n=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=4),
       lam=st.floats(5.0, 400.0), tol=st.sampled_from([1e-10, 1e-13]))
@example(q=[14.0], n=[3.0, 2.0, 3.0], lam=5.0, tol=1e-10)
@example(q=[4.0, 0.0, 1.25], n=[0.0, 0.0, 0.25], lam=5.0, tol=1e-10)
@settings(max_examples=40, deadline=None)
def test_float_dop853_shoots_as_solve_ivp(q, n, lam, tol):
    problem = TransmissionProblem(PotentialSpec.polynomial(q),
                                  NonlinearitySpec(tuple(n)))
    try:
        ref = shoot_by_solve_ivp(problem, lam, tol)
    except ValueError as exc:
        # a blow-up: both integrations must give up in the same words
        with pytest.raises(ValueError) as got_exc:
            shoot(problem, lam, tol)
        assert str(got_exc.value) == str(exc)
        return
    got = shoot(problem, lam, tol)
    # the same tableau and step control; the stage sums round in another
    # order than numpy's dot. On the same steps the misses agree to
    # roundoff. A first error norm at roundoff level can pick another
    # second step, and then the two step paths agree to the tolerance
    scale = max(1.0, np.abs(ref.u).max())
    bound = 1e-12 if got.nfev == ref.nfev else tol
    assert abs(got.miss - ref.miss) <= bound * scale


def test_ex1_roots_agree_with_a_solve_ivp_oracle(monkeypatch):
    problem, _ = load_problem(PROBLEMS / "example1.json")
    brackets = []
    for branch in ascending_branches(6):
        lam_fd = fd_solve(problem, branch, rank=6).lambda_total
        brackets.append((lam_fd - 0.5, lam_fd + 0.5))
    ours = [find_eigenvalue(problem, b, tol=1e-13) for b in brackets]
    monkeypatch.setattr(oracle, "shoot", shoot_by_solve_ivp)
    theirs = [find_eigenvalue(problem, b, tol=1e-13) for b in brackets]
    assert np.abs(np.subtract(ours, theirs)).max() <= 1e-12


@pytest.mark.parametrize("q, n, lam", [
    ([1e6], (), 1.0),
    ([1e150], (), 1.0),
    ([0.0], (1e200,), 1.0),
    ([0.0], (0.0, 0.0, 0.0, 0.0, 1e300), 50.0),
], ids=["q=1e6", "q=1e150", "N=1e200u", "N=1e300u^5"])
def test_an_overflowing_shot_fails_cleanly(q, n, lam):
    # no OverflowError and no warning (pyproject turns warnings into
    # errors): the error norm rejects inf and nan until the step is too small
    problem = TransmissionProblem(PotentialSpec.polynomial(q),
                                  NonlinearitySpec(n))
    with pytest.raises(ValueError, match="integration failed"):
        shoot(problem, lam)


def test_shooting_memory_stays_flat():
    # scipy's compiled `ode` wrapper grows its heap by about 125 B a shot;
    # the float loop keeps nothing from one shot to the next
    script = f"""
import resource, sys
from transeig.model import load_problem
from transeig.oracle import shoot
problem, _ = load_problem({str(PROBLEMS / "example1.json")!r})
def shots(count):
    for i in range(count):
        shoot(problem, 10.0 + i % 50, tol=1e-8)
def peak():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024
shots(200)
before = peak()
shots(4000)
print(peak() - before)
"""
    src = Path(oracle.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert int(done.stdout.split()[-1]) < 256 * 1024


def test_a_shot_past_the_step_budget_fails_in_time():
    # q - λ ≈ -1e300 oscillates at a frequency near 1e150, so each step is
    # about 2e-151 long; without a budget the first leg never ends
    script = """
from transeig.model import PotentialSpec, TransmissionProblem
from transeig.oracle import shoot
try:
    shoot(TransmissionProblem(PotentialSpec.polynomial([-1e300])), 1.0)
except ValueError as err:
    print(err)
"""
    src = Path(oracle.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.stdout.startswith("integration failed on [0.0, 0.5]")
    assert f"more than {oracle._MAX_STEPS} steps" in done.stdout


def dense(pairs, size):
    row = np.zeros(size)
    for j, coef in pairs:
        row[j] = coef
    return row


def test_tableau_is_scipys_dop853():
    n = DOP853.n_stages
    a = np.array([np.zeros(n)] + [dense(row, n) for row in oracle._A])
    assert np.array_equal(a, DOP853.A)
    assert DOP853.C[0] == 0.0
    assert np.array_equal(oracle._C, DOP853.C[1:])
    assert np.array_equal(dense(oracle._B, n), DOP853.B)
    assert np.array_equal(dense(oracle._E5, n + 1), DOP853.E5)
    assert np.array_equal(dense(oracle._E3, n + 1), DOP853.E3)
    # every pair lies below the diagonal, in stage order, and is nonzero,
    # except E5's entry for the last stage, which keeps 0 * inf = nan
    sums = [(s, row) for s, row in enumerate(oracle._A, start=1)]
    sums += [(n, oracle._B), (n + 1, oracle._E5), (n + 1, oracle._E3)]
    zeros = []
    for s, row in sums:
        stages = [j for j, _ in row]
        assert stages == sorted(set(stages)) and stages[-1] < s
        zeros += [(s, j) for j, coef in row if coef == 0.0]
    assert zeros == [(n + 1, n)]
    assert sum(len(row) for _, row in sums) == 75


def cubic(c):
    return lambda x: ((c[3] * x + c[2]) * x + c[1]) * x + c[0]


def run(solver, f, a, b, xtol):
    """The root's bits, or the error, and the points f was called at."""
    xs = []

    def call(x):
        xs.append(x)
        return f(x)

    try:
        return float(solver(call, a, b, xtol=xtol)).hex(), xs
    except (ValueError, RuntimeError) as err:
        return repr(err), xs


@given(c=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       a=st.floats(-5.0, 0.0), b=st.floats(0.1, 5.0),
       xtol=st.sampled_from([1e-10, 1e-12, 1e-13]))
# f values so small that the extrapolation's denominator underflows to 0
@example(c=[0.0, 9.952969021299074e-120, 9.952969021299074e-120, 0.0],
         a=-0.5, b=1.0, xtol=1e-10)
@settings(max_examples=200, deadline=None)
def test_brentq_port_iterates_as_scipy(c, a, b, xtol):
    f = cubic(c)
    assume(f(a) * f(b) < 0.0)
    # some draws raise, e.g. both run out of iterations on x**3 over [-1, 2]
    assert run(oracle._brentq, f, a, b, xtol) == run(brentq, f, a, b, xtol)


@pytest.mark.parametrize("f, a, b, xtol", [
    (cubic([-2.0, 0.0, 0.0, 1.0]), 0.0, 3.0, 0.0),
    (cubic([-2.0, 0.0, 0.0, 1.0]), 0.0, 3.0, -1e-12),
    (cubic([2.0, 0.0, 1.0, 0.0]), 0.0, 3.0, 1e-12),
    (cubic([0.0, 0.0, 0.0, 1.0]), -1.0, 2.0, 1e-10),
    (lambda x: math.nan if x > 1.0 else -1.0, 0.0, 3.0, 1e-12),
], ids=["xtol=0", "xtol<0", "no-sign-change", "out-of-iterations", "nan"])
def test_brentq_port_raises_as_scipy(f, a, b, xtol):
    with pytest.raises((ValueError, RuntimeError)) as ref:
        brentq(f, a, b, xtol=xtol)
    with pytest.raises(ref.type, match=re.escape(str(ref.value))):
        oracle._brentq(f, a, b, xtol=xtol)
