import math
import os
import re
import subprocess
import sys
import warnings
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
                            TransmissionProblem, horner, load_problem)
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


def test_tiny_misses_of_one_sign_name_the_bracket(monkeypatch):
    # the product of the two misses underflows to 0; their signs still agree
    empty = np.empty(0)
    monkeypatch.setattr(oracle, "shoot", lambda problem, lam, tol=1e-10:
                        oracle.ShotResult(1e-200, empty, empty, empty, 0))
    with pytest.raises(ValueError,
                       match=re.escape("does not change sign on [1.0, 5.0]")):
        find_eigenvalue(FREE, (1.0, 5.0))


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


# The frozen reference: the oracle's DOP853 driver, its generated step and
# shoot's float right-hand side as they were before the oracle generated
# whole legs. reference_dop853 is solve_ivp's algorithm written by hand;
# the generated leg must reproduce it bit for bit.

def generate_reference_step():
    """One DOP853 step as straight-line code, generated from the tableau.

    step(f, x, h, u, v, fu, fv) makes the 12 f calls of a step from (u, v)
    at x with f(x, u, v) = (fu, fv) and returns the new state, f at the new
    point and the E5 and E3 error sums: u_new, v_new, fu_new, fv_new, e5u,
    e5v, e3u, e3v. Stage j is (k{j}u, k{j}v), stage 0 (fu, fv). Each sum is
    written 0.0 + c * k_j + ..., left to right over the tableau's pairs, so
    it rounds as the loop "s = 0.0; s += c * k_j" does.
    """
    def total(pairs, part):
        return " + ".join(["0.0"] + [f"{coef!r} * k{j}{part}"
                                     for j, coef in pairs])

    last = len(oracle._A) + 1
    lines = ["def step(f, x, h, u, v, fu, fv):", "    k0u, k0v = fu, fv"]
    for s, (row, c) in enumerate(zip(oracle._A, oracle._C), start=1):
        lines.append(f"    k{s}u, k{s}v = f(x + {c!r} * h, "
                     f"u + ({total(row, 'u')}) * h, "
                     f"v + ({total(row, 'v')}) * h)")
    lines += [f"    u_new = u + h * ({total(oracle._B, 'u')})",
              f"    v_new = v + h * ({total(oracle._B, 'v')})",
              f"    k{last}u, k{last}v = f(x + h, u_new, v_new)",
              f"    return (u_new, v_new, k{last}u, k{last}v,",
              f"            {total(oracle._E5, 'u')},",
              f"            {total(oracle._E5, 'v')},",
              f"            {total(oracle._E3, 'u')},",
              f"            {total(oracle._E3, 'v')})"]
    namespace = {}
    exec(compile("\n".join(lines), "<DOP853 step>", "exec"), namespace)
    return namespace["step"]


REFERENCE_STEP = generate_reference_step()


def rms(p, q):
    """solve_ivp's RMS norm of a 2-vector, by products that overflow to inf."""
    return math.sqrt(p * p + q * q) / math.sqrt(2.0)


def reference_dop853(f, a, b, y0, rtol, atol, step=REFERENCE_STEP):
    """Integrate (u, v)' = f(x, u, v) from a to b > a with DOP853.

    solve_ivp(method="DOP853")'s algorithm on Python floats: its tableau,
    initial step, RMS error norm and step control, with no max_step.
    Returns the accepted nodes and states, starting at a and ending at b,
    and the number of f calls; step is one DOP853 step, called as
    REFERENCE_STEP. Overflow shows up as inf or nan, which the error norm
    rejects until the step is too small, so it raises the same ValueError
    as a stiff problem; so does a leg that needs more than _MAX_STEPS
    steps, where solve_ivp would step on for ever.
    """
    x, (u, v) = a, y0
    fu, fv = f(x, u, v)
    # select_initial_step
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(u / su, v / sv), rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, b - a)
    gu, gv = f(a + h0, u + h0 * fu, v + h0 * fv)
    d2 = rms((gu - fu) / su, (gv - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100 * h0, h1, b - a)
    nfev = 2
    xs, us, vs = [x], [u], [v]
    while x < b:
        if len(xs) > oracle._MAX_STEPS:
            raise ValueError(f"integration failed on [{a}, {b}]: more than "
                             f"{oracle._MAX_STEPS} steps.")
        min_step = 10 * (math.nextafter(x, math.inf) - x)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise ValueError(f"integration failed on [{a}, {b}]: "
                                 "Required step size is less than spacing "
                                 "between numbers.")
            x_new = min(x + h_abs, b)
            h = x_new - x
            (u_new, v_new, fu_new, fv_new,
             e5u, e5v, e3u, e3v) = step(f, x, h, u, v, fu, fv)
            nfev += 12
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            p, r = e5u / su, e5v / sv
            err5 = p * p + r * r
            p, r = e3u / su, e3v / sv
            denom = err5 + 0.01 * (p * p + r * r)
            error_norm = h * err5 / math.sqrt(denom * 2) if denom else 0.0
            if error_norm < 1:
                factor = (oracle._MAX_FACTOR if error_norm == 0 else
                          min(oracle._MAX_FACTOR,
                              oracle._SAFETY * error_norm ** oracle._EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs = h * factor
                break
            h_abs = h * max(oracle._MIN_FACTOR,
                            oracle._SAFETY * error_norm ** oracle._EXPONENT)
            rejected = True
        x, u, v, fu, fv = x_new, u_new, v_new, fu_new, fv_new
        xs.append(x)
        us.append(u)
        vs.append(v)
    return xs, us, vs, nfev


def float_rhs(problem, lam):
    """shoot's former right-hand side: model.horner inlined on Python floats.

    The operands and order of PotentialSpec/NonlinearitySpec.__call__,
    without a 0-d numpy array or a function call per polynomial.
    """
    q = problem.potential
    poly = tuple(reversed(q.coeffs)) if q.kind == "polynomial" else None
    n = tuple(reversed((0.0,) + problem.nonlinearity.coeffs))

    def rhs(x, u, du):
        if poly is None:
            qx = float(q(x))
        else:
            qx = 0.0
            for c in poly:
                qx = qx * x + c
        nu = 0.0
        for c in n:
            nu = nu * u + c
        return du, (qx - lam) * u + nu

    return rhs


def array_rhs(problem, lam):
    """(u, u')' with q and N evaluated through their __call__ on 0-d arrays.

    The right-hand side the generated one has to reproduce bit for bit.
    """
    q, nl = problem.potential, problem.nonlinearity

    def rhs(x, u, du):
        return du, (float(q(x)) - lam) * u + nl(u)

    return rhs


def by_dop853(rhs, a, b, state, tol):
    return reference_dop853(rhs, a, b, state, rtol=tol, atol=tol * 1e-3)


def by_solve_ivp(rhs, a, b, state, tol):
    sol = solve_ivp(lambda x, y: rhs(x, *y), (a, b), state, method="DOP853",
                    rtol=tol, atol=tol * 1e-3)
    if sol.status != 0:
        raise ValueError(f"integration failed on [{a}, {b}]: {sol.message}")
    return sol.t, sol.y[0], sol.y[1], sol.nfev


def shoot_with(integrate, rhs, tol):
    """shoot's two legs and unit slope jump on a right-hand side.

    integrate(rhs, a, b, state, tol) runs one leg and returns its nodes,
    u, u' and number of rhs calls.
    """
    legs = []
    state = (0.0, SLOPE_AT_ZERO)
    for a, b in ((0.0, INTERFACE), (INTERFACE, 1.0)):
        legs.append(integrate(rhs, a, b, state, tol))
        state = (legs[-1][1][-1], legs[-1][2][-1] + FLUX_JUMP)
    x, u, du, nfev = zip(*legs)
    return oracle.ShotResult(miss=float(u[1][-1]), x=np.concatenate(x),
                             u=np.concatenate(u), du=np.concatenate(du),
                             nfev=sum(nfev))


def shoot_by_reference(problem, lam, tol=1e-10):
    """The former shoot: the float rhs on the reference DOP853 loop."""
    return shoot_with(by_dop853, float_rhs(problem, lam), tol)


def shoot_by_arrays(problem, lam, tol=1e-10):
    """shoot with the array rhs, on the reference DOP853 loop."""
    return shoot_with(by_dop853, array_rhs(problem, lam), tol)


def shoot_by_solve_ivp(problem, lam, tol=1e-10):
    """The array rhs on solve_ivp(method="DOP853")."""
    return shoot_with(by_solve_ivp, array_rhs(problem, lam), tol)


def assert_same_shot(got, want):
    assert np.float64(got.miss).tobytes() == np.float64(want.miss).tobytes()
    assert got.nfev == want.nfev
    for name in ("x", "u", "du"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def assert_shoots_alike(problem, lam, tol, reference):
    """shoot gives reference's shot, or fails in the same words."""
    try:
        want = reference(problem, lam, tol)
    except ValueError as exc:
        with pytest.raises(ValueError) as got_exc:
            shoot(problem, lam, tol)
        assert str(got_exc.value) == str(exc)
        return
    assert_same_shot(shoot(problem, lam, tol), want)


@given(q=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
       n=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=4),
       lam=st.floats(5.0, 400.0))
@example(q=[6.0], n=[3.0, 0.0, 3.0, 3.0], lam=5.0)
@settings(max_examples=25, deadline=None)
def test_float_rhs_shoots_as_the_array_rhs(q, n, lam):
    problem = TransmissionProblem(PotentialSpec.polynomial(q),
                                  NonlinearitySpec(tuple(n)))
    # a blow-up on the same loop: shoot must give up in the same words
    assert_shoots_alike(problem, lam, 1e-10, shoot_by_arrays)


@given(q=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
       n=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=3),
       lam=st.floats(5.0, 400.0), tol=st.sampled_from([1e-10, 1e-13]))
@example(q=[14.0], n=[3.0, 2.0, 3.0], lam=5.0, tol=1e-10)
@example(q=[0.0, 1.0, 3.0], n=[0.0, 1.0], lam=20.0, tol=1e-13)
@settings(max_examples=40, deadline=None)
def test_generated_leg_shoots_as_the_reference(q, n, lam, tol):
    problem = TransmissionProblem(PotentialSpec.polynomial(q),
                                  NonlinearitySpec(tuple(n)))
    assert_shoots_alike(problem, lam, tol, shoot_by_reference)


def test_tabulated_potential_shoots_as_the_array_rhs():
    q = PotentialSpec.tabulated(lambda x: np.exp(x) * np.cos(3.0 * x))
    problem = TransmissionProblem(q, NonlinearitySpec.power(2))
    for lam in (12.0, 87.5):
        assert_same_shot(shoot(problem, lam, tol=1e-12),
                         shoot_by_arrays(problem, lam, tol=1e-12))
        assert_same_shot(shoot(problem, lam, tol=1e-12),
                         shoot_by_reference(problem, lam, tol=1e-12))


def test_the_leg_cache_is_bounded():
    size = oracle._leg.cache_info().maxsize
    assert size is not None
    oracle._leg.cache_clear()
    for c in range(size + 3):
        shoot(TransmissionProblem(PotentialSpec.polynomial([float(c)])), 30.0)
    info = oracle._leg.cache_info()
    assert info.currsize == size and info.misses == size + 3
    # a second shot of a problem reuses its leg
    shoot(TransmissionProblem(PotentialSpec.polynomial([float(size + 2)])),
          40.0)
    assert oracle._leg.cache_info().hits == info.hits + 1


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


def dot(pairs, ku, kv):
    """sum_j coef_j * k[j] for each component, over (j, coef_j) pairs."""
    du = dv = 0.0
    for j, coef in pairs:
        du += coef * ku[j]
        dv += coef * kv[j]
    return du, dv


def step_by_loop(f, x, h, u, v, fu, fv):
    """One DOP853 step as a loop over the tableau's pairs.

    The stage-loop reference for the generated leg, called as
    REFERENCE_STEP: the same stages and sums, each summed from 0.0 in
    stage order.
    """
    ku, kv = [fu], [fv]
    for row, c in zip(oracle._A, oracle._C):
        du, dv = dot(row, ku, kv)
        gu, gv = f(x + c * h, u + du * h, v + dv * h)
        ku.append(gu)
        kv.append(gv)
    du, dv = dot(oracle._B, ku, kv)
    u_new, v_new = u + h * du, v + h * dv
    fu_new, fv_new = f(x + h, u_new, v_new)
    ku.append(fu_new)
    kv.append(fv_new)
    return (u_new, v_new, fu_new, fv_new, *dot(oracle._E5, ku, kv),
            *dot(oracle._E3, ku, kv))


def spec_rhs(potential, n, lam):
    """The right-hand side for q = potential and N = n: a polynomial q by
    model.horner on floats, a tabulated one through its one call."""
    n = (0.0,) + tuple(n)
    if potential.kind == "polynomial":
        return lambda x, u, du: (du, (horner(potential.coeffs, x) - lam) * u
                                 + horner(n, u))
    return lambda x, u, du: (du, (float(potential(x)) - lam) * u
                             + horner(n, u))


def generated_leg(potential, n, lam, a, b, u, v, tol):
    """One leg of the oracle's generated code for q = potential and N = n."""
    coeffs = potential.coeffs if potential.kind == "polynomial" else None
    leg = oracle._leg(coeffs, tuple(float(c) for c in n))
    return leg(potential, lam, a, b, u, v, tol, tol * 1e-3)


def leg_bits(run):
    """The bits of run()'s nodes, states and nfev, or its error text."""
    try:
        xs, us, vs, nfev = run()
    except ValueError as exc:
        return str(exc)
    return bits(xs), bits(us), bits(vs), nfev


def bits(values):
    return ["nan" if math.isnan(value) else value.hex() for value in values]


def test_a_leg_that_overflows_at_its_start_fails_as_solve_ivp():
    # f = (0, 1e300) at the start: d1 is inf, so the initial step h0 is 0
    problem = TransmissionProblem(PotentialSpec.polynomial([0.0]),
                                  NonlinearitySpec((1e300,)))
    with warnings.catch_warnings():
        # solve_ivp warns on the overflow, which pyproject makes an error
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError) as want:
            by_solve_ivp(array_rhs(problem, 0.0), 0.5, 1.0, (1.0, 0.0), 1e-10)
    leg = oracle._leg((0.0,), (1e300,))
    with pytest.raises(ValueError) as got:
        leg(None, 0.0, 0.5, 1.0, 1.0, 0.0, 1e-10, 1e-13)
    assert str(got.value) == str(want.value) == (
        "integration failed on [0.5, 1.0]: Required step size is less than "
        "spacing between numbers.")


# A leg of u' = v, v' = u**10 - u whose first step overflows only at the
# new point: every stage and the new state are finite, v' there is inf
LAST_STAGE_OVERFLOWS = dict(a=0.0, length=0.5, u=1.5, v=10.0, q=[0.0],
                            n=[0.0] * 9 + [1.0], lam=1.0, tol=1e-3,
                            tabulated=True)


@given(a=st.floats(0.0, 0.9), length=st.floats(1e-3, 0.5),
       u=st.floats(-1e3, 1e3), v=st.floats(-1e3, 1e3),
       q=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
       n=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=6),
       lam=st.floats(5.0, 400.0), tol=st.sampled_from([1e-10, 1e-13]),
       tabulated=st.booleans())
@example(**LAST_STAGE_OVERFLOWS)
@settings(max_examples=200, deadline=None)
def test_generated_step_sums_as_the_stage_loop(a, length, u, v, q, n, lam,
                                              tol, tabulated):
    # shoot never starts a leg at -0.0, which `+ 0.0` maps to 0.0; the leg
    # drops terms that could change only the sign of such a zero
    u, v, b = u + 0.0, v + 0.0, a + length
    potential = (PotentialSpec.tabulated(lambda x: horner(q, x)) if tabulated
                 else PotentialSpec.polynomial(q))
    want = leg_bits(lambda: reference_dop853(
        spec_rhs(potential, n, lam), a, b, (u, v), tol, tol * 1e-3,
        step=step_by_loop))
    assert leg_bits(lambda: generated_leg(potential, n, lam, a, b, u, v,
                                          tol)) == want


def test_a_last_stage_overflow_makes_the_error_sum_nan():
    args = dict(LAST_STAGE_OVERFLOWS)
    q, n, lam = args.pop("q"), args.pop("n"), args.pop("lam")
    a, tol = args.pop("a"), args.pop("tol")
    b = a + args.pop("length")
    start = (args.pop("u"), args.pop("v"))
    # q is tabulated, so each leg reports the points it evaluates q at
    points = []
    potential = PotentialSpec.tabulated(
        lambda x: points.append(float(x)) or horner(q, x))
    f = spec_rhs(potential, n, lam)
    steps = []

    def recorded_step(f, *point):
        values = []

        def recorded(*args):
            values.append(f(*args))
            return values[-1]

        steps.append((values, step_by_loop(recorded, *point)))
        return steps[-1][1]

    with pytest.raises(ValueError) as want:
        reference_dop853(f, a, b, start, tol, tol * 1e-3, step=recorded_step)
    values, (u_new, v_new, _, fv_new, _, e5v, _, _) = steps[0]
    # the 11 stages and the new state of the first step are finite, f at
    # the new point is not, and E5 weighs it by 0.0: the error sum is nan
    assert np.isfinite(values[:-1]).all() and np.isfinite([u_new, v_new]).all()
    assert fv_new == math.inf and math.isnan(e5v)
    # so the step is rejected: after the two evaluations of the initial
    # step, the next try ends short of where the first one did
    assert points[2 + 12 + 11] < points[2 + 11]
    want_points = points[:]
    points.clear()
    with pytest.raises(ValueError) as got:
        generated_leg(potential, n, lam, a, b, *start, tol)
    assert str(got.value) == str(want.value)
    assert bits(points) == bits(want_points)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_a_tol_outside_zero_to_inf_is_refused(tol):
    with pytest.raises(ValueError, match="tolerance must be finite"):
        shoot(FREE, 20.0, tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        find_eigenvalue(FREE, (15.0, 20.0), tol=tol)


@pytest.mark.parametrize("tol", [1e-14, 1e-16, 5e-324])
def test_a_root_tol_below_the_floor_is_refused(monkeypatch, tol):
    def fail(*args, **kwargs):
        raise AssertionError("shot below the tolerance floor")

    monkeypatch.setattr(oracle, "shoot", fail)
    with pytest.raises(ValueError, match="at least 1e-13"):
        find_eigenvalue(FREE, (15.0, 20.0), tol=tol)


@pytest.mark.parametrize("tol", [1e-13, 1e-10])
def test_find_eigenvalue_shoots_at_its_own_tol(monkeypatch, tol):
    real, tols = oracle.shoot, set()

    def recorded(problem, lam, tol):
        tols.add(tol)
        return real(problem, lam, tol)

    monkeypatch.setattr(oracle, "shoot", recorded)
    find_eigenvalue(FREE, (15.0, 20.0), tol=tol)
    assert tols == {tol}


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_a_lambda_that_is_not_finite_is_refused(lam):
    # refused before the integrator, which would blame its step size
    with pytest.raises(ValueError, match=f"finite lambda, not {lam}"):
        shoot(FREE, lam)


def test_an_infinite_bracket_end_is_refused():
    with pytest.raises(ValueError, match="finite lambda, not inf"):
        find_eigenvalue(FREE, (17.0, math.inf))


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
