import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from transeig.basis import zero_eigenvalue
from transeig.convergence import (V0, ConvergenceReport, branch_constants,
                                  branch_point_radius, convergence_ratio,
                                  convergence_report, decay_report,
                                  estimate_radius_nonlinear,
                                  majorant_sequence, radius_linear)
from transeig.model import BranchId, NonlinearitySpec

SQUARE = NonlinearitySpec.power(2)


def radius_linear_by_hand(q_norm):
    v0 = 8.0 / 3.0
    return 1.0 / ((1.0 + v0) * q_norm
                  * (1.0 + 2.0 * v0 + 2.0 * math.sqrt(v0 * (1.0 + v0))))


def test_linear_radius_values():
    assert radius_linear(1.0) == pytest.approx(0.0216669964278438, abs=1e-15)
    assert radius_linear(1.5) == pytest.approx(0.0144446642852292, abs=1e-13)
    assert radius_linear(0.0) == math.inf
    with pytest.raises(ValueError):
        radius_linear(-0.5)


def test_linear_radius_matches_hand_formula():
    for q in (0.3, 1.0, 2.0, 7.5):
        assert radius_linear(q) == pytest.approx(radius_linear_by_hand(q),
                                                 rel=1e-14)


@pytest.mark.parametrize("q_norm", [1e307, 1e308])
def test_linear_radius_survives_an_overflowing_product(q_norm):
    # (1 + V0) * q_norm * (...) overflows, but R is a representable subnormal
    scale = 1.0 + 2.0 * V0 + 2.0 * math.sqrt(V0 * (1.0 + V0))
    exact = 1 / (Fraction(1.0 + V0) * Fraction(q_norm) * Fraction(scale))
    radius = radius_linear(q_norm)
    assert abs(Fraction(radius) - exact) <= exact / 10 ** 12
    # below the overflow the expression and its bits are the same as before
    assert radius_linear(3.8e306) == radius_linear_by_hand(3.8e306)


def test_report_on_an_overflowing_product_fails_the_condition():
    report = convergence_report(1e308, None, BranchId("I", 0, 1), 2)
    assert 0.0 < report.radius < 3e-310
    assert report.ratio == math.inf
    assert report.condition_satisfied is False


def test_linear_radius_monotone_in_norm():
    qs = np.linspace(0.1, 5.0, 25)
    rs = [radius_linear(q) for q in qs]
    assert all(a > b for a, b in zip(rs[:-1], rs[1:]))


def test_majorant_start_values_linear():
    state = majorant_sequence(1.0, None, terms=4)
    assert V0 == pytest.approx(8.0 / 3.0)
    assert state.vbar(1) == pytest.approx(88.0 / 9.0, rel=1e-12)
    assert state.vbar(2) == pytest.approx(10648.0 / 81.0, rel=1e-12)


def test_majorant_mu_identity():
    # mu(j) * (1 + v0) = vbar(j) holds exactly for every j >= 1
    for nbar in (None, SQUARE):
        state = majorant_sequence(1.3, nbar, terms=30)
        for j in range(1, 31):
            assert state.mu_bar(j) * (1.0 + V0) == pytest.approx(
                state.vbar(j), rel=1e-12)


def test_majorant_mu_recurrence_direct():
    """Recompute mu from its own recurrence, independent of the w update."""
    q = 0.8
    state = majorant_sequence(q, SQUARE, terms=12)
    bar = SQUARE.majorant_spec()
    v = [state.vbar(j) for j in range(13)]
    mu = [0.0, q * V0 + bar.majorant_derivative(V0) * V0]
    for j in range(1, 12):
        total = sum(mu[j + 1 - p] * v[p] for p in range(1, j + 1))
        total += q * v[j]
        from transeig.fdcore import adomian
        total += adomian(bar, v[:j + 1])
        mu.append(total)
    for j in range(1, 13):
        assert state.mu_bar(j) == pytest.approx(mu[j], rel=1e-9)


def test_majorant_argument_validation():
    with pytest.raises(ValueError):
        majorant_sequence(1.0, None, terms=0)
    with pytest.raises(ValueError):
        majorant_sequence(-1.0, None, terms=5)


def test_rescaling_keeps_ratios():
    state = majorant_sequence(1.0, SQUARE, terms=200)
    assert state.overflowed is True
    assert state.gamma < 1.0
    assert np.all(np.isfinite(state.scaled))
    # log values keep growing even though raw storage is capped
    assert state.log_vbar(200) > state.log_vbar(100) > state.log_vbar(50)


def test_ratio_estimate_linear_within_five_percent():
    state = majorant_sequence(1.0, None, terms=200)
    est = estimate_radius_nonlinear(state)
    exact = radius_linear(1.0)
    assert abs(est - exact) / exact < 0.05


def test_ratio_estimate_needs_enough_terms():
    state = majorant_sequence(1.0, None, terms=5)
    with pytest.raises(ValueError):
        estimate_radius_nonlinear(state)


def test_ratio_estimate_zero_potential_linear():
    state = majorant_sequence(0.0, None, terms=20)
    est = estimate_radius_nonlinear(state)
    assert est == math.inf


def test_branch_point_reduces_to_linear_radius():
    for q in (0.5, 1.0, 2.0):
        assert branch_point_radius(q, None) == pytest.approx(
            radius_linear(q), rel=1e-10)


def test_ratio_estimate_nonlinear_near_branch_point():
    state = majorant_sequence(1.0, SQUARE, terms=200)
    est = estimate_radius_nonlinear(state)
    target = branch_point_radius(1.0, SQUARE)
    assert abs(est - target) / target < 0.2


def test_branch_constants_values():
    a, b = branch_constants(BranchId("II", 1))
    assert a == pytest.approx(math.pi)
    assert b == pytest.approx(1.0 / (8.0 * math.pi))
    a, b = branch_constants(BranchId("II", 2))
    assert a == pytest.approx(2.0 * math.pi)
    assert b == pytest.approx(3.0 / (16.0 * math.pi))
    a, b = branch_constants(BranchId("I", 0, 1))
    w = math.sqrt(zero_eigenvalue(BranchId("I", 0, 1)))
    assert a == pytest.approx(math.sqrt(3.0) * w / (2.0 + math.sqrt(3.0)))
    assert b == pytest.approx(3.0 / (8.0 * w))


def test_condition_ratio_frozen_values():
    r = convergence_ratio(BranchId("II", 1), radius_linear(1.0))
    assert r == pytest.approx(14.691001922847846, rel=1e-12)
    # published rounding of the same quantity
    assert r == pytest.approx(14.6906, abs=1e-3)
    r = convergence_ratio(BranchId("I", 0, 1), radius_linear(1.0))
    assert r == pytest.approx(23.74103231436816, rel=1e-12)
    assert r == pytest.approx(23.77, abs=0.05)


def test_condition_ratio_grid_against_hand_arithmetic():
    cases = [
        (BranchId("II", n), q)
        for n in (1, 2, 3) for q in (0.2, 1.0)
    ] + [
        (BranchId("I", n, s), q)
        for n, s in ((0, 1), (1, -1)) for q in (0.2, 1.0)
    ]
    assert len(cases) == 10
    for branch, q in cases:
        r = convergence_ratio(branch, radius_linear(q))
        if branch.family == "II":
            a = math.pi * branch.n
        else:
            w = 2.0 * math.pi * (branch.sign * 2.0 / 3.0 + 2.0 * branch.n)
            a = math.sqrt(3.0) * w / (2.0 + math.sqrt(3.0))
        assert r == pytest.approx(1.0 / (a * radius_linear_by_hand(q)),
                                  rel=1e-13)


def test_condition_ratio_validation():
    assert convergence_ratio(BranchId("II", 1), math.inf) == 0.0
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            convergence_ratio(BranchId("II", 1), radius)


def test_decay_report_shapes():
    rep = decay_report(0.5, 3)
    assert rep.factor == pytest.approx(0.5 ** 3 / 4.0)
    assert rep.condition_satisfied
    assert "superexponential" in rep.message
    rep = decay_report(1.0, 4)
    assert rep.factor == pytest.approx(0.2)
    assert not rep.condition_satisfied
    rep = decay_report(14.7, 2)
    assert not rep.condition_satisfied
    assert "may still occur" in rep.message
    for r_n in (-1.0, math.nan):
        with pytest.raises(ValueError, match="ratio must be non-negative"):
            decay_report(r_n, 2)


def test_decay_factor_saturates_beyond_float_range():
    assert decay_report(1e8, 50).factor == math.inf


def test_convergence_report_linear():
    rep = convergence_report(1.0, None, BranchId("II", 1), rank=4)
    assert isinstance(rep, ConvergenceReport)
    assert rep.ratio == pytest.approx(14.691001922847846, rel=1e-12)
    assert not rep.condition_satisfied
    assert len(rep.decay_factors) == 5
    d = rep.as_dict()
    assert d["ratio"] == rep.ratio


def test_convergence_report_nonlinear():
    rep = convergence_report(1.0, SQUARE, BranchId("II", 1), rank=3)
    assert rep.radius == branch_point_radius(1.0, SQUARE)
    assert rep.ratio > 1.0


@given(q_norm=st.floats(0.05, 5.0),
       coeffs=st.one_of(st.just([]),
                        st.lists(st.floats(-2.0, 2.0), min_size=1,
                                 max_size=4)))
@settings(max_examples=50, deadline=None)
def test_reported_radius_is_the_conservative_one(q_norm, coeffs):
    nbar = NonlinearitySpec(tuple(coeffs))
    rep = convergence_report(q_norm, nbar, BranchId("II", 1), rank=2)
    assert rep.radius == branch_point_radius(q_norm, nbar)
    ratio_test = estimate_radius_nonlinear(majorant_sequence(q_norm, nbar, 40))
    assert rep.radius <= ratio_test


def radius_by_bounded_search(q_norm, nbar):
    """The branch point as a bounded search for the maximum of z(g)."""
    bar = None if nbar.is_empty else nbar.majorant_spec()
    if q_norm == 0.0 and bar is None:
        return math.inf
    shift = bar.majorant_derivative(V0) * V0 - bar.majorant(V0) \
        if bar is not None else 0.0

    def negative_z(g):
        f = V0 + g
        denom = q_norm * f + shift
        if bar is not None:
            denom += bar.majorant(f)
        return -(g - g * g) / ((1.0 + V0) * denom)

    result = minimize_scalar(negative_z, bounds=(1e-12, 1.0 - 1e-12),
                             method="bounded", options={"xatol": 1e-13})
    return float(-result.fun)


# Subnormal inputs stay out (the property above draws subnormal
# coefficients): with nothing larger beside them they put R past the float
# range, where the search's numpy scalars overflow.
COEFF = st.one_of(st.floats(-3.0, 3.0, allow_subnormal=False), st.just(0.0),
                  st.sampled_from([1e-300, -1e-300, 1e-12, -1e-12]))


@given(q_norm=st.floats(0.0, 20.0, allow_subnormal=False),
       coeffs=st.lists(COEFF, min_size=0, max_size=5))
@settings(max_examples=200, deadline=None)
def test_closed_form_radius_matches_bounded_search(q_norm, coeffs):
    nbar = NonlinearitySpec(tuple(coeffs))
    want = radius_by_bounded_search(q_norm, nbar)
    got = branch_point_radius(q_norm, nbar)
    assert got == want or abs(got - want) <= 2e-15 * want


def test_radius_with_subnormal_leading_coefficient():
    nbar = NonlinearitySpec((0.0, 0.0, 2.225e-311))
    assert branch_point_radius(1.0, nbar) == pytest.approx(
        radius_linear(1.0), rel=1e-15)


@pytest.mark.parametrize("q_norm, nbar", [
    (0.0, NonlinearitySpec((2.225e-311,))),
    (5e-324, None),
], ids=["subnormal-n", "subnormal-q"])
def test_radius_past_the_float_range_is_inf(q_norm, nbar):
    # runs under filterwarnings = error, so a RuntimeWarning would fail it
    assert branch_point_radius(q_norm, nbar) == math.inf


@pytest.mark.parametrize("q_norm", [math.nan, math.inf, -0.5],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("call", [
    radius_linear,
    lambda q: branch_point_radius(q, SQUARE),
    lambda q: majorant_sequence(q, None, 12),
    lambda q: convergence_report(q, None, BranchId("I", 0, 1), 2),
    lambda q: convergence_report(q, None, BranchId("I", 0, 1), 2,
                                 radius=0.02),
], ids=["radius_linear", "branch_point_radius", "majorant_sequence",
        "convergence_report", "convergence_report-radius-given"])
def test_potential_norm_must_be_finite_and_non_negative(call, q_norm):
    # a nan norm used to read radius nan and decay factors [1, nan, nan],
    # or die later in a misleading "no critical point" or numpy error
    with pytest.raises(ValueError, match="finite and non-negative"):
        call(q_norm)


def test_radius_without_critical_point_raises(monkeypatch):
    monkeypatch.setattr(np.polynomial.polynomial, "polyroots",
                        lambda c: np.array([-0.5, 1.5 + 0.0j]))
    with pytest.raises(ValueError, match="no critical point"):
        branch_point_radius(1.0, SQUARE)


def test_state_ratios_follow_storage():
    state = majorant_sequence(0.7, None, terms=15)
    ratios = state.ratios()
    v = state.vbar_sequence()
    assert np.allclose(ratios[1:], v[1:-1] / v[2:], rtol=1e-10)
