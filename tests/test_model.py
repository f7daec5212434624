import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transeig.model import (BranchId, ModelError, NonlinearitySpec,
                            PotentialSpec, TransmissionProblem, horner,
                            l1_norm, load_problem)


def test_zero_potential_norm():
    q = PotentialSpec.zero()
    assert l1_norm(q) == 0.0
    assert q.is_singular is False


def test_polynomial_potential_norm_and_eval():
    q = PotentialSpec.polynomial([0.0, 1.0, 3.0])
    # integral of x + 3 x^2 over (0, 1)
    assert l1_norm(q) == pytest.approx(1.5, rel=1e-12)
    assert q(0.5) == pytest.approx(1.25)


def test_sign_changing_polynomial_norm():
    q = PotentialSpec.polynomial([-0.25, 1.0])
    # |x - 1/4| integrates to 1/32 + 9/32
    assert l1_norm(q) == pytest.approx(0.3125, rel=1e-10)


def test_interface_weight_norm():
    q = PotentialSpec.inverse_sqrt_half()
    assert q.is_singular is True
    assert l1_norm(q) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_tabulated_potential():
    q = PotentialSpec.tabulated(lambda x: np.full_like(x, 2.0))
    assert l1_norm(q) == pytest.approx(2.0, rel=1e-8)
    assert float(q(0.3)) == pytest.approx(2.0)


@pytest.mark.parametrize("evaluator, expected, rel", [
    (lambda x: x - 0.5, 0.25, 1e-12),
    (lambda x: np.where(x <= 0.5, -1.0, 3.0), 2.0, 1e-12),
    (lambda x: x - 0.3, 0.29, 1e-6),
], ids=["kink-at-interface", "jump-at-interface", "kink-in-panel"])
def test_tabulated_potential_changing_sign(evaluator, expected, rel):
    # each panel is integrated on its own, so a sign change or jump at the
    # interface leaves |q| smooth on every cell
    q = PotentialSpec.tabulated(evaluator)
    assert l1_norm(q) == pytest.approx(expected, rel=rel)


@pytest.mark.parametrize("evaluator", [
    lambda x: np.abs(0.5 - x) ** -0.5,
    lambda x: 1.0 / x,
    lambda x: np.full_like(x, np.nan),
], ids=["interface-weight", "pole", "nan"])
def test_tabulated_potential_without_a_reliable_norm(evaluator):
    with pytest.raises(ModelError, match="supply its L1 norm"):
        l1_norm(PotentialSpec.tabulated(evaluator))


def test_tabulated_potential_explicit_norm_wins():
    q = PotentialSpec.tabulated(lambda x: np.full_like(x, 2.0), l1=7.5)
    assert l1_norm(q) == 7.5


@pytest.mark.parametrize("l1", [math.nan, math.inf, -math.inf, -1.0, -1e-300],
                         ids=["nan", "inf", "-inf", "negative", "tiny"])
def test_tabulated_l1_norm_must_be_finite_and_non_negative(l1):
    # a nan norm used to give a nan radius, an infinite one a later error
    with pytest.raises(ModelError, match="L1 norm"):
        PotentialSpec.tabulated(lambda x: np.full_like(x, 2.0), l1=l1)
    zero = PotentialSpec.tabulated(lambda x: np.zeros_like(x), l1=0.0)
    assert l1_norm(zero) == 0.0


def test_unknown_potential_kind():
    with pytest.raises(ModelError):
        PotentialSpec(kind="gaussian")
    with pytest.raises(ModelError):
        PotentialSpec(kind="tabulated")


def test_nonlinearity_power():
    nl = NonlinearitySpec.power(2)
    assert nl(3.0) == pytest.approx(9.0)
    assert not nl.is_empty
    assert nl.degree == 2
    with pytest.raises(ModelError):
        NonlinearitySpec.power(0)


def test_nonlinearity_empty():
    nl = NonlinearitySpec.empty()
    assert nl.is_empty
    assert nl(5.0) == 0.0
    assert nl.majorant(4.0) == 0.0


def test_nonlinearity_mixed_coeffs():
    nl = NonlinearitySpec((0.5, 0.0, -2.0))
    assert nl(2.0) == pytest.approx(0.5 * 2.0 - 2.0 * 8.0)
    bar = nl.majorant_spec()
    assert bar.coeffs == (0.5, 0.0, 2.0)
    assert nl.majorant(2.0) == pytest.approx(0.5 * 2.0 + 2.0 * 8.0)
    assert nl.majorant_derivative(2.0) == pytest.approx(0.5 + 6.0 * 4.0)


@given(u=st.floats(-3.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_majorant_dominates(u):
    nl = NonlinearitySpec((-1.0, 0.25, 2.0))
    assert abs(nl(u)) <= nl.majorant(abs(u)) + 1e-12


COEFFS = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5)
POINTS = st.one_of(st.floats(0.0, 1.0),
                   st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)
                   .map(np.array))


@given(c=COEFFS, x=POINTS)
@settings(max_examples=200, deadline=None)
def test_polynomials_evaluate_as_polyval(c, x):
    polyval = np.polynomial.polynomial.polyval
    slopes = [i * abs(a) for i, a in enumerate(c, start=1)]
    assert np.array_equal(PotentialSpec.polynomial(c)(x), polyval(x, c))
    assert np.array_equal(NonlinearitySpec(c)(x), polyval(x, [0.0, *c]))
    assert np.array_equal(NonlinearitySpec(c).majorant_derivative(abs(x)),
                          polyval(abs(x), slopes))


@given(c=COEFFS, x=st.floats(-10.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_horner_on_a_float_is_horner_on_a_0d_array(c, x):
    # the shooting oracle's right-hand side relies on this, bit for bit
    assert horner(c, x).hex() == float(PotentialSpec.polynomial(c)(x)).hex()
    assert horner((0.0, *c), x).hex() == NonlinearitySpec(c)(x).hex()


def test_branch_canonicalization():
    b = BranchId("I", 0, 1)
    assert b.tag == "I_plus_0"
    assert BranchId("I", 0, -1) == BranchId("I", 0, 1)
    assert BranchId("I", 2, -1).tag == "I_minus_2"
    assert BranchId("II", 3).tag == "II_3"
    with pytest.raises(ModelError):
        BranchId("II", 0)
    with pytest.raises(ModelError):
        BranchId("I", -1, 1)
    with pytest.raises(ModelError):
        BranchId("III", 1)
    with pytest.raises(ModelError):
        BranchId("I", 1, 2)


def test_problem_flags():
    p = TransmissionProblem(PotentialSpec.inverse_sqrt_half())
    assert p.is_linear and p.is_singular
    p = TransmissionProblem(PotentialSpec.zero(), NonlinearitySpec.power(3))
    assert not p.is_linear and not p.is_singular


def test_load_problem_round_trip(tmp_path):
    src = {
        "potential": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
        "nonlinearity": {"coeffs_from_degree_1": [0.0, 1.0]},
        "branch": {"family": "II", "n": 2},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(src))
    problem, branch = load_problem(path)
    assert problem.potential(0.5) == pytest.approx(0.5)
    assert problem.nonlinearity(2.0) == pytest.approx(4.0)
    assert branch == BranchId("II", 2)


def test_load_problem_without_branch(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"potential": {"kind": "polynomial",
                                              "coeffs": [1.0]}}))
    problem, branch = load_problem(path)
    assert branch is None
    assert problem.nonlinearity.is_empty


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(ModelError):
        load_problem(tmp_path / "nope.json")


def test_load_problem_bad_kind(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"potential": {"kind": "gaussian"}}))
    with pytest.raises(ModelError):
        load_problem(path)


@pytest.mark.parametrize("record", [
    {"potential": 5},
    {"potential": {"kind": "polynomial"}, "nonlinearity": 5},
    {"potential": {"kind": "polynomial"}, "branch": "I"},
    {"potential": {"kind": "polynomial", "coeffs": []}},
    {"potential": {"kind": "polynomial", "coeffs": 5}},
    {"potential": {"kind": "polynomial", "coeffs": [None]}},
    {"potential": {"kind": "polynomial"},
     "nonlinearity": {"coeffs_from_degree_1": 2.0}},
    {"potential": {"kind": "polynomial"},
     "nonlinearity": {"coeffs_from_degree_1": ["u"]}},
    {"potential": {"kind": "polynomial"}, "branch": {"family": "I", "n": None}},
    {"potential": {"kind": "polynomial"},
     "branch": {"family": "I", "n": 0, "sign": "-"}},
    [{"potential": {"kind": "polynomial"}}],
    5,
    {"potential": {"kind": "polynomial", "coeffs": [math.nan]}},
    {"potential": {"kind": "polynomial", "coeffs": [math.inf]}},
    {"potential": {"kind": "polynomial", "coeffs": [10 ** 400]}},
    {"potential": {"kind": "polynomial"},
     "nonlinearity": {"coeffs_from_degree_1": [0.0, -math.inf]}},
    {"potential": {"kind": "polynomial"},
     "branch": {"family": "II", "n": 1.5}},
    {"potential": {"kind": "polynomial"}, "branch": {"family": "II", "n": "2"}},
    {"potential": {"kind": "polynomial"}, "branch": {"family": "II", "n": True}},
    {"potential": {"kind": "polynomial"},
     "branch": {"family": "I", "n": 1, "sign": -1.0}},
    {"potential": {"kind": "polynomial", "coeffs": [0, 1, 3]},
     "nonlinearity": {"coeffs": [0, 1]}},
    {"potential": {"kind": "polynomial", "coefs": [0, 1, 3]}},
    {"potential": {"kind": "inverse_sqrt_half", "coeffs": [1.0]}},
    {"potential": {"kind": "polynomial"},
     "branch": {"family": "II", "n": 1, "sgn": 1}},
    {"potential": {"kind": "polynomial"},
     "nonlinear": {"coeffs_from_degree_1": [0.0, 1.0]}},
], ids=["potential", "nonlinearity", "branch", "empty-coeffs",
        "scalar-coeffs", "null-coeff", "scalar-nonlinearity-coeffs",
        "string-nonlinearity-coeff", "null-n", "string-sign", "list",
        "number", "nan-coeff", "infinite-coeff", "huge-int-coeff",
        "infinite-nonlinearity-coeff", "fractional-n", "string-n", "bool-n",
        "float-sign", "nonlinearity-key", "potential-key",
        "coeffs-of-the-weight", "branch-key", "top-level-key"])
def test_load_problem_rejects_malformed_records(tmp_path, record):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ModelError):
        load_problem(path)


def test_shipped_problem_files():
    p1, b1 = load_problem("problems/example1.json")
    assert b1.tag == "I_plus_0"
    assert p1.potential.is_singular is False
    assert p1.nonlinearity.degree == 2
    p2, b2 = load_problem("problems/example2.json")
    assert p2.potential.is_singular is True
    assert l1_norm(p2.potential) == pytest.approx(2.0 * math.sqrt(2.0))
