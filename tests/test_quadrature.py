import math

import numpy as np
import pytest
from conftest import prefix_weight_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from transeig.quadrature import (GridFunction, PanelFn, PanelMesh,
                                 QuadratureError, _substitution,
                                 cumulative_simpson, interp_uniform,
                                 kernel_convolution, weighted_cumulative,
                                 weighted_trig_cumulants)


def cubic(x):
    return x ** 3 - 2.0 * x ** 2 + 0.5 * x - 1.0


def cubic_antiderivative(x):
    return x ** 4 / 4.0 - 2.0 * x ** 3 / 3.0 + 0.25 * x ** 2 - x


def test_mesh_rejects_odd_or_tiny_sizes():
    with pytest.raises(QuadratureError):
        PanelMesh("left", 5)
    with pytest.raises(QuadratureError):
        PanelMesh("left", 2)
    with pytest.raises(QuadratureError):
        PanelMesh("middle", 8)


def test_mesh_geometry():
    mesh = PanelMesh("right", 8)
    assert mesh.a == 0.5 and mesh.b == 1.0
    assert mesh.h == pytest.approx(0.0625)
    assert mesh.nodes[0] == 0.5 and mesh.nodes[-1] == 1.0


@pytest.mark.parametrize("panel", ["left", "right"])
def test_cumulative_simpson_exact_for_cubics(panel):
    mesh = PanelMesh(panel, 10)
    vals = cubic(mesh.nodes)
    running = cumulative_simpson(vals, mesh.h)
    exact = cubic_antiderivative(mesh.nodes) - cubic_antiderivative(mesh.a)
    assert np.max(np.abs(running - exact)) < 1e-14


def test_cumulative_simpson_matches_weight_matrix():
    mesh = PanelMesh("left", 16)
    rng = np.random.default_rng(7)
    vals = rng.uniform(-1.0, 1.0, mesh.m + 1)
    w = prefix_weight_matrix(mesh.m, mesh.h)
    assert np.max(np.abs(cumulative_simpson(vals, mesh.h) - w @ vals)) < 1e-14


@given(half=st.integers(2, 256), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_cumulative_simpson_equals_the_gathered_formula(half, seed):
    # the odd prefixes as an arange gather, bit for bit
    m = 2 * half
    h = 0.5 / m
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, m + 1)
    ref = np.empty_like(f)
    ref[0] = 0.0
    ref[2::2] = np.cumsum((h / 3.0) * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))
    ref[1] = (h / 24.0) * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    k = np.arange(3, m + 1, 2)
    ref[k] = ref[k - 3] + (3.0 * h / 8.0) * (
        f[k - 3] + 3.0 * f[k - 2] + 3.0 * f[k - 1] + f[k])
    assert np.array_equal(cumulative_simpson(f, h), ref)


def test_sine_integral_value():
    mesh = PanelMesh("left", 64)
    running = cumulative_simpson(np.sin(2.0 * math.pi * mesh.nodes), mesh.h)
    assert running[-1] == pytest.approx(1.0 / math.pi, abs=1e-7)


def test_cumulative_simpson_fourth_order():
    errs = []
    for m in (32, 64):
        mesh = PanelMesh("left", m)
        running = cumulative_simpson(np.sin(2.0 * math.pi * mesh.nodes),
                                     mesh.h)
        exact = (1.0 - np.cos(2.0 * math.pi * mesh.nodes)) / (2.0 * math.pi)
        errs.append(np.max(np.abs(running - exact)))
    assert 12.0 < errs[0] / errs[1] < 20.0


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_cumulative_simpson_linear_in_integrand(a, b):
    mesh = PanelMesh("left", 12)
    f = np.sin(3.0 * mesh.nodes)
    g = mesh.nodes ** 2
    lhs = cumulative_simpson(a * f + b * g, mesh.h)
    rhs = a * cumulative_simpson(f, mesh.h) + b * cumulative_simpson(g, mesh.h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_interp_uniform_exact_for_cubics():
    mesh = PanelMesh("left", 20)
    vals = cubic(mesh.nodes)
    targets = np.array([0.0, 0.013, 0.24999, 0.31, 0.499, 0.5])
    got = interp_uniform(mesh.a, mesh.h, vals, targets)
    assert np.max(np.abs(got - cubic(targets))) < 1e-13


def test_panel_fn_sup_and_call():
    mesh = PanelMesh("right", 32)
    f = PanelFn.from_callable(mesh, lambda x: np.sin(2.0 * math.pi * x))
    assert f.sup == pytest.approx(1.0, abs=1e-3)
    assert f(0.75) == pytest.approx(-1.0, abs=1e-6)


def test_grid_function_dispatch():
    left = PanelFn.from_callable(PanelMesh("left", 16), lambda x: x)
    right = PanelFn.from_callable(PanelMesh("right", 16), lambda x: 1.0 - x)
    u = GridFunction(left, right)
    assert u(0.25) == pytest.approx(0.25)
    assert u(0.75) == pytest.approx(0.25)
    assert u.sup_norm == pytest.approx(0.5)


@pytest.mark.parametrize("panel,expected", [
    ("left", math.sqrt(2.0)),
    ("right", math.sqrt(2.0)),
])
def test_weighted_rule_integrates_the_bare_weight(panel, expected):
    mesh = PanelMesh(panel, 64)
    g = PanelFn.from_callable(mesh, lambda x: np.ones_like(x))
    running = weighted_cumulative(g)
    assert running[0] == 0.0
    assert running[-1] == pytest.approx(expected, abs=1e-12)


def test_weighted_rule_linear_factor():
    # integrand (1/2 - x)**(-1/2) * (1/2 - x) has the closed antiderivative
    mesh = PanelMesh("left", 64)
    g = PanelFn.from_callable(mesh, lambda x: 0.5 - x)
    running = weighted_cumulative(g)
    expected = (2.0 / 3.0) * 0.5 ** 1.5
    assert running[-1] == pytest.approx(expected, abs=1e-12)


def test_weighted_rule_zero_factor():
    mesh = PanelMesh("right", 32)
    g = PanelFn.zeros(mesh)
    assert np.all(weighted_cumulative(g) == 0.0)


def test_weighted_rule_prefix_values_against_substituted_quadrature():
    # with t = sqrt(|1/2 - s|) the prefix integral of |1/2 - s|**-0.5 * f(s)
    # is the integral of 2*f(x(t)) over the t-range the prefix covers
    from scipy.integrate import quad
    w = 2.0

    def f(x):
        return math.cos(1.7 * x)

    for panel, sign in (("left", -1.0), ("right", 1.0)):
        mesh = PanelMesh(panel, 256)
        g = PanelFn.from_callable(mesh, lambda x: np.cos(1.7 * x))
        running = weighted_cumulative(g)
        c_run, s_run = weighted_trig_cumulants(g, w)
        for idx in (1, 64, 190, 256):
            tau = math.sqrt(abs(0.5 - mesh.nodes[idx]))
            lo, hi = (tau, math.sqrt(0.5)) if panel == "left" else (0.0, tau)

            def substituted(factor):
                return quad(lambda t: 2.0 * f(0.5 + sign * t * t)
                            * factor(0.5 + sign * t * t), lo, hi,
                            limit=100)[0]

            assert running[idx] == pytest.approx(
                substituted(lambda x: 1.0), abs=1e-9)
            assert c_run[idx] == pytest.approx(
                substituted(lambda x: math.cos(w * x)), abs=1e-9)
            assert s_run[idx] == pytest.approx(
                substituted(lambda x: math.sin(w * x)), abs=1e-9)


@given(half=st.integers(2, 256), panel=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_cached_back_map_is_interp_uniform(half, panel, seed):
    mesh = PanelMesh(panel, 2 * half)
    sub = _substitution(mesh)
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.m + 1)
    tau = np.sqrt(np.abs(0.5 - mesh.nodes))
    assert np.array_equal(sub.back(values),
                          interp_uniform(0.0, sub.ht, values, tau))


@pytest.mark.parametrize("panel", ["left", "right"])
def test_substitution_belongs_to_its_panel(panel):
    mesh = PanelMesh(panel, 16)
    sub = _substitution(mesh)
    assert sub is _substitution(PanelMesh(panel, 16))
    assert sub.ht == math.sqrt(0.5) / 16
    far = mesh.a if panel == "left" else mesh.b
    assert sub.xs[0] == 0.5 and sub.xs[-1] == pytest.approx(far, abs=1e-15)
    assert not sub.xs.flags.writeable


def test_weighted_rule_fourth_order():
    from scipy.integrate import quad
    errs = []
    for m in (64, 128):
        mesh = PanelMesh("right", m)
        g = PanelFn.from_callable(mesh, lambda x: np.exp(x - 0.5))
        running = weighted_cumulative(g)
        ref, _ = quad(lambda t: 2.0 * math.exp(t * t), 0.0, math.sqrt(0.5))
        errs.append(abs(running[-1] - ref))
    assert errs[0] / errs[1] > 12.0


def test_kernel_constant_forcing():
    lam0 = 7.3
    w = math.sqrt(lam0)
    mesh = PanelMesh("left", 128)
    f = PanelFn.from_callable(mesh, lambda x: np.ones_like(x))
    g, dg = kernel_convolution(lam0, f, "from-left", with_derivative=True)
    exact = (1.0 - np.cos(w * mesh.nodes)) / lam0
    assert np.max(np.abs(g.values - exact)) < 1e-10
    assert np.max(np.abs(dg.values - np.sin(w * mesh.nodes) / w)) < 1e-10


def test_kernel_resonant_forcing():
    lam0 = (4.0 * math.pi / 3.0) ** 2
    w = math.sqrt(lam0)
    mesh = PanelMesh("left", 256)
    f = PanelFn.from_callable(mesh, lambda x: np.sin(w * x))
    g = kernel_convolution(lam0, f, "from-left")
    x = mesh.nodes
    exact = (np.sin(w * x) - w * x * np.cos(w * x)) / (2.0 * lam0)
    assert np.max(np.abs(g.values - exact)) < 1e-9


def test_kernel_from_right_constant_forcing():
    lam0 = 11.0
    w = math.sqrt(lam0)
    mesh = PanelMesh("right", 128)
    f = PanelFn.from_callable(mesh, lambda x: np.ones_like(x))
    g = kernel_convolution(lam0, f, "from-right")
    # integral of sin(w*(x-s))/w over s in [x, 1] flips the kernel's sign
    exact = -(1.0 - np.cos(w * (1.0 - mesh.nodes))) / lam0
    assert np.max(np.abs(g.values - exact)) < 1e-10


def test_kernel_matches_naive_weighted_sum():
    """Sweep form equals the O(M^2) sum with the same composite weights."""
    lam0 = 5.5
    w = math.sqrt(lam0)
    mesh = PanelMesh("left", 64)
    rng = np.random.default_rng(11)
    f = PanelFn(mesh, rng.uniform(-1.0, 1.0, mesh.m + 1))
    g = kernel_convolution(lam0, f, "from-left")
    weights = prefix_weight_matrix(mesh.m, mesh.h)
    naive = np.zeros(mesh.m + 1)
    for k in range(mesh.m + 1):
        kernel = np.sin(w * (mesh.nodes[k] - mesh.nodes)) / w
        naive[k] = weights[k] @ (kernel * f.values)
    assert np.max(np.abs(g.values - naive)) < 1e-12


def test_kernel_direction_validation():
    mesh = PanelMesh("left", 16)
    f = PanelFn.zeros(mesh)
    with pytest.raises(QuadratureError):
        kernel_convolution(4.0, f, "upward")
    with pytest.raises(QuadratureError):
        kernel_convolution(-1.0, f, "from-left")


@pytest.mark.parametrize("x", [1.7, -3.0, math.nan, [0.25, 1.0 + 1e-9]])
def test_grid_function_rejects_points_off_the_interval(x):
    left = PanelFn.from_callable(PanelMesh("left", 16), lambda s: s)
    right = PanelFn.from_callable(PanelMesh("right", 16), lambda s: 1.0 - s)
    with pytest.raises(QuadratureError, match=r"\[0, 1\]"):
        GridFunction(left, right)(x)


@given(rows=st.integers(1, 4), half=st.integers(2, 64),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cumulative_simpson_runs_along_the_last_axis(rows, half, seed):
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, 2 * half + 1))
    h = 0.5 / (2 * half)
    out = cumulative_simpson(f, h)
    assert out.shape == f.shape
    assert all(np.array_equal(out[k], cumulative_simpson(f[k], h))
               for k in range(rows))


@pytest.mark.parametrize("shape", [(2, 3), (2, 4), (2, 8), (3, 2, 6), ()])
def test_cumulative_simpson_rejects_a_short_or_odd_last_axis(shape):
    with pytest.raises(QuadratureError):
        cumulative_simpson(np.ones(shape), 0.1)
