import math

import numpy as np
import pytest
from conftest import prefix_weight_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from transeig import quadrature
from transeig.fdcore import _Frame
from transeig.model import BranchId
from transeig.quadrature import (GridFunction, PanelFn, PanelMesh,
                                 QuadratureError, _Stencil, _substitution,
                                 cumulative_simpson, interp_uniform,
                                 kernel_convolution, weighted_cumulative)

PANELS = ("left", "right")


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


@given(half=st.integers(2, 64), rows=st.sampled_from([(), (2,), (2, 2)]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_cumulative_simpson_writes_into_out(half, rows, seed):
    # out= gives the bits of a fresh result, row by row of the 1-D rule
    h = 0.5 / (2 * half)
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, (*rows, 2 * half + 1))
    out = np.full_like(f, np.nan)
    assert cumulative_simpson(f, h, out=out) is out
    assert np.array_equal(out, cumulative_simpson(f, h))
    for index in np.ndindex(rows):
        assert np.array_equal(out[index], cumulative_simpson(f[index], h))


def test_sine_sweep_writes_into_out():
    cosx, sinx, c, s = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 2, 9))
    out = (np.empty((2, 9)), np.empty((2, 9)))
    u, du = quadrature.sine_sweep(cosx, sinx, c, s, 1.7, out=out)
    assert u is out[0] and du is out[1]
    assert np.array_equal(u, (sinx * c - cosx * s) / 1.7)
    assert np.array_equal(du, cosx * c + sinx * s)


@given(n=st.integers(4, 40), rows=st.sampled_from([(), (2,), (2, 3)]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_stencil_is_four_shifted_gathers(n, rows, seed):
    # the reference builds the shifted index arrays on every call
    rng = np.random.default_rng(seed)
    a, h = -0.3, 0.7
    x = a + (n - 1) * h * rng.uniform(0.0, 1.0, 25)
    f = rng.uniform(-1.0, 1.0, (*rows, n))
    stencil = _Stencil(a, h, n, x)
    s, (w0, w1, w2, w3) = stencil.start, stencil.weights
    ref = (w0 * f.take(s, axis=-1) + w1 * f.take(s + 1, axis=-1)
           + w2 * f.take(s + 2, axis=-1) + w3 * f.take(s + 3, axis=-1))
    assert np.array_equal(stencil(f), ref)
    out = np.empty_like(ref)
    assert stencil(f, out=out) is out and np.array_equal(out, ref)


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


@given(n=st.integers(4, 40), a=st.floats(-2.0, 2.0),
       h=st.floats(1e-3, 1.0), shape=st.sampled_from([(), (7,), (3, 4)]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_memoised_interp_uniform_is_a_fresh_stencil(n, a, h, shape, seed):
    rng = np.random.default_rng(seed)
    x = a + (n - 1) * h * rng.uniform(0.0, 1.0, shape)
    # the second round finds the same point set memoised, with new values
    for _ in range(2):
        f = rng.uniform(-1.0, 1.0, n)
        got = interp_uniform(a, h, f, x)
        assert isinstance(got, float) == (shape == ())
        assert np.array_equal(np.atleast_1d(got), _Stencil(a, h, n, x)(f))


@pytest.mark.parametrize("values", [np.ones((2, 8)), np.float64(1.0)],
                         ids=["panel-array", "scalar"])
def test_interp_uniform_refuses_values_that_are_not_1d(values):
    with pytest.raises(QuadratureError, match="1-D"):
        interp_uniform(0.0, 0.1, values, 0.25)


def test_interp_uniform_refuses_fewer_than_four_nodes():
    # a cubic stencil on three nodes of x**2 would start at node -1
    with pytest.raises(QuadratureError, match="4 nodes"):
        interp_uniform(0.0, 1.0, np.array([0.0, 1.0, 4.0]), 1.5)
    assert interp_uniform(0.0, 1.0, np.arange(4.0) ** 2, 1.5) == 2.25


def test_points_changed_in_place_or_reshaped_get_a_new_stencil():
    mesh = PanelMesh("left", 20)
    vals = cubic(mesh.nodes)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    first = interp_uniform(mesh.a, mesh.h, vals, x)
    x[1] = 0.45
    got = interp_uniform(mesh.a, mesh.h, vals, x)
    assert got[1] != first[1]
    assert np.array_equal(got, _Stencil(mesh.a, mesh.h, mesh.m + 1, x)(vals))
    square = interp_uniform(mesh.a, mesh.h, vals, x.reshape(2, 2))
    assert np.array_equal(square, got.reshape(2, 2))


def test_memo_compares_every_point_bit_for_bit():
    # the memo hashes a few samples only, so it must keep its own copy of
    # the points and compare all of them; -0.0 is not 0.0 to the memo
    mesh = PanelMesh("left", 64)
    vals = cubic(mesh.nodes)
    x = np.linspace(0.0, 0.5, 64)
    interp_uniform(mesh.a, mesh.h, vals, x)
    x[1] = 0.3  # between the hashed samples
    got = interp_uniform(mesh.a, mesh.h, vals, x)
    assert np.array_equal(got, _Stencil(mesh.a, mesh.h, mesh.m + 1, x)(vals))
    quadrature._located.cache_clear()
    interp_uniform(mesh.a, mesh.h, vals, np.array([0.0, 0.3]))
    interp_uniform(mesh.a, mesh.h, vals, np.array([-0.0, 0.3]))
    interp_uniform(mesh.a, mesh.h, vals, np.array([-0.0, 0.3]))
    info = quadrature._located.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@pytest.mark.parametrize("x", [math.nan, [0.25, math.nan], -0.025, 0.525,
                               0.75],
                         ids=["nan", "nan-in-array", "cell-below", "cell-above",
                              "other-panel"])
def test_panel_fn_refuses_points_off_its_panel(x):
    f = PanelFn.from_callable(PanelMesh("left", 20), cubic)
    with pytest.raises(QuadratureError, match="off the grid"):
        f(x)


@pytest.mark.parametrize("m", [4, 64, 16384])
@pytest.mark.parametrize("panel", ["left", "right"])
def test_substituted_points_lie_on_their_panel(panel, m):
    # the left panel's last x(t) = 1/2 - t**2 rounds to -1.1e-16, which is
    # -3.6e-12 of a cell at m = 16384
    mesh = PanelMesh(panel, m)
    xs = _substitution(m).xs[PANELS.index(panel)]
    vals = np.cos(3.0 * mesh.nodes)
    assert np.array_equal(interp_uniform(mesh.a, mesh.h, vals, xs),
                          _Stencil(mesh.a, mesh.h, m + 1, xs)(vals))


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


def panel_array(m, fn):
    """fn at the nodes of both panels, left panel in row 0."""
    return np.stack([fn(PanelMesh(panel, m).nodes) for panel in PANELS])


@pytest.mark.parametrize("panel,expected", [
    ("left", math.sqrt(2.0)),
    ("right", math.sqrt(2.0)),
])
def test_weighted_rule_integrates_the_bare_weight(panel, expected):
    g = panel_array(64, np.ones_like)
    running = weighted_cumulative(g)[PANELS.index(panel)]
    assert running[0] == 0.0
    assert running[-1] == pytest.approx(expected, abs=1e-12)


def test_weighted_rule_linear_factor():
    # integrand |1/2 - x|**(-1/2) * |1/2 - x| has the closed antiderivative
    g = panel_array(64, lambda x: np.abs(0.5 - x))
    expected = (2.0 / 3.0) * 0.5 ** 1.5
    for running in weighted_cumulative(g):
        assert running[-1] == pytest.approx(expected, abs=1e-12)


def test_weighted_rule_zero_factor():
    assert np.all(weighted_cumulative(np.zeros((2, 33))) == 0.0)


@pytest.mark.parametrize("shape", [(65,), (1, 65), (3, 65), (2, 2, 65), ()])
def test_weighted_rule_refuses_anything_but_a_panel_array(shape):
    # a 1-D field would otherwise broadcast onto both panels
    with pytest.raises(QuadratureError, match="panel array"):
        weighted_cumulative(np.ones(shape))


def test_weighted_rule_prefix_values_against_substituted_quadrature():
    # with t = sqrt(|1/2 - s|) the prefix integral of |1/2 - s|**-0.5 * f(s)
    # is the integral of 2*f(x(t)) over the t-range the prefix covers
    from scipy.integrate import quad
    w = 2.0

    def f(x):
        return math.cos(1.7 * x)

    g = panel_array(256, lambda x: np.cos(1.7 * x))
    # the weighted part of a frame's cumulants, its smooth field zero
    frame = _Frame(BranchId("I", 0, 1), w * w, 256)
    trig_runs = frame.cumulants(np.zeros_like(g), g)
    for k, (panel, sign) in enumerate((("left", -1.0), ("right", 1.0))):
        mesh = PanelMesh(panel, 256)
        running = weighted_cumulative(g)[k]
        c_run, s_run = trig_runs[:, k]
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
    sub = _substitution(mesh.m)
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.m + 1)
    tau = np.sqrt(np.abs(0.5 - mesh.nodes))
    assert np.array_equal(sub.back[PANELS.index(panel)](values),
                          interp_uniform(0.0, sub.ht, values, tau))


@pytest.mark.parametrize("panel", ["left", "right"])
def test_substitution_belongs_to_its_panel(panel):
    # row k of the substitution of an m-mesh holds panel k's points x(t)
    mesh = PanelMesh(panel, 16)
    sub = _substitution(16)
    assert sub is _substitution(16)
    assert sub.ht == math.sqrt(0.5) / 16
    xs = sub.xs[PANELS.index(panel)]
    far = mesh.a if panel == "left" else mesh.b
    assert xs[0] == 0.5 and xs[-1] == pytest.approx(far, abs=1e-15)
    assert np.all((xs >= mesh.a - 1e-15) & (xs <= mesh.b))
    assert sub.xs.shape == (2, 17) and not sub.xs.flags.writeable


def test_weighted_rule_fourth_order():
    from scipy.integrate import quad
    errs = []
    for m in (64, 128):
        g = panel_array(m, lambda x: np.exp(x - 0.5))
        running = weighted_cumulative(g)[1]
        ref, _ = quad(lambda t: 2.0 * math.exp(t * t), 0.0, math.sqrt(0.5))
        errs.append(abs(running[-1] - ref))
    assert errs[0] / errs[1] > 12.0


def weighted_cumulative_by_panel(mesh, values, factor=None):
    """The weighted rule on one panel, written as it was before the panel axis.

    values holds the panel's nodes. g(x(t)) comes from interp_uniform and,
    times factor(x(t)) if given, is integrated on the uniform t-mesh; the
    running t-integral goes back to the nodes through interp_uniform too.
    """
    left = mesh.panel == "left"
    t_top = math.sqrt(mesh.b - mesh.a)
    t = np.linspace(0.0, t_top, mesh.m + 1)
    ht = t_top / mesh.m
    xs = 0.5 - t * t if left else 0.5 + t * t
    psi = interp_uniform(mesh.a, mesh.h, values, xs)
    if factor is not None:
        psi = psi * factor(xs)
    big_psi = cumulative_simpson(psi, ht)
    back = interp_uniform(0.0, ht, big_psi, np.sqrt(np.abs(0.5 - mesh.nodes)))
    out = 2.0 * (big_psi[-1] - back) if left else 2.0 * back
    out[0] = 0.0
    return out


def _signed_panel_array(rng, m):
    """A random panel array over several magnitudes, a tenth of it -0.0."""
    g = rng.standard_normal((2, m + 1)) * 10.0 ** rng.integers(-4, 5)
    g[rng.random(g.shape) < 0.1] = -0.0
    return g


# Both panels in one call must add and round exactly as the rule by panel,
# signed zeros included; tobytes() sees -0.0 where array_equal does not.
@given(half=st.integers(2, 2048), lam=st.floats(0.25, 1600.0),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_panel_axis_rule_equals_the_rule_by_panel(half, lam, seed):
    m = 2 * half
    rng = np.random.default_rng(seed)
    g, smooth = _signed_panel_array(rng, m), _signed_panel_array(rng, m)
    meshes = [PanelMesh(panel, m) for panel in PANELS]
    by_panel = [weighted_cumulative_by_panel(mesh, row)
                for mesh, row in zip(meshes, g)]
    assert weighted_cumulative(g).tobytes() == np.stack(by_panel).tobytes()
    frame = _Frame(BranchId("I", 0, 1), lam, m)
    w = frame.omega
    expected = cumulative_simpson(smooth * frame.trig, frame.h)
    for k, (mesh, row) in enumerate(zip(meshes, g)):
        for i, trig in enumerate((np.cos, np.sin)):
            expected[i, k] += weighted_cumulative_by_panel(
                mesh, row, lambda xs: trig(w * xs))
    assert frame.cumulants(smooth, g).tobytes() == expected.tobytes()


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
    # nan slipped through a `lambda0 <= 0.0` check into all-NaN pieces
    for lam in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(QuadratureError, match="lambda0"):
            kernel_convolution(lam, f, "from-left")


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
