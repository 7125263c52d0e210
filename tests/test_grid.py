import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbsurf.grid import (MESH_QUANTILE, MESH_WINDOW, Grid2D, Surface,
                          WeightField, check_mesh_admissibility,
                          quadrature_matrix, trapezoid_weights, uniform_weight,
                          unweighted_norm, vega_bump_weight, weighted_inner,
                          weighted_norm)

from conftest import bs_call, bs_gamma_K


def test_grid_invariants():
    g = Grid2D(np.array([1.0, 2.0, 4.0]), np.array([0.1, 0.3, 0.4]))
    assert g.h_K == 2.0
    assert g.h_tau == pytest.approx(0.2)
    with pytest.raises(ValueError):
        Grid2D(np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        Grid2D(np.array([1.0, 1.0, 2.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        Grid2D(np.array([1.0, 2.0, 3.0]), np.array([-0.1, 0.2, 0.3]))


def test_weight_field_invariants(grid21x11):
    w = vega_bump_weight(grid21x11, 100.0)
    assert abs(w.w.mean() - 1.0) <= 1e-12
    assert w.kappa_W == pytest.approx(np.sqrt(w.w_max / w.w_min))
    with pytest.raises(ValueError):
        WeightField(np.full(grid21x11.shape, 2.0))   # not unit mean
    with pytest.raises(ValueError):
        WeightField(np.zeros(grid21x11.shape))


def test_quadrature_matrix_is_fixed_per_grid(grid21x11):
    q = quadrature_matrix(grid21x11)
    np.testing.assert_array_equal(
        q, np.outer(trapezoid_weights(grid21x11.maturities),
                    trapezoid_weights(grid21x11.strikes)))
    with pytest.raises(ValueError):
        q[0, 0] = 1.0
    with pytest.raises(ValueError):
        q *= 2.0
    np.testing.assert_array_equal(quadrature_matrix(grid21x11), q)


def test_norm_zero_field(grid21x11, weight21x11):
    assert weighted_norm(np.zeros(grid21x11.shape), weight21x11, grid21x11) == 0.0


def test_norm_constant_field_unit_measure():
    # rescale the domain so the total measure is 1; then ||c||_w = |c|
    g = Grid2D(np.linspace(0.0, 1.0, 9), np.linspace(1.0, 2.0, 7))
    w = uniform_weight(g)
    c = -3.7
    assert weighted_norm(np.full(g.shape, c), w, g) == pytest.approx(abs(c), abs=1e-12)


def test_norm_matches_dense_quadrature_oracle():
    # f(K, tau) = K on a coarse grid with nonuniform weights: the trapezoid
    # value must agree with a high-resolution trapezoid of the same piecewise
    # bilinear integrand to 1e-10
    g = Grid2D(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.5]))
    wvals = np.array([[0.5, 1.0, 1.5], [1.0, 1.5, 0.5], [1.5, 0.5, 1.0]])
    w = WeightField(wvals / wvals.mean())
    f = np.tile(g.strikes, (3, 1))
    got = weighted_norm(f, w, g) ** 2

    # dense oracle: bilinear interpolation of f^2 * w onto a fine tensor grid
    # integrates the same trapezoid rule exactly in the refinement limit
    fine_k = np.linspace(1.0, 3.0, 2001)
    fine_t = np.linspace(0.5, 1.5, 2001)
    integrand = (f**2) * w.w

    def bilinear(vals, xs, ys, X, Y):
        ix = np.clip(np.searchsorted(xs, X) - 1, 0, xs.size - 2)
        iy = np.clip(np.searchsorted(ys, Y) - 1, 0, ys.size - 2)
        fx = (X - xs[ix]) / (xs[ix + 1] - xs[ix])
        fy = (Y - ys[iy]) / (ys[iy + 1] - ys[iy])
        return ((1 - fx) * (1 - fy) * vals[iy, ix] + fx * (1 - fy) * vals[iy, ix + 1]
                + (1 - fx) * fy * vals[iy + 1, ix] + fx * fy * vals[iy + 1, ix + 1])

    KK, TT = np.meshgrid(fine_k, fine_t)
    dense = bilinear(integrand, g.strikes, g.maturities, KK, TT)
    oracle = np.trapezoid(np.trapezoid(dense, fine_k, axis=1), fine_t)
    assert got == pytest.approx(oracle, abs=1e-10)


def test_norm_equivalence(grid21x11, weight21x11):
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.standard_normal(grid21x11.shape)
        wn = weighted_norm(f, weight21x11, grid21x11)
        un = unweighted_norm(f, grid21x11)
        k = weight21x11.kappa_W
        assert wn <= k * un + 1e-12
        assert wn >= un / k - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-10, 10))
def test_norm_homogeneity_and_triangle(seed, scale):
    g = Grid2D(np.linspace(1.0, 3.0, 5), np.linspace(0.2, 1.0, 4))
    wv = np.abs(np.random.default_rng(seed).standard_normal(g.shape)) + 0.1
    w = WeightField(wv / wv.mean())
    rng = np.random.default_rng(seed + 1)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    assert weighted_norm(scale * f, w, g) == pytest.approx(
        abs(scale) * weighted_norm(f, w, g), abs=1e-10)
    assert weighted_norm(f + h, w, g) <= (weighted_norm(f, w, g)
                                          + weighted_norm(h, w, g) + 1e-10)


def test_inner_product_polarization(grid21x11, weight21x11):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid21x11.shape)
    h = rng.standard_normal(grid21x11.shape)
    lhs = weighted_inner(f, h, weight21x11, grid21x11)
    rhs = 0.25 * (weighted_norm(f + h, weight21x11, grid21x11) ** 2
                  - weighted_norm(f - h, weight21x11, grid21x11) ** 2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_shape_mismatch_raises(grid21x11, weight21x11):
    with pytest.raises(ValueError):
        weighted_norm(np.zeros((3, 3)), weight21x11, grid21x11)


def _unit_slack(monkeypatch):
    # the bounds are the envelopes themselves
    monkeypatch.setattr("arbsurf.grid.MESH_C1", 1.0)
    monkeypatch.setattr("arbsurf.grid.MESH_C2", 1.0)


def test_admissibility_quadratic_pass(monkeypatch):
    _unit_slack(monkeypatch)
    g = Grid2D(np.linspace(0.0, 1.0, 41), np.linspace(0.1, 1.1, 41))
    K, T = np.meshgrid(g.strikes, g.maturities)
    C = Surface(10.0 * K**2 + 10.0 * T**2, g, is_price=False)
    report = check_mesh_admissibility(C, g)
    assert report.passed
    assert report.envelope_K == pytest.approx(20.0, rel=1e-6)


def _polyfit_curvature(y, x, window):
    # the per-node loop the stencils replace: the second derivative of a
    # quadratic polyfit on the node's window, shifted inward at the edges
    n = x.size
    window = min(window, n)
    out = np.empty(n)
    for i in range(n):
        lo = min(max(i - window // 2, 0), n - window)
        coef = np.polynomial.polynomial.polyfit(x[lo:lo + window] - x[i],
                                                y[lo:lo + window], 2)
        out[i] = 2.0 * coef[2]
    return out


@pytest.mark.parametrize("shape, window", [((11, 31), 5), ((21, 11), 5),
                                           ((6, 9), 7), ((4, 3), 3)])
def test_curvature_stencils_match_polyfit_loop(shape, window):
    from arbsurf.grid import _curvature_stencil
    rng = np.random.default_rng(sum(shape) + window)
    n_tau, n_K = shape
    g = Grid2D(np.sort(rng.uniform(80, 120, n_K)), np.sort(rng.uniform(0.1, 1.1, n_tau)))
    K, T = np.meshgrid(g.strikes, g.maturities)
    values = np.maximum(100.0 - K, 0.0) * T + rng.standard_normal(shape)
    w_tau = min(window, n_tau if n_tau % 2 else n_tau - 1)
    SK = _curvature_stencil(g, "strikes", window)
    ST = _curvature_stencil(g, "maturities", w_tau)
    ref_K = np.array([_polyfit_curvature(row, g.strikes, window) for row in values])
    ref_T = np.array([_polyfit_curvature(col, g.maturities, w_tau)
                      for col in values.T]).T
    for got, ref in ((values @ SK.T, ref_K), (ST @ values, ref_T)):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    # built once per grid, axis and window, and read-only
    assert _curvature_stencil(g, "strikes", window) is SK
    with pytest.raises(ValueError):
        SK[0, 0] = 1.0
    # the mesh check reads the strike stencil at its own window
    report = check_mesh_admissibility(Surface(values, g, is_price=False), g)
    S5 = _curvature_stencil(g, "strikes", MESH_WINDOW)
    assert report.envelope_K == np.quantile(np.abs(values @ S5.T), MESH_QUANTILE)


def test_admissibility_degenerate_mesh_errors():
    with pytest.raises(ValueError):
        Grid2D(np.array([0.0, 1.0]), np.array([0.1, 0.2]))


def test_admissibility_degenerate_surface_fails_gracefully(grid21x11):
    C = Surface(np.ones(grid21x11.shape), grid21x11)
    report = check_mesh_admissibility(C, grid21x11)
    assert not report.passed
    assert "degenerate" in report.reason


def test_admissibility_bs_matches_analytic_oracle(grid21x11, bs_surface_21x11,
                                                 monkeypatch):
    # the report's decision must agree with an oracle that evaluates analytic
    # second derivatives at the nodes and applies the same envelope rule
    _unit_slack(monkeypatch)
    report = check_mesh_admissibility(Surface(bs_surface_21x11, grid21x11),
                                      grid21x11)
    K, T = np.meshgrid(grid21x11.strikes, grid21x11.maturities)
    gamma = bs_gamma_K(100.0, K, T, 0.2)
    dtau = 1e-4
    thet2 = (bs_call(100.0, K, T + dtau, 0.2) - 2 * bs_call(100.0, K, T, 0.2)
             + bs_call(100.0, K, T - dtau, 0.2)) / dtau**2
    env_K = np.quantile(np.abs(gamma), 0.10)
    env_t = np.quantile(np.abs(thet2), 0.10)
    oracle_pass = (grid21x11.h_K <= env_K) and (grid21x11.h_tau <= env_t)
    assert report.passed == oracle_pass
    assert report.envelope_K == pytest.approx(env_K, rel=0.25)


def test_admissibility_monotone_under_refinement():
    sigma = 0.2
    for n_K, n_tau in [(21, 11), (41, 21), (81, 41)]:
        g = Grid2D(np.linspace(80, 120, n_K), np.linspace(0.1, 1.1, n_tau))
        K, T = np.meshgrid(g.strikes, g.maturities)
        C = Surface(bs_call(100.0, K, T, sigma), g)
        report = check_mesh_admissibility(C, g)
        assert report.passed, f"refinement flipped PASS at {n_K}x{n_tau}"


