import numpy as np
import pytest

from arbsurf.fd import (DupireField, FdConfig, dkk_matrix, dtau_matrix,
                        dupire_field, dupire_total_variation, fd_derivatives)
from arbsurf.grid import Grid2D, WeightField, uniform_weight, vega_bump_weight, weighted_norm

from conftest import bs_call, bs_gamma_K, bs_theta_tau


def test_config_validation():
    with pytest.raises(ValueError):
        FdConfig(window_K=4)
    with pytest.raises(ValueError):
        FdConfig(window_tau=1)
    with pytest.raises(ValueError):
        FdConfig(clip_lo=1.0, clip_hi=0.5)
    with pytest.raises(ValueError):
        FdConfig(denom_floor=0.0)


def test_polynomial_reproduction(grid21x11):
    K, T = np.meshgrid(grid21x11.strikes, grid21x11.maturities)
    c_kk, c_tau = fd_derivatives(K**2, grid21x11)
    np.testing.assert_allclose(c_kk, 2.0, atol=1e-10)
    np.testing.assert_allclose(c_tau, 0.0, atol=1e-10)
    c_kk, c_tau = fd_derivatives(T.copy(), grid21x11)
    np.testing.assert_allclose(c_tau, 1.0, atol=1e-12)
    np.testing.assert_allclose(c_kk, 0.0, atol=1e-12)


def test_window_larger_than_axis_raises():
    g = Grid2D(np.linspace(0, 1, 4), np.linspace(0.1, 1.0, 4))
    with pytest.raises(ValueError):
        fd_derivatives(np.zeros(g.shape), g, FdConfig(window_K=5, window_tau=3))
    with pytest.raises(ValueError):
        fd_derivatives(np.zeros(g.shape), g, FdConfig(window_K=3, window_tau=5))


def _rate(ns, errs):
    return np.polyfit(np.log(ns), np.log(errs), 1)[0]


def test_bs_rate_in_strike():
    errs, hs = [], []
    for nk in (21, 41, 81):
        g = Grid2D(np.linspace(80, 120, nk), np.linspace(0.1, 1.1, 11))
        w = vega_bump_weight(g, 100.0)
        K, T = np.meshgrid(g.strikes, g.maturities)
        c_kk, _ = fd_derivatives(bs_call(100.0, K, T, 0.2), g)
        errs.append(weighted_norm(c_kk - bs_gamma_K(100.0, K, T, 0.2), w, g))
        hs.append(g.h_K)
    slope = _rate(hs, errs)
    assert 1.7 <= slope <= 2.3


def test_bs_rate_in_maturity():
    errs, hs = [], []
    for nt in (11, 21, 41):
        g = Grid2D(np.linspace(80, 120, 41), np.linspace(0.1, 1.1, nt))
        w = vega_bump_weight(g, 100.0)
        K, T = np.meshgrid(g.strikes, g.maturities)
        _, c_tau = fd_derivatives(bs_call(100.0, K, T, 0.2), g)
        errs.append(weighted_norm(c_tau - bs_theta_tau(100.0, K, T, 0.2), w, g))
        hs.append(g.h_tau)
    slope = _rate(hs, errs)
    assert 0.7 <= slope <= 1.3


def test_dupire_composite_rate():
    # sigma_hat^2 error is O(h_tau + h_K^2) on the region where curvature is
    # bounded away from zero; under joint dyadic refinement the h_tau term
    # dominates, so the measured slope sits near 1
    errs, hs = [], []
    for nk, nt in ((21, 11), (41, 21), (81, 41)):
        g = Grid2D(np.linspace(80, 120, nk), np.linspace(0.1, 1.1, nt))
        w = vega_bump_weight(g, 100.0)
        K, T = np.meshgrid(g.strikes, g.maturities)
        fld = dupire_field(bs_call(100.0, K, T, 0.2), g)
        err = np.where((K >= 90) & (K <= 110) & (T >= 0.3),
                       fld.sigma2 - 0.04, 0.0)
        errs.append(weighted_norm(err, w, g))
        hs.append(g.h_tau)
    slope = _rate(hs, errs)
    assert 0.6 <= slope <= 1.6


def test_dupire_bs_interior():
    g = Grid2D(np.linspace(80, 120, 41), np.linspace(0.1, 1.1, 21))
    K, T = np.meshgrid(g.strikes, g.maturities)
    fld = dupire_field(bs_call(100.0, K, T, 0.2), g)
    interior = (K >= 90) & (K <= 110) & (T >= 0.3)
    assert np.max(np.abs(fld.sigma2[interior] - 0.04)) <= 0.01
    assert not fld.clipped_mask[interior].any()


def test_dupire_zero_numerator_clips_to_floor(grid21x11):
    K, _ = np.meshgrid(grid21x11.strikes, grid21x11.maturities)
    cfg = FdConfig()
    fld = dupire_field(K**2, grid21x11)   # C_tau = 0, convex in K
    np.testing.assert_allclose(fld.sigma2, cfg.clip_lo)
    assert fld.clipped_mask.all()


def test_dupire_denominator_floor_flagged(grid21x11):
    # calendar-increasing but strike-flat surface: K^2 C_KK = 0 < floor
    _, T = np.meshgrid(grid21x11.strikes, grid21x11.maturities)
    cfg = FdConfig()
    fld = dupire_field(T.copy(), grid21x11)
    assert fld.floored_mask.all()
    np.testing.assert_allclose(fld.sigma2, cfg.clip_hi)  # 2/floor, clipped up


def test_tv_constant_zero(grid21x11, weight21x11):
    fld = DupireField(np.full(grid21x11.shape, 0.04), np.zeros(grid21x11.shape, bool),
                      np.zeros(grid21x11.shape, bool), grid21x11)
    assert dupire_total_variation(fld, weight21x11) == 0.0


def test_tv_single_step():
    g = Grid2D(np.linspace(0, 1, 3), np.linspace(0.1, 0.3, 3))
    s = np.zeros(g.shape)
    s[1, 1] = 1.0   # unit step against 4 neighbors
    fld = DupireField(s, np.zeros(g.shape, bool), np.zeros(g.shape, bool), g)
    w = uniform_weight(g)
    assert dupire_total_variation(fld, w) == pytest.approx(4.0)


def test_tv_matches_bruteforce_oracle():
    g = Grid2D(np.linspace(0, 1, 5), np.linspace(0.1, 0.5, 5))
    rng = np.random.default_rng(5)
    s = rng.standard_normal(g.shape)
    wv = np.abs(rng.standard_normal(g.shape)) + 0.2
    w = WeightField(wv / wv.mean())
    fld = DupireField(s, np.zeros(g.shape, bool), np.zeros(g.shape, bool), g)
    got = dupire_total_variation(fld, w)
    oracle = 0.0
    for i in range(5):
        for j in range(5):
            if j + 1 < 5:
                oracle += abs(s[i, j + 1] - s[i, j]) * 0.5 * (w.w[i, j + 1] + w.w[i, j])
            if i + 1 < 5:
                oracle += abs(s[i + 1, j] - s[i, j]) * 0.5 * (w.w[i + 1, j] + w.w[i, j])
    assert got == pytest.approx(oracle, abs=1e-12)


def test_linearity(grid21x11):
    rng = np.random.default_rng(11)
    C1 = rng.standard_normal(grid21x11.shape)
    C2 = rng.standard_normal(grid21x11.shape)
    a, b = 2.3, -0.7
    kk1, t1 = fd_derivatives(C1, grid21x11)
    kk2, t2 = fd_derivatives(C2, grid21x11)
    kk, t = fd_derivatives(a * C1 + b * C2, grid21x11)
    np.testing.assert_allclose(kk, a * kk1 + b * kk2, atol=1e-10)
    np.testing.assert_allclose(t, a * t1 + b * t2, atol=1e-10)


def test_stencils_are_built_once_per_grid_and_window(grid21x11):
    from arbsurf.fd import _stencils
    for cfg in (FdConfig(), FdConfig(window_K=7, window_tau=5)):
        SK, ST = _stencils(grid21x11, cfg)
        np.testing.assert_array_equal(SK, dkk_matrix(grid21x11.strikes, cfg.window_K))
        np.testing.assert_array_equal(ST, dtau_matrix(grid21x11.maturities,
                                                      cfg.window_tau))
        again = _stencils(grid21x11, cfg)
        assert again[0] is SK and again[1] is ST
        for S in (SK, ST):
            with pytest.raises(ValueError):
                S[0, 0] = 1.0
    # the public builders still return fresh, writable arrays
    fresh = dkk_matrix(grid21x11.strikes, 5)
    fresh[0, 0] += 1.0
    np.testing.assert_array_equal(_stencils(grid21x11, FdConfig())[0],
                                  dkk_matrix(grid21x11.strikes, 5))


def test_dtau_matrix_affine_exact():
    taus = np.array([0.1, 0.25, 0.45, 0.7, 1.0])
    S = dtau_matrix(taus, 3)
    np.testing.assert_allclose(S @ (2.0 * taus + 1.0), 2.0, atol=1e-12)


