import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

import arbsurf
from arbsurf.fd import FdConfig, dupire_field
from arbsurf.grid import Grid2D, Surface, vega_bump_weight
from arbsurf.projection import feasibility_violation, project_to_cone
from arbsurf.synth import (MarketParams, _ndtr, bs_price, bs_vega,
                           extract_density, generate_surface, sample_clouds)

from conftest import bs_call


def test_params_validation():
    with pytest.raises(ValueError):
        MarketParams(spot=-1.0)
    with pytest.raises(ValueError):
        MarketParams(vol_kind="jump")
    with pytest.raises(ValueError):
        MarketParams(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        MarketParams(vol_kind="smile", vol_level=0.01,
                     smile_curvature=-10.0).sigma(np.array([120.0]))


def _scipy_stats_forms(spot, K, tau, sigma, rate, dividend):
    """bs_price and bs_vega written with scipy.stats.norm, in the same order
    of operations; the normal pdf is one factor of the vega product."""
    st = sigma * np.sqrt(tau)
    d1 = (np.log(spot / K) + (rate - dividend + sigma**2 / 2) * tau) / st
    d2 = d1 - st
    price = (spot * np.exp(-dividend * tau) * norm.cdf(d1)
             - K * np.exp(-rate * tau) * norm.cdf(d2))
    vega = spot * np.exp(-dividend * tau) * norm.pdf(d1) * np.sqrt(tau)
    return price, vega


@pytest.mark.parametrize("params", [
    MarketParams(),
    MarketParams(vol_kind="smile", vol_level=0.18, smile_curvature=0.6),
    MarketParams(rate=0.03, dividend=0.01, vol_level=0.35),
])
def test_bs_price_and_vega_match_scipy_stats_bit_for_bit(params):
    grid = Grid2D(np.linspace(80.0, 120.0, 31), np.linspace(0.1, 1.1, 11))
    K, T = np.meshgrid(grid.strikes, grid.maturities)
    sig = params.sigma(K, T)
    args = (params.spot, K, T, sig, params.rate, params.dividend)
    price, vega = _scipy_stats_forms(*args)
    assert np.array_equal(bs_price(*args), price)
    assert np.array_equal(bs_vega(*args), vega)


def test_bs_vega_accepts_list_inputs_like_bs_price():
    args = (100.0, [90.0, 100.0], [0.5, 0.5], [0.2, 0.2])
    vega = bs_vega(*args)
    assert vega.shape == (2,)
    assert np.array_equal(vega, bs_vega(*(np.asarray(a) for a in args)))
    assert bs_price(*args).shape == (2,)


def _same(got, want):
    return (np.shape(got) == np.shape(want)
            and np.array_equal(got, want, equal_nan=True))


def test_private_ndtr_matches_scipy_special_bit_for_bit():
    # 400 steps of one machine epsilon (relative) on each side of the branch
    # edges |a| = sqrt(2) (erf / erfc), 8 sqrt(2) (P/Q / R/S tables) and
    # sqrt(2 MAXLOG) ~ 37.7 (underflow)
    edges = np.sqrt([2.0, 128.0, 2 * 7.09782712893383996732e2])
    near = (edges[:, None] * (1 + np.arange(-400, 401) * 2.0**-52)).ravel()
    a = np.concatenate([np.linspace(-40.0, 40.0, 160_001), near, -near,
                        [np.inf, -np.inf, np.nan, -0.0, 0.0]])
    assert _same(_ndtr(a), ndtr(a))
    cube = a[a.size % 12:].reshape(4, -1, 3)
    assert _same(_ndtr(cube), ndtr(cube))
    for x in (-0.0, 1.3, np.float64(-9.0), np.array(12.5), [0.5, -40.0]):
        assert _same(_ndtr(x), ndtr(x))


def test_import_loads_no_scipy_stats_optimize_or_special():
    # a fresh interpreter, since the test suite itself imports scipy.stats
    src = str(Path(arbsurf.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import arbsurf; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', "
            "'scipy.special') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["[]"]


def test_constant_vol_surface_feasible(grid21x11):
    clean, _ = generate_surface(MarketParams(), grid21x11)
    assert feasibility_violation(clean.values, grid21x11) <= 1e-9
    w = vega_bump_weight(grid21x11, 100.0)
    proj = project_to_cone(clean, w)
    assert np.max(np.abs(proj.values - clean.values)) <= 1e-9


def test_zero_noise_equals_clean(grid21x11):
    clean, noisy = generate_surface(MarketParams(noise_sigma=0.0), grid21x11)
    np.testing.assert_array_equal(clean.values, noisy.values)


def test_seeded_generation_reproducible(grid21x11):
    p = MarketParams(noise_sigma=0.3, seed=123)
    _, n1 = generate_surface(p, grid21x11)
    _, n2 = generate_surface(p, grid21x11)
    np.testing.assert_array_equal(n1.values, n2.values)


def test_smile_dupire_matches_analytic_local_variance():
    # oracle: the implied-vol-form local-variance formula evaluated with
    # analytic derivatives of the smile descriptor (time-independent sigma(K))
    spot, a, b = 100.0, 0.2, 0.4
    g = Grid2D(np.linspace(80, 120, 81), np.linspace(0.1, 1.1, 41))
    params = MarketParams(vol_kind="smile", vol_level=a, smile_curvature=b)
    clean, _ = generate_surface(params, g)
    fld = dupire_field(clean, g)
    K, T = np.meshgrid(g.strikes, g.maturities)
    sig = a + b * ((K - spot) / spot) ** 2
    dsig = 2.0 * b * (K - spot) / spot**2
    d2sig = np.full_like(K, 2.0 * b / spot**2)
    st = sig * np.sqrt(T)
    d1 = (np.log(spot / K) + 0.5 * sig**2 * T) / st
    denom = ((1.0 + K * d1 * np.sqrt(T) * dsig) ** 2
             + K**2 * T * sig * (d2sig - d1 * np.sqrt(T) * dsig**2))
    oracle = sig**2 / denom
    interior = (K >= 90) & (K <= 110) & (T >= 0.3)
    rel = np.abs(fld.sigma2[interior] - oracle[interior]) / oracle[interior]
    assert np.max(rel) <= 0.05


def test_density_mean_matches_forward():
    g = Grid2D(np.linspace(60, 160, 51), np.linspace(0.1, 1.1, 11))
    clean, _ = generate_surface(MarketParams(), g)
    tau_idx = 4     # tau = 0.5
    dens, _ = extract_density(clean, g, tau_idx)
    mean = float(g.strikes @ dens)
    assert abs(mean - 100.0) / 100.0 <= 0.01
    assert abs(dens.sum() - 1.0) <= 1e-12
    assert np.all(dens >= 0)


def test_density_adjacent_means_martingale():
    g = Grid2D(np.linspace(60, 160, 51), np.linspace(0.1, 1.1, 11))
    clean, _ = generate_surface(MarketParams(), g)
    means = [float(g.strikes @ extract_density(clean, g, i)[0])
             for i in (3, 4, 5)]
    assert abs(means[1] - 0.5 * (means[0] + means[2])) / means[1] <= 0.01


def test_density_tent_single_atom():
    # convex piecewise-linear row with one interior kink: the curvature mass
    # is a single atom at the kink strike
    g = Grid2D(np.linspace(0, 10, 11), np.linspace(0.1, 0.3, 3))
    K = g.strikes
    kinked = np.maximum(K - 5.0, 0.0)
    C = np.tile(kinked, (3, 1))
    dens, _ = extract_density(C, g, 1, FdConfig(window_K=3, window_tau=3))
    assert np.argmax(dens) == 5
    assert dens[5] >= 0.9


def test_density_degenerate_raises():
    g = Grid2D(np.linspace(0, 10, 11), np.linspace(0.1, 0.3, 3))
    K, _ = np.meshgrid(g.strikes, g.maturities)
    with pytest.raises(ValueError):
        extract_density(2.0 * K + 1.0, g, 1)   # affine: zero curvature


def test_sample_clouds_seeded_and_sized():
    g = Grid2D(np.linspace(60, 160, 51), np.linspace(0.1, 1.1, 11))
    clean, _ = generate_surface(MarketParams(), g)
    dens, _ = extract_density(clean, g, 4)
    a = sample_clouds(dens, g.strikes, [10, 20], seed=4)
    b = sample_clouds(dens, g.strikes, [10, 20], seed=4)
    assert [len(c) for c in a] == [10, 20]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert set(np.unique(a[1])) <= set(g.strikes)
