import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbsurf.chainstats import (SLOPE_PASS, ChainSeries, KernelMixture,
                                atom_counts, bartlett_alphas, chain_energy,
                                chain_energy_counts, fir_smoother, gate_v2,
                                median_bandwidth_counts,
                                median_bandwidth_mixture, mmd2, mmd2_counts,
                                n_eff, pav_isotonic, tail_diagnostics,
                                tolerance_band)
from arbsurf.descent import path_laplacian
from arbsurf.fd import FdConfig
from arbsurf.pipeline import PipelineContext
from arbsurf.synth import extract_density, sample_clouds


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_mixture_validation():
    with pytest.raises(ValueError):
        KernelMixture((("gaussian", 1.0, 0.0),), (0.5,))
    with pytest.raises(ValueError):
        KernelMixture((("triangle", 1.0, 0.0),), (1.0,))
    with pytest.raises(ValueError):
        KernelMixture((("gaussian", -1.0, 0.0),), (1.0,))


def test_mixture_bounded_by_one():
    mix = median_bandwidth_mixture(np.random.default_rng(0).standard_normal(20),
                                   np.random.default_rng(1).standard_normal(20))
    d = np.linspace(0, 100, 500) ** 2
    vals = mix(d)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.all(vals >= 0.0)


def test_median_single_pair():
    mix = median_bandwidth_mixture(np.array([0.0]), np.array([1.0]))
    scales = [c[1] for c in mix.components]
    assert scales[-1] == pytest.approx(1.0)       # imq at sigma-hat
    assert not mix.fallback


def test_median_octave_construction():
    mix = median_bandwidth_mixture(np.array([0.0]), np.array([2.0]))
    kinds = [c[0] for c in mix.components]
    scales = [c[1] for c in mix.components]
    assert kinds == ["gaussian", "gaussian", "gaussian", "imq"]
    np.testing.assert_allclose(scales, [1.0, 2.0, 4.0, 2.0])
    np.testing.assert_allclose(mix.weights, 0.25)


def test_median_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2))
    Y = rng.standard_normal((11, 2)) + 0.5
    mix = median_bandwidth_mixture(X, Y)
    dists = [np.linalg.norm(x - y) for x in X for y in Y]
    assert mix.components[-1][1] == pytest.approx(np.median(dists))


def test_median_degenerate_fallback():
    mix = median_bandwidth_mixture(np.zeros(4), np.zeros(5))
    assert mix.fallback
    assert mix.components[-1][1] == 1.0


# ---------------------------------------------------------------------------
# mmd2
# ---------------------------------------------------------------------------

def test_mmd2_constant_kernel_zero():
    rng = np.random.default_rng(0)
    k = KernelMixture((("gaussian", np.inf, 0.0),), (1.0,))
    assert mmd2(rng.standard_normal(9), rng.standard_normal(7), k) == 0.0


def test_mmd2_two_point_hand_value():
    k = KernelMixture((("gaussian", 1.0, 0.0),), (1.0,))
    got = mmd2(np.array([0.0, 0.0]), np.array([1.0, 1.0]), k)
    assert got == pytest.approx(1 + 1 - 2 * np.exp(-0.5), abs=1e-9)


def test_mmd2_insufficient_samples():
    k = KernelMixture((("gaussian", 1.0, 0.0),), (1.0,))
    with pytest.raises(ValueError):
        mmd2(np.array([0.0]), np.array([1.0, 2.0]), k)


def test_full_mmd2_unbiased_null():
    # 2000 seeded resamples from the same distribution: mean within 3 SE of 0
    k = KernelMixture((("gaussian", 1.0, 0.0),), (1.0,))
    rng = np.random.default_rng(42)
    vals = np.empty(2000)
    for i in range(2000):
        vals[i] = mmd2(rng.standard_normal(16), rng.standard_normal(16), k)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) <= 3 * se


# ---------------------------------------------------------------------------
# chain energy
# ---------------------------------------------------------------------------

def test_chain_energy_single_edge():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(20), rng.standard_normal(20) + 1
    total, per_edge, _ = chain_energy([a, b], [1.0])
    kern = median_bandwidth_mixture(a, b)
    assert total == pytest.approx(mmd2(a, b, kern))
    assert per_edge.shape == (1,)


def test_chain_energy_convex_combination():
    rng = np.random.default_rng(7)
    slices = [rng.standard_normal(25) + mu for mu in (0.0, 0.5, 1.0)]
    total, per_edge, _ = chain_energy(slices, [0.5, 0.5])
    assert total == pytest.approx(0.5 * per_edge[0] + 0.5 * per_edge[1])


def test_chain_energy_null_within_permutation_scale():
    # slices drawn iid from one distribution: total within twice the largest
    # per-pair permutation standard error
    rng = np.random.default_rng(8)
    slices = [rng.standard_normal(40) for _ in range(4)]
    total, per_edge, _ = chain_energy(slices, np.full(3, 1 / 3))
    se_max = 0.0
    for a, b in zip(slices[:-1], slices[1:]):
        kern = median_bandwidth_mixture(a, b)
        pool = np.concatenate([a, b])
        stats = []
        for s in range(200):
            perm = np.random.default_rng(s).permutation(pool)
            stats.append(mmd2(perm[:40], perm[40:], kern))
        se_max = max(se_max, np.std(stats))
    assert abs(total) <= 2 * se_max


def test_chain_energy_equals_laplacian_quadratic_form():
    # explicit finite-dimensional feature maps: mean-embedding energy equals
    # the Laplacian form exactly
    rng = np.random.default_rng(9)
    T, d = 5, 7
    mus = rng.standard_normal((T, d))
    w = np.abs(rng.standard_normal(T - 1)) + 0.1
    w = w / w.sum()
    edge_sum = sum(wt * np.sum((mus[t] - mus[t + 1]) ** 2)
                   for t, wt in enumerate(w))
    graph = path_laplacian(T, w)
    trace_form = np.trace(mus.T @ graph.laplacian @ mus)
    assert edge_sum == pytest.approx(trace_form, abs=1e-10)


def test_chain_energy_validation():
    with pytest.raises(ValueError):
        chain_energy([np.zeros(3)], [])
    with pytest.raises(ValueError):
        chain_energy([np.zeros(3), np.ones(3)], [0.5, 0.5])


# ---------------------------------------------------------------------------
# atom-count form
# ---------------------------------------------------------------------------

ATOMS = np.linspace(80.0, 120.0, 31) / 100.0


def _cloud_and_counts(density, n, seed):
    cloud = sample_clouds(density, ATOMS, [n], seed=seed)[0]
    return cloud, atom_counts(cloud, ATOMS)


def _two_bumps():
    x = np.arange(ATOMS.size)
    p = np.exp(-0.5 * ((x - 12) / 4.0) ** 2)
    q = np.exp(-0.5 * ((x - 17) / 6.0) ** 2)
    return p / p.sum(), q / q.sum()


@pytest.mark.parametrize("n, m", [(60, 90), (61, 91), (2, 3), (1, 1)])
def test_count_bandwidth_bit_identical_to_pairwise(n, m):
    # an even n*m averages the two middle ranks, as np.median does; an odd
    # n*m (61*91, 1*1) takes the middle one, which no default chain size hits
    p, q = _two_bumps()
    X, cx = _cloud_and_counts(p, n, 1)
    Y, cy = _cloud_and_counts(q, m, 2)
    pairwise = median_bandwidth_mixture(X, Y)
    counted = median_bandwidth_counts(cx, cy, ATOMS)
    assert counted == pairwise
    assert counted.components[-1][1] == float(np.median(np.abs(X[:, None] - Y)))


def test_count_bandwidth_single_atom_falls_back():
    point = np.zeros(ATOMS.size)
    point[9] = 1.0
    X, cx = _cloud_and_counts(point, 40, 3)
    Y, cy = _cloud_and_counts(point, 25, 4)
    counted = median_bandwidth_counts(cx, cy, ATOMS)
    assert counted.fallback
    assert counted == median_bandwidth_mixture(X, Y)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=31, max_size=31),
       st.lists(st.floats(0.0, 1.0), min_size=31, max_size=31),
       st.integers(2, 250), st.integers(2, 250), st.integers(0, 2**31))
def test_count_mmd2_matches_pairwise(p, q, n, m, seed):
    p, q = np.asarray(p) + 1e-3, np.asarray(q) + 1e-3
    X, cx = _cloud_and_counts(p / p.sum(), n, seed)
    Y, cy = _cloud_and_counts(q / q.sum(), m, seed + 1)
    kern = median_bandwidth_mixture(X, Y)
    assert median_bandwidth_counts(cx, cy, ATOMS) == kern
    want = mmd2(X, Y, kern)
    got = mmd2_counts(cx, cy, ATOMS, kern)
    assert abs(got - want) <= 1e-12 * abs(want) + 1e-14


def test_atom_counts_rejects_off_atom_samples():
    p, _ = _two_bumps()
    cloud = sample_clouds(p, ATOMS, [50], seed=5)[0]
    noisy = cloud + 1e-3 * np.random.default_rng(5).standard_normal(50)
    with pytest.raises(ValueError):
        atom_counts(noisy, ATOMS)
    with pytest.raises(ValueError):
        atom_counts(np.array([ATOMS[-1] + 0.1]), ATOMS)
    with pytest.raises(ValueError):
        atom_counts(ATOMS[:3], ATOMS[::-1])


def test_count_form_validation():
    c = np.zeros(ATOMS.size, dtype=int)
    with pytest.raises(ValueError):
        median_bandwidth_counts(c, c + 1, ATOMS)
    one = c.copy()
    one[4] = 1
    kern = median_bandwidth_mixture(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        mmd2_counts(one, one * 3, ATOMS, kern)
    with pytest.raises(ValueError):
        mmd2_counts(c[:-1] + 2, c[:-1] + 2, ATOMS, kern)
    with pytest.raises(ValueError):
        chain_energy_counts([one * 2], ATOMS, [])


def test_stage_gate_agrees_with_pairwise_chain_energy():
    sizes = [60, 90, 130, 190]
    ctx = PipelineContext({"projection": {"lip_trials": 2},
                           "chain": {"sizes": sizes}})
    for stage in ("generate", "fit", "project", "gate"):
        getattr(ctx, f"stage_{stage}")()
    cc, grid = ctx.config["chain"], ctx.art["grid"]
    n_mat = cc["n_maturities_used"]
    tau_idx = np.linspace(0, grid.maturities.size - 1, n_mat).round().astype(int)
    densities = [extract_density(ctx.art["C_proj"], grid, int(i), FdConfig())[0]
                 for i in tau_idx]
    atoms = grid.strikes / ctx.config["market"]["spot"]
    for s_i, n_s in enumerate(sizes):
        clouds = [sample_clouds(d, atoms, [n_s],
                                seed=ctx._seed(f"cloud-{s_i}-{m}"))[0]
                  for m, d in enumerate(densities)]
        want, _, kernels = chain_energy(
            clouds, np.full(n_mat - 1, 1.0 / (n_mat - 1)))
        got = ctx.summary["R2"]["values"][s_i]
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-14
    assert ctx.summary["R2"]["pair_kernel_scales"] == [
        k.components[-1][1] for k in kernels]


# ---------------------------------------------------------------------------
# n_eff
# ---------------------------------------------------------------------------

def test_neff_iid():
    assert n_eff(37, [0.0, 0.0]) == 37.0


def test_neff_hand_value():
    # unit coefficients: 3 / (1 + 2 (2/3 + 1/3)) = 1 whatever the exponent
    assert n_eff(3, [1.0, 1.0]) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.floats(0.01, 0.95))
def test_neff_bounded_and_decreasing(n, alpha1):
    base = n_eff(n, [alpha1 / 2])
    worse = n_eff(n, [alpha1])
    assert worse <= base <= n


def test_bartlett_alphas_white_noise_small():
    rng = np.random.default_rng(10)
    a = bartlett_alphas(rng.standard_normal(500))
    assert np.all(a < 0.2)


# ---------------------------------------------------------------------------
# tail diagnostics and the gate
# ---------------------------------------------------------------------------

def _series(values, sizes=None):
    values = np.asarray(values, dtype=float)
    if sizes is None:
        sizes = np.arange(1.0, values.size + 1)
    return ChainSeries(np.asarray(sizes, float), values,
                       np.asarray(sizes, float))


def test_flat_series():
    slope, area, _, _, _ = tail_diagnostics(_series(np.full(30, 0.7)))
    assert slope == 0.0
    assert area == 0.0


def test_linear_growth_envelope_flattens():
    s = _series(np.arange(1.0, 31.0))
    # raw OLS slope oracle on the tail is 1; the nonincreasing envelope
    # flattens the ascent so the reported slope is <= 0
    x = s.sizes[-3:]
    raw_slope = np.polyfit(x, s.values[-3:], 1)[0]
    assert raw_slope == pytest.approx(1.0)
    slope, _, smooth, _, _ = tail_diagnostics(s)
    assert slope <= 0.0 + 1e-12
    assert np.all(np.diff(pav_isotonic(s.values, np.ones(30),
                                       "nonincreasing")) <= 1e-12)


def test_geometric_decay_series():
    s = _series(0.5 ** np.arange(1, 25))
    slope, area, _, _, _ = tail_diagnostics(s)
    assert slope < 0
    assert area > 0


def test_fir_polynomial_reproduction_and_l1():
    h = fir_smoother()
    j = np.arange(-6, 7).astype(float)
    for r in range(6):
        target = 1.0 if r == 0 else 0.0
        assert np.sum(h * j**r) == pytest.approx(target, abs=1e-12)
    assert np.abs(h).sum() <= 120.0
    # reproduction on a whole series incl. edges (identity passthrough there);
    # an increasing polynomial is its own nondecreasing envelope
    x = np.arange(40.0)
    poly = 2 + 0.3 * x + 1e-3 * x**2 + 1e-5 * x**3 + 1e-7 * x**4 + 1e-9 * x**5
    env = pav_isotonic(poly, np.ones(40), "nondecreasing")
    np.testing.assert_allclose(env, poly, atol=1e-12)
    from arbsurf.chainstats import _apply_fir
    np.testing.assert_allclose(_apply_fir(poly, h), poly, atol=1e-9)


def test_envelope_nonexpansive_sup_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.standard_normal(15)
        v = rng.standard_normal(15)
        pu = pav_isotonic(u, np.ones(15), "nonincreasing")
        pv = pav_isotonic(v, np.ones(15), "nonincreasing")
        assert np.max(np.abs(pu - pv)) <= np.max(np.abs(u - v)) + 1e-12


def test_tolerance_band_hand_value():
    per_point, _, _ = tolerance_band(10, 0.05, [1000.0])
    assert per_point[0] == pytest.approx(np.sqrt(np.log(400.0) / 1000.0),
                                         abs=1e-12)


def test_tolerance_band_scaling_and_limit():
    pp1, bs1, ba1 = tolerance_band(10, 0.05, [500.0, 800.0], x_tail=[1.0, 2.0])
    pp2, bs2, ba2 = tolerance_band(10, 0.05, [1000.0, 1600.0], x_tail=[1.0, 2.0])
    np.testing.assert_allclose(pp1 / pp2, np.sqrt(2.0))
    assert bs1 / bs2 == pytest.approx(np.sqrt(2.0))
    assert ba1 / ba2 == pytest.approx(np.sqrt(2.0))
    pp3, bs3, ba3 = tolerance_band(10, 0.05, [1e18])
    assert pp3[0] <= 1e-8 and bs3 <= 1e-8 and ba3 <= 1e-8


def test_gate_flat_pass():
    d = gate_v2(_series(np.full(30, 0.4)))
    assert d.passed
    assert d.fir_l1 <= 120.0


def test_gate_linear_growth_fails_with_override():
    s = _series(np.arange(1.0, 31.0))
    d = gate_v2(s, envelope_direction="nondecreasing")
    assert not d.passed
    assert abs(d.slope_tail) > SLOPE_PASS


def test_gate_decaying_chain_series_passes_within_band():
    # chain-MMD style series: same population across maturities, estimator
    # decays toward zero as the per-slice sample size grows
    rng = np.random.default_rng(12)
    sizes = np.unique(np.round(np.geomspace(50, 1500, 16)).astype(int))
    values = []
    for n in sizes:
        slices = [rng.standard_normal(int(n)) for _ in range(4)]
        total, _, _ = chain_energy(slices, np.full(3, 1 / 3))
        values.append(total)
    series = ChainSeries(sizes.astype(float), np.asarray(values),
                         sizes.astype(float))
    d = gate_v2(series)
    assert d.passed
    assert abs(d.slope_tail) <= d.band_slope + 1e-12
