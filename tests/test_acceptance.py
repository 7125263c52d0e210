"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured values when it clears the stated tolerance."""

import time

import numpy as np
import pytest

from arbsurf.bridge import (TriMarginalProblem, build_bridge, coupling_pairwise,
                            dual_value, primal_value, tri_sinkhorn)
from arbsurf.chainstats import (ChainSeries, KernelMixture, chain_energy,
                                fir_smoother, gate_v2, mmd2)
from arbsurf.cpwl import compile_to_relu, triangulate_tensor_grid
from arbsurf.descent import DescentConfig, path_laplacian, projected_descent
from arbsurf.fd import dupire_field, fd_derivatives
from arbsurf.grid import (Grid2D, Surface, uniform_weight, vega_bump_weight,
                          weighted_norm)
from arbsurf.pipeline import run_pipeline, strip_meta, summary_to_json
from arbsurf.projection import project_to_cone, projection_certificates
from arbsurf.smolyak import AnisotropyConfig, smolyak_fit
from arbsurf.synth import MarketParams, generate_surface

from conftest import bs_call, bs_gamma_K, bs_theta_tau
from tests_oracle_helpers import nnls_cone_projection_full
from test_bridge import ENTROPIC_BIAS_C1, oracle_ot0, oracle_primal, make_problem


def _report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion:>2}: PASS  ({detail})")


@pytest.fixture(scope="module")
def reference_pipeline():
    t0 = time.perf_counter()
    summary, status = run_pipeline()
    return summary, status, time.perf_counter() - t0


def test_criterion_01_projection_nonexpansive():
    g = Grid2D(np.linspace(80, 120, 21), np.linspace(0.1, 1.1, 11))
    w = vega_bump_weight(g, 100.0)
    K, T = np.meshgrid(g.strikes, g.maturities)
    base = bs_call(100.0, K, T, 0.2)
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        C1 = base + 0.5 * rng.standard_normal(g.shape)
        C2 = base + 0.5 * rng.standard_normal(g.shape)
        p1 = project_to_cone(C1, w, grid=g).values
        p2 = project_to_cone(C2, w, grid=g).values
        gap = (weighted_norm(p1 - p2, w, g)
               - weighted_norm(C1 - C2, w, g))
        worst = max(worst, gap)
        assert gap <= 1e-9
    wall = time.perf_counter() - t0
    assert wall < 30.0
    _report(1, f"500 pairs, worst expansion {worst:.2e}, {wall:.1f}s")


def test_criterion_02_lipschitz_and_dupire_certificates():
    g = Grid2D(np.linspace(80, 120, 31), np.linspace(0.1, 1.1, 11))
    w = vega_bump_weight(g, 100.0)
    _, noisy = generate_surface(MarketParams(noise_sigma=0.25, seed=7), g)
    t0 = time.perf_counter()
    certs = projection_certificates(noisy, w, trials=200)
    wall = time.perf_counter() - t0
    assert certs.lip_certified <= 1.01
    assert certs.lip_emp <= certs.lip_certified
    assert certs.dup_ok
    assert wall < 60.0
    _report(2, f"lip_certified={certs.lip_certified:.7f}, "
               f"lip_emp={certs.lip_emp:.6f}, dup_ok={certs.dup_ok}, {wall:.1f}s")


def test_criterion_03_dykstra_matches_qp_oracle():
    g = Grid2D(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
    w = uniform_weight(g)
    rng = np.random.default_rng(7)
    worst, n_infeasible = 0.0, 0
    from arbsurf.projection import feasibility_violation
    while n_infeasible < 20:
        y = rng.standard_normal(g.shape) * 2 + 3
        if feasibility_violation(y, g) <= 0:
            continue
        n_infeasible += 1
        got = project_to_cone(y, w, grid=g).values
        oracle = nnls_cone_projection_full(y, g, w)
        worst = max(worst, weighted_norm(got - oracle, w, g))
    assert worst <= 1e-5
    _report(3, f"{n_infeasible} infeasible 3x3 surfaces, worst gap {worst:.2e}")


def test_criterion_04_relu_compilation():
    rng = np.random.default_rng(4)
    worst, depths = 0.0, []
    for n in (3, 5, 7, 9):
        xs = np.linspace(0, 1, n)
        f = triangulate_tensor_grid(xs, xs, rng.standard_normal((n, n)))
        net = compile_to_relu(f)
        pts = rng.random((10_000, 2))
        err = float(np.max(np.abs(net.evaluate(pts) - f.evaluate(pts))))
        worst = max(worst, err)
        depths.append(net.depth)
        assert err <= 1e-8
        assert net.depth <= 4
        c = net.constants
        assert net.param_count <= c["c1"] * c["V"] + c["c2"] * c["M"]
    _report(4, f"meshes up to 9x9, max-abs {worst:.2e}, depths {depths}")


def test_criterion_05_smolyak_rate():
    target = lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y)
    hx, hy = np.linspace(0, 1, 97), np.linspace(0, 1, 89)
    HX, HY = np.meshgrid(hx, hy)

    def trap(x):
        out = np.zeros_like(x)
        d = np.diff(x)
        out[:-1] += d / 2
        out[1:] += d / 2
        return out

    wq = np.outer(trap(hy), trap(hx))
    pts = np.column_stack([HX.ravel(), HY.ravel()])
    t0 = time.perf_counter()
    errs, s_levels = [], []
    for L in range(2, 8):
        fit = smolyak_fit(target, AnisotropyConfig(1, 1, L),
                          ((0.0, 1.0), (0.0, 1.0)))
        diff = fit.evaluate(pts).reshape(HX.shape) - target(HX, HY)
        errs.append(float(np.sqrt(np.sum(diff**2 * wq))))
        s_levels.append(2.0**L)
    wall = time.perf_counter() - t0
    slope = float(np.polyfit(np.log(s_levels), np.log(errs), 1)[0])
    assert -2.5 <= slope <= -1.5
    assert wall < 120.0
    _report(5, f"slope {slope:.3f} over L=2..7, {wall:.1f}s")


def test_criterion_06_fd_rates_and_dupire():
    errs_k, hs_k = [], []
    for nk in (21, 41, 81):
        g = Grid2D(np.linspace(80, 120, nk), np.linspace(0.1, 1.1, 11))
        w = vega_bump_weight(g, 100.0)
        K, T = np.meshgrid(g.strikes, g.maturities)
        c_kk, _ = fd_derivatives(bs_call(100.0, K, T, 0.2), g)
        errs_k.append(weighted_norm(c_kk - bs_gamma_K(100.0, K, T, 0.2), w, g))
        hs_k.append(g.h_K)
    slope_k = float(np.polyfit(np.log(hs_k), np.log(errs_k), 1)[0])
    assert 1.7 <= slope_k <= 2.3

    errs_t, hs_t = [], []
    for nt in (11, 21, 41):
        g = Grid2D(np.linspace(80, 120, 41), np.linspace(0.1, 1.1, nt))
        w = vega_bump_weight(g, 100.0)
        K, T = np.meshgrid(g.strikes, g.maturities)
        _, c_tau = fd_derivatives(bs_call(100.0, K, T, 0.2), g)
        errs_t.append(weighted_norm(c_tau - bs_theta_tau(100.0, K, T, 0.2), w, g))
        hs_t.append(g.h_tau)
    slope_t = float(np.polyfit(np.log(hs_t), np.log(errs_t), 1)[0])
    assert 0.7 <= slope_t <= 1.3

    g = Grid2D(np.linspace(80, 120, 41), np.linspace(0.1, 1.1, 21))
    K, T = np.meshgrid(g.strikes, g.maturities)
    fld = dupire_field(bs_call(100.0, K, T, 0.2), g)
    interior = (K >= 90) & (K <= 110) & (T >= 0.3)
    dev = float(np.max(np.abs(fld.sigma2[interior] - 0.04)))
    assert dev <= 0.01
    _report(6, f"order(K)={slope_k:.2f}, order(tau)={slope_t:.2f}, "
               f"dupire interior dev {dev:.4f}")


def test_criterion_07_bridge_oracle_and_entropic_bias():
    t0 = time.perf_counter()
    x = np.array([0.0, 1.0])
    prob = TriMarginalProblem(x, np.array([0.6, 0.4]), np.array([0.5, 0.5]),
                              np.array([0.4, 0.6]), epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    state, _ = tri_sinkhorn(prob, kern, tol=1e-11, t_max=3000)
    val, Pi = oracle_primal(prob, 1.0)
    P12, P23 = coupling_pairwise(state, prob, kern)
    value_gap = abs(primal_value(state, prob, kern) - val)
    marg_gap = max(float(np.max(np.abs(P12 - Pi.sum(axis=2)))),
                   float(np.max(np.abs(P23 - Pi.sum(axis=0)))))
    assert value_gap <= 1e-4
    assert marg_gap <= 1e-4

    prob0 = make_problem()
    ot0 = oracle_ot0(prob0)
    biases = []
    for eps in (1.0, 0.3, 0.1):
        p = make_problem(eps=(eps,))
        k = build_bridge(p)
        s, _ = tri_sinkhorn(p, k, tol=1e-11, t_max=5000)
        bias = primal_value(s, p, k) - ot0
        biases.append(bias)
        assert -1e-8 <= bias <= ENTROPIC_BIAS_C1 * eps
    wall = time.perf_counter() - t0
    assert wall < 10.0
    _report(7, f"oracle gaps value={value_gap:.1e} marg={marg_gap:.1e}, "
               f"biases {[f'{b:.3f}' for b in biases]}, {wall:.1f}s")


def test_criterion_08_bridge_certificates_synthetic():
    t0 = time.perf_counter()
    x = np.linspace(0.8, 1.2, 31)

    def density(tau, sig=0.2):
        mu = -0.5 * sig**2 * tau
        pdf = np.exp(-(np.log(x) - mu) ** 2 / (2 * sig**2 * tau)) / x
        m = pdf * np.gradient(x)
        return m / m.sum()

    prob = TriMarginalProblem(x, density(0.4), density(0.5), density(0.6),
                              epsilon_schedule=(1.0, 0.3, 0.1, 0.03),
                              feature_kind="nystrom", rank=8)
    state, certs = tri_sinkhorn(prob, tol=5e-3)
    wall = time.perf_counter() - t0
    assert certs.kkt <= 0.24
    assert certs.r_geo <= 1.05
    assert 1e-4 <= certs.mu_hat <= 1e-1
    assert wall < 120.0
    _report(8, f"KKT={certs.kkt:.2e}, r_geo={certs.r_geo:.4f}, "
               f"mu_hat={certs.mu_hat:.2e}, {wall:.1f}s")


def test_criterion_09_shadow_price():
    base_shift, delta = 0.05, 1e-3
    prob = make_problem(eps=(0.5,), martingale_shift=base_shift)
    kern = build_bridge(prob)
    state0, _ = tri_sinkhorn(prob, kern, tol=1e-11, t_max=5000,
                             update_middle=False)
    V0, eta0 = dual_value(state0, prob, kern), state0.eta
    worst = 0.0
    for sgn in (1.0, -1.0):
        p = make_problem(eps=(0.5,), martingale_shift=base_shift + sgn * delta)
        k = build_bridge(p)
        s, _ = tri_sinkhorn(p, k, tol=1e-11, t_max=5000, update_middle=False)
        err = abs(dual_value(s, p, k) - V0 - eta0 * sgn * delta)
        worst = max(worst, err)
        assert err <= 0.1 * abs(eta0 * delta) + 1e-8
    _report(9, f"eta={eta0:.4f}, worst envelope error {worst:.2e}")


def test_criterion_10_mmd_statistics():
    k1 = KernelMixture((("gaussian", 1.0, 0.0),), (1.0,))
    hand = 1 + 1 - 2 * np.exp(-0.5)
    got = mmd2(np.array([0.0, 0.0]), np.array([1.0, 1.0]), k1)
    assert abs(got - hand) <= 1e-9

    rng = np.random.default_rng(42)
    vals = np.empty(2000)
    for i in range(2000):
        vals[i] = mmd2(rng.standard_normal(16), rng.standard_normal(16), k1)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) <= 3 * se
    _report(10, f"hand gap {abs(got-hand):.1e}, null mean {vals.mean():.2e} "
                f"(3se={3*se:.2e})")


def test_criterion_11_gate_v2():
    S = 30
    flat = ChainSeries(np.arange(1.0, S + 1), np.full(S, 0.4),
                       np.arange(1.0, S + 1))
    assert gate_v2(flat).passed

    lin = ChainSeries(np.arange(1.0, S + 1), np.arange(1.0, S + 1),
                      np.arange(1.0, S + 1))
    d_lin = gate_v2(lin, envelope_direction="nondecreasing")
    assert not d_lin.passed
    assert abs(d_lin.slope_tail) > 0.12

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

    h = fir_smoother()
    j = np.arange(-6, 7).astype(float)
    for r in range(6):
        assert np.sum(h * j**r) == pytest.approx(1.0 if r == 0 else 0.0,
                                                 abs=1e-12)
    l1 = float(np.abs(h).sum())
    assert l1 <= 120.0
    _report(11, f"flat PASS, linear FAIL (slope {d_lin.slope_tail:.2f}), "
                f"decaying slope {d.slope_tail:.2e} within band "
                f"{d.band_slope:.2e}, ||h||_1={l1:.3f}")


def test_criterion_12_chain_decay():
    t0 = time.perf_counter()
    fitted = []
    for scale in (0.5, 1.0, 2.0):
        g = path_laplacian(3, [scale, scale])
        curves = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x0 = rng.standard_normal(3)
            cfg = DescentConfig(lambda_chain=1.0, noise_sigma=0.01,
                                steps=500, eta0=0.05)
            traj, _ = projected_descent(x0, None, g, None, cfg, seed=seed)
            curves.append([r["chain_energy"] for r in traj])
        mean_curve = np.mean(curves, axis=0)
        slope = float(np.polyfit(np.arange(mean_curve.size),
                                 np.log(mean_curve + 1e-300), 1)[0])
        assert slope < 0
        fitted.append(-float(np.polyfit(np.arange(60),
                                        np.log(mean_curve[:60]), 1)[0]))
    assert fitted[0] < fitted[1] < fitted[2]

    g = path_laplacian(3, [1.0, 1.0])
    traj, _ = projected_descent(np.array([2.0, -1.0, 0.5]), None, g, None,
                                DescentConfig(noise_sigma=0.0, steps=300,
                                              eta0=0.2), seed=0)
    es = [r["chain_energy"] for r in traj]
    assert all(b <= a + 1e-15 for a, b in zip(es, es[1:]))
    wall = time.perf_counter() - t0
    assert wall < 120.0
    _report(12, f"contractions {[f'{f:.4f}' for f in fitted]} increasing in "
                f"lambda2, noiseless monotone, {wall:.1f}s")


def test_criterion_13_risk_bound(reference_pipeline):
    summary, _, _ = reference_pipeline
    risk = summary["Risk"]
    assert risk["bound_holds"]
    assert risk["measured_dimensionless"] <= risk["total"] * (1 + 1e-12)
    assert np.log(risk["total"]) == pytest.approx(sum(risk["log_terms"]),
                                                  abs=1e-12)
    _report(13, f"measured {risk['measured_dimensionless']:.4f} <= "
                f"total {risk['total']:.4f}, log identity holds")


def test_criterion_14_end_to_end_determinism(reference_pipeline):
    summary, status, wall1 = reference_pipeline
    assert status == 0
    assert summary["all_pass"]
    t0 = time.perf_counter()
    summary2, status2 = run_pipeline()
    wall2 = time.perf_counter() - t0
    assert (summary_to_json(strip_meta(summary)).encode()
            == summary_to_json(strip_meta(summary2)).encode())
    assert status2 == 0
    assert wall1 + wall2 < 600.0
    _report(14, f"byte-identical summaries, all gates PASS, "
                f"{wall1 + wall2:.1f}s total")
