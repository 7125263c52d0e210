import numpy as np
import pytest

from arbsurf.descent import (DescentConfig, PathGraph, chain_dirichlet_energy,
                             path_laplacian, projected_descent)


def test_two_node_eigenvalues():
    g = path_laplacian(2, [1.0])
    np.testing.assert_allclose(g.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_three_node_eigenvalues_match_dense_oracle():
    g = path_laplacian(3, [1.0, 1.0])
    oracle = np.linalg.eigvalsh(np.array([[1.0, -1.0, 0.0],
                                          [-1.0, 2.0, -1.0],
                                          [0.0, -1.0, 1.0]]))
    np.testing.assert_allclose(g.eigenvalues, oracle, atol=1e-12)
    assert g.lambda2 == pytest.approx(1.0)


def test_lambda2_scales_with_weights():
    base = path_laplacian(5, np.full(4, 1.0)).lambda2
    scaled = path_laplacian(5, np.full(4, 3.0)).lambda2
    assert scaled == pytest.approx(3.0 * base)


def test_laplacian_row_sums_and_psd():
    g = path_laplacian(6, np.linspace(0.5, 2.0, 5))
    np.testing.assert_allclose(g.laplacian.sum(axis=1), 0.0, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(g.laplacian)) >= -1e-12
    assert g.lambda2 > 0


def test_path_laplacian_validation():
    with pytest.raises(ValueError):
        path_laplacian(1, [])
    with pytest.raises(ValueError):
        path_laplacian(3, [1.0])
    with pytest.raises(ValueError):
        path_laplacian(3, [1.0, -1.0])


def test_energy_identical_states_zero():
    g = path_laplacian(4, np.ones(3))
    assert chain_dirichlet_energy(np.ones((4, 6)), g) == 0.0


def test_energy_hand_value():
    g = path_laplacian(3, [1.0, 1.0])
    assert chain_dirichlet_energy(np.array([0.0, 1.0, 0.0]), g) == pytest.approx(2.0)


def test_energy_constant_shift_invariant():
    g = path_laplacian(4, [0.5, 1.5, 1.0])
    rng = np.random.default_rng(0)
    states = rng.standard_normal((4, 3))
    e0 = chain_dirichlet_energy(states, g)
    e1 = chain_dirichlet_energy(states + 7.3, g)
    assert e1 == pytest.approx(e0, abs=1e-9)


def test_energy_edge_sum_equals_trace_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        T = rng.integers(2, 8)
        w = np.abs(rng.standard_normal(T - 1)) + 0.1
        g = path_laplacian(int(T), w)
        states = rng.standard_normal((T, 5))
        trace_form = float(np.trace(states.T @ g.laplacian @ states))
        edge_sum = chain_dirichlet_energy(states, g)
        assert abs(edge_sum - trace_form) <= 1e-10 * (1.0 + abs(edge_sum))


def test_path_graph_rejects_laplacian_that_disagrees_with_weights():
    g = path_laplacian(4, [0.5, 1.5, 1.0])
    PathGraph(T=4, edge_weights=g.edge_weights, laplacian=g.laplacian.copy(),
              lambda2=g.lambda2)
    states = np.array([0.0, 1.0, 3.0, 7.0])
    for w, L in ((g.edge_weights, 2.0 * g.laplacian),
                 (g.edge_weights[::-1].copy(), g.laplacian)):
        # the two forms of the energy differ on this graph ...
        assert (float(np.sum(w * np.diff(states) ** 2))
                != pytest.approx(float(states @ L @ states)))
        # ... so it cannot be built
        with pytest.raises(ValueError, match="disagree"):
            PathGraph(T=4, edge_weights=w, laplacian=L, lambda2=g.lambda2)
    with pytest.raises(ValueError):
        PathGraph(T=4, edge_weights=g.edge_weights[:2], laplacian=g.laplacian,
                  lambda2=g.lambda2)


def test_energy_length_mismatch():
    g = path_laplacian(3, [1.0, 1.0])
    with pytest.raises(ValueError):
        chain_dirichlet_energy(np.zeros((4, 2)), g)


def test_stationary_trajectory():
    g = path_laplacian(3, [1.0, 1.0])
    x0 = np.array([1.0, 2.0, 0.5])
    cfg = DescentConfig(lambda_chain=0.0, noise_sigma=0.0, steps=25)
    traj, final = projected_descent(x0, x0.copy(), g, None, cfg, seed=0)
    np.testing.assert_array_equal(final, x0)
    assert all(r["chain_energy"] == traj[0]["chain_energy"] for r in traj)


def test_noiseless_chain_descent_monotone():
    g = path_laplacian(3, [1.0, 1.0])
    cfg = DescentConfig(lambda_chain=1.0, noise_sigma=0.0, steps=400,
                        eta0=0.25)
    traj, _ = projected_descent(np.array([2.0, -1.0, 0.5]), None, g, None,
                                cfg, seed=0)
    es = [r["chain_energy"] for r in traj]
    assert all(b <= a + 1e-15 for a, b in zip(es, es[1:]))
    assert es[-1] < 1e-2 * es[0]


def test_deterministic_under_seed():
    g = path_laplacian(4, np.ones(3))
    cfg = DescentConfig(noise_sigma=0.05, steps=50)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((4, 3))
    t1, f1 = projected_descent(x0, None, g, None, cfg, seed=11)
    t2, f2 = projected_descent(x0, None, g, None, cfg, seed=11)
    np.testing.assert_array_equal(f1, f2)
    assert t1 == t2


def test_trust_region_rejects_energy_increases():
    g = path_laplacian(3, [1.0, 1.0])
    cfg = DescentConfig(noise_sigma=5.0, steps=200, eta0=0.2,
                        lambda_chain=1.0, trust_region_rel=1e-6)
    traj, _ = projected_descent(np.array([1.0, 0.0, -1.0]), None, g, None,
                                cfg, seed=3)
    es = np.asarray([r["chain_energy"] for r in traj])
    assert np.all(np.diff(es) <= es[:-1] * 1e-6 + 1e-12)
    assert not all(r["accepted"] for r in traj[1:])


def test_monte_carlo_decay_and_contraction_ordering():
    # mean chain energy decays, and the fitted contraction increases with the
    # spectral gap across lambda2 in {0.5, 1, 2}
    fitted = []
    for scale in (0.5, 1.0, 2.0):
        g = path_laplacian(3, [scale, scale])
        curves = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x0 = rng.standard_normal(3)
            cfg = DescentConfig(lambda_chain=1.0, noise_sigma=0.01,
                                steps=400, eta0=0.05)
            traj, _ = projected_descent(x0, None, g, None, cfg, seed=seed)
            curves.append([r["chain_energy"] for r in traj])
        mean_curve = np.mean(curves, axis=0)
        slope_all = np.polyfit(np.arange(mean_curve.size),
                               np.log(mean_curve + 1e-300), 1)[0]
        assert slope_all < 0
        fitted.append(-np.polyfit(np.arange(60), np.log(mean_curve[:60]), 1)[0])
    assert fitted[0] < fitted[1] < fitted[2]


def test_noise_floor_scales_with_sigma():
    g = path_laplacian(3, [1.0, 1.0])
    terminal = {}
    for sigma in (0.01, 0.03):
        finals = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x0 = 0.05 * rng.standard_normal(3)
            cfg = DescentConfig(lambda_chain=1.0, noise_sigma=sigma,
                                steps=3000, eta0=0.3,
                                trust_region_rel=np.inf)
            traj, _ = projected_descent(x0, None, g, None, cfg, seed=seed)
            finals.append(traj[-1]["chain_energy"])
        terminal[sigma] = np.mean(finals)
    ratio = terminal[0.03] / terminal[0.01]
    assert 0.9 <= ratio <= 90.0     # sigma^2 scaling within a factor of 10


def test_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(steps=0)
    with pytest.raises(ValueError):
        DescentConfig(noise_sigma=-1.0)
