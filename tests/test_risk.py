import numpy as np
import pytest

from arbsurf.grid import Grid2D, Surface, uniform_weight
from arbsurf.projection import project_to_cone
from arbsurf.risk import assemble_risk, eps_prox


def _inputs(**over):
    base = dict(c1_error=0.0, c1_stat=0.0, erm_term=0.0, kkt=0.0, r_geo=0.0,
                T=10, mu_hat=0.01, eps=0.0, delta_mr=0.0, chain_energy=0.0,
                tol_band=0.0, lambda2=1.0, slope_plus=0.0, area_minus=0.0,
                eps_prox=0.0)
    base.update(over)
    return base


def test_perfect_pipeline_total_one():
    budget = assemble_risk(_inputs())
    assert budget.total == 1.0
    assert all(f == 1.0 for f in budget.factors)
    assert all(t == 0.0 for t in budget.log_terms)


def test_log_identity_random_factors():
    rng = np.random.default_rng(0)
    for _ in range(50):
        budget = assemble_risk(_inputs(
            c1_error=rng.random(), erm_term=rng.random(), kkt=rng.random(),
            r_geo=rng.random(), mu_hat=rng.random() + 0.01,
            eps=rng.random() * 0.1, delta_mr=rng.random() * 0.1,
            chain_energy=rng.random(), tol_band=rng.random() * 0.1,
            lambda2=rng.random() + 0.1, slope_plus=rng.random() * 0.01,
            area_minus=rng.random() * 0.01, eps_prox=rng.random()))
        assert np.log(budget.total) == pytest.approx(sum(budget.log_terms),
                                                     abs=1e-12)


def test_bridge_factor_hand_value():
    # (kkt + r_geo^T)/mu_hat + (eps + delta): every bound constant is 1
    budget = assemble_risk(_inputs(kkt=0.24, r_geo=0.9, T=50, mu_hat=0.01,
                                   eps=0.03, delta_mr=0.01))
    expect = 1.0 + (0.24 + 0.9**50) / 0.01 + 1.0 * (0.03 + 0.01)
    assert budget.e_bridge == pytest.approx(expect, abs=1e-6)
    assert expect == pytest.approx(25.55537752073201, abs=1e-6)


def test_chain_factor_uses_min_of_both_forms():
    budget = assemble_risk(_inputs(chain_energy=10.0, tol_band=0.1,
                                   lambda2=2.0, slope_plus=0.02,
                                   area_minus=0.0))
    direct = 1.0 * (10.0 + 0.1)
    spectral = (1.0 / 2.0) * 0.02 + 0.1
    assert budget.chain_forms["direct"] == pytest.approx(direct)
    assert budget.chain_forms["spectral"] == pytest.approx(spectral)
    assert budget.e_chain == pytest.approx(1.0 + min(direct, spectral))


def test_total_monotone_in_inputs():
    rng = np.random.default_rng(1)
    base_kwargs = dict(c1_error=0.2, erm_term=0.1, kkt=0.05, r_geo=0.8, T=20,
                       mu_hat=0.02, eps=0.05, delta_mr=0.02, chain_energy=0.3,
                       tol_band=0.05, slope_plus=0.01, area_minus=0.01,
                       eps_prox=0.1)
    base = assemble_risk(_inputs(**base_kwargs)).total
    for key in ("c1_error", "erm_term", "kkt", "r_geo", "chain_energy",
                "eps_prox", "slope_plus", "eps", "delta_mr", "tol_band"):
        bumped = dict(base_kwargs)
        bumped[key] = bumped[key] + 0.05 * rng.random() + 0.01
        assert assemble_risk(_inputs(**bumped)).total >= base - 1e-12


def test_sum_vs_product_inequality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = np.abs(rng.standard_normal(rng.integers(1, 8)))
        assert 1 + a.sum() <= np.prod(1 + a) + 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        assemble_risk(_inputs(mu_hat=0.0))
    with pytest.raises(ValueError):
        assemble_risk(_inputs(lambda2=-1.0))
    with pytest.raises(ValueError):
        assemble_risk(_inputs(kkt=np.nan))
    with pytest.raises(ValueError):
        assemble_risk({"kkt": 1.0})


def test_eps_prox_feasible_is_zero():
    g = Grid2D(np.linspace(1, 2, 5), np.linspace(0.1, 0.5, 4))
    w = uniform_weight(g)
    K, _ = np.meshgrid(g.strikes, g.maturities)
    feasible = Surface(K**2, g)
    proj = project_to_cone(feasible, w)
    target = Surface(K**2 + 1.0, g)
    assert eps_prox(feasible, proj, target, w) == pytest.approx(0.0, abs=1e-12)


def test_eps_prox_zero_denominator_convention():
    g = Grid2D(np.linspace(1, 2, 5), np.linspace(0.1, 0.5, 4))
    w = uniform_weight(g)
    rng = np.random.default_rng(3)
    C = Surface(rng.random(g.shape) + 1.0, g)
    post = project_to_cone(C, w)
    assert eps_prox(C, post, C, w) == 0.0


def test_eps_prox_matches_hand_ratio_3x3():
    from tests_oracle_helpers import nnls_cone_projection_full
    g = Grid2D(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
    w = uniform_weight(g)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(g.shape) + 2.0
    proj = nnls_cone_projection_full(y, g, w)
    target = np.zeros(g.shape)
    from arbsurf.grid import weighted_norm
    hand = (weighted_norm(proj - y, w, g)
            / weighted_norm(y - target, w, g))
    got = eps_prox(y, proj, target, w, grid=g)
    assert got == pytest.approx(hand, abs=1e-8)
