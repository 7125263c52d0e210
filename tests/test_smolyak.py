import numpy as np
import pytest

from arbsurf.smolyak import (AnisotropyConfig, build_index_set,
                             combination_coefficients, error_frontier,
                             smolyak_fit)
from tests_oracle_helpers import activated_nodes

UNIT = ((0.0, 1.0), (0.0, 1.0))


def _trap(x):
    out = np.zeros_like(x)
    d = np.diff(x)
    out[:-1] += d / 2
    out[1:] += d / 2
    return out


def _weighted_l2_error(fit, target, nx=97, ny=89, domain=UNIT):
    hx = np.linspace(domain[0][0], domain[0][1], nx)
    hy = np.linspace(domain[1][0], domain[1][1], ny)
    HX, HY = np.meshgrid(hx, hy)
    wq = np.outer(_trap(hy), _trap(hx))
    pts = np.column_stack([HX.ravel(), HY.ravel()])
    diff = fit.evaluate(pts).reshape(HX.shape) - target(HX, HY)
    return float(np.sqrt(np.sum(diff**2 * wq)))


def test_index_set_root_only():
    assert build_index_set(AnisotropyConfig(1, 1, 0)) == [(0, 0)]


def test_index_set_level2_isotropic():
    got = set(build_index_set(AnisotropyConfig(1, 1, 2)))
    assert got == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_index_set_exhaustive_lattice_oracle():
    for cfg in (AnisotropyConfig(1, 2, 4), AnisotropyConfig(3, 1, 5),
                AnisotropyConfig(2, 2, 6)):
        got = set(build_index_set(cfg))
        oracle = {(i, j) for i in range(50) for j in range(50)
                  if cfg.a_K * i + cfg.a_tau * j <= cfg.level_L + 1e-12}
        assert got == oracle


def test_index_set_nested():
    for L in range(0, 7):
        small = set(build_index_set(AnisotropyConfig(1, 2, L)))
        big = set(build_index_set(AnisotropyConfig(1, 2, L + 1)))
        assert small <= big


def test_isotropic_node_count_growth():
    # activated sparse nodes grow as 2^L * L within constant factors
    ratios = []
    for L in range(2, 9):
        n = activated_nodes(AnisotropyConfig(1, 1, L), UNIT).shape[0]
        ratios.append(n / (2.0**L * L))
    assert max(ratios) / min(ratios) < 4.0
    assert 0.5 < min(ratios) and max(ratios) < 4.0


def test_combination_coefficients_sum_to_one():
    for cfg in (AnisotropyConfig(1, 1, 4), AnisotropyConfig(1, 2, 5)):
        coeffs = combination_coefficients(build_index_set(cfg))
        assert sum(coeffs.values()) == 1


def test_affine_reproduction():
    fit = smolyak_fit(lambda X, Y: 2 * X + 3 * Y + 1, AnisotropyConfig(1, 1, 3),
                      UNIT)
    rng = np.random.default_rng(0)
    pts = rng.random((100, 2))
    got = fit.evaluate(pts)
    np.testing.assert_allclose(got, 2 * pts[:, 0] + 3 * pts[:, 1] + 1, atol=1e-12)


def test_interpolation_at_activated_nodes():
    target = lambda X, Y: np.sin(2.1 * X) * np.cos(1.3 * Y) + X
    cfg = AnisotropyConfig(1, 1, 4)
    fit = smolyak_fit(target, cfg, UNIT)
    nodes = activated_nodes(cfg, UNIT)
    got = fit.evaluate(nodes)
    np.testing.assert_allclose(got, target(nodes[:, 0], nodes[:, 1]), atol=1e-12)


def test_nonfinite_target_raises():
    def bad(X, Y):
        out = np.asarray(X, dtype=float).copy()
        out[np.asarray(X) > 0.9] = np.nan
        return out
    with pytest.raises(ValueError):
        smolyak_fit(bad, AnisotropyConfig(1, 1, 3), UNIT)


def test_sin_sin_rate():
    target = lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y)
    errs, s_levels = [], []
    for L in range(2, 8):
        fit = smolyak_fit(target, AnisotropyConfig(1, 1, L), UNIT)
        errs.append(_weighted_l2_error(fit, target))
        s_levels.append(2.0**L)
    slope = np.polyfit(np.log(s_levels), np.log(errs), 1)[0]
    assert -2.5 <= slope <= -1.5


def test_frontier_affine_target():
    rows = error_frontier(lambda X, Y: X - 0.5 * Y + 2.0, [1, 2, 3],
                          AnisotropyConfig(1, 1, 1), UNIT, compile_nets=False)
    assert all(r["weighted_error"] <= 1e-12 for r in rows)


def test_frontier_levels_must_ascend():
    with pytest.raises(ValueError):
        error_frontier(lambda X, Y: X, [3, 2], AnisotropyConfig(1, 1, 1), UNIT)


def test_frontier_sin_sin_slope_and_counts():
    target = lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y)
    rows = error_frontier(target, [2, 3, 4, 5], AnisotropyConfig(1, 1, 2),
                          UNIT, compile_nets=True)
    counts = [r["node_count"] for r in rows]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    errs = [r["weighted_error"] for r in rows]
    slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
    assert -1.5 <= slope <= -0.5          # ~ -beta_bar
    assert all(r["param_count"] > 0 for r in rows)
    env = [r["error_envelope"] for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(env, env[1:]))
