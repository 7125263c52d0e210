import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from arbsurf.chainstats import pav_isotonic
from arbsurf.fd import dkk_matrix, dtau_matrix
from arbsurf.grid import (Grid2D, Surface, WeightField, quadrature_matrix,
                          uniform_weight, vega_bump_weight, weighted_inner,
                          weighted_norm)
from arbsurf.projection import (ProjectionWarmStart, _second_difference_matrix,
                                feasibility_violation, project_to_cone,
                                projection_certificates)

from conftest import bs_call, traced_peak


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def nnls_cone_projection(y, omega, A):
    """Exact weighted projection onto {x: A x >= 0} through the dual NNLS.

    NNLS can return a wrong dual on degenerate problems; the output's own
    feasibility is asserted so that such a failure cannot pass as a
    reference value.
    """
    wv = omega.ravel()
    B = A.T / np.sqrt(wv)[:, None]
    mu, _ = nnls(B, -np.sqrt(wv) * y.ravel(), maxiter=50 * max(A.shape))
    out = y.ravel() + (A.T @ mu) / wv
    breach = -np.min(A @ out, initial=0.0)
    assert breach <= 1e-9 * (1.0 + np.max(np.abs(y))), \
        f"NNLS oracle returned an infeasible point (breach {breach:.3g})"
    return out.reshape(y.shape)


def full_cone_matrix(grid, shape, nonneg=True):
    n_tau, n_K = shape
    rows = []
    for j in range(n_K):
        for i in range(n_tau - 1):
            r = np.zeros(shape)
            r[i + 1, j] = 1.0
            r[i, j] = -1.0
            rows.append(r.ravel())
    A2 = _second_difference_matrix(grid.strikes)
    for i in range(n_tau):
        for q in range(A2.shape[0]):
            r = np.zeros(shape)
            r[i, :] = A2[q]
            rows.append(r.ravel())
    if nonneg:
        rows.extend(np.eye(n_tau * n_K))
    return np.asarray(rows)


def brute_force_monotone(seq, weights, n_grid=41):
    """Active-set-free oracle: minimize over all monotone block patterns."""
    # For length-3 problems the monotone projection is one of: identity,
    # pool(0,1), pool(1,2), pool(all); enumerate exactly.
    y = np.asarray(seq, float)
    w = np.asarray(weights, float)
    candidates = []
    def pooled(groups):
        out = np.empty_like(y)
        for g in groups:
            g = list(g)
            out[g] = np.average(y[g], weights=w[g])
        return out
    for groups in ([[0], [1], [2]], [[0, 1], [2]], [[0], [1, 2]], [[0, 1, 2]]):
        cand = pooled(groups)
        if np.all(np.diff(cand) >= -1e-12):
            candidates.append(cand)
    costs = [np.sum(w * (c - y) ** 2) for c in candidates]
    return candidates[int(np.argmin(costs))]


# ---------------------------------------------------------------------------
# PAV
# ---------------------------------------------------------------------------

def test_pav_fixed_point():
    y = np.array([1.0, 2.0, 2.0, 5.0])
    np.testing.assert_array_equal(pav_isotonic(y, np.ones(4)), y)


def test_pav_simple_case_matches_bruteforce():
    got = pav_isotonic([3.0, 1.0, 2.0], np.ones(3))
    oracle = brute_force_monotone([3.0, 1.0, 2.0], np.ones(3))
    np.testing.assert_allclose(got, oracle, atol=1e-12)
    np.testing.assert_allclose(got, [2.0, 2.0, 2.0])


def test_pav_weighted_feasible_unchanged():
    np.testing.assert_array_equal(pav_isotonic([0.0, 10.0], [1.0, 3.0]),
                                  [0.0, 10.0])


def test_pav_random_matches_bruteforce_length3():
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.standard_normal(3)
        w = np.abs(rng.standard_normal(3)) + 0.1
        np.testing.assert_allclose(pav_isotonic(y, w),
                                   brute_force_monotone(y, w), atol=1e-10)


def test_pav_empty_raises():
    with pytest.raises(ValueError):
        pav_isotonic([], [])


def test_pav_idempotent_and_mean_preserving():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = rng.standard_normal(9)
        w = np.abs(rng.standard_normal(9)) + 0.1
        p = pav_isotonic(y, w)
        np.testing.assert_allclose(pav_isotonic(p, w), p, atol=1e-12)
        assert np.average(p, weights=w) == pytest.approx(
            np.average(y, weights=w), abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_pav_nonexpansive_sup_norm(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 12)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    w = np.abs(rng.standard_normal(n)) + 0.1
    d_in = np.max(np.abs(u - v))
    d_out = np.max(np.abs(pav_isotonic(u, w) - pav_isotonic(v, w)))
    assert d_out <= d_in + 1e-10


def test_pav_nonincreasing_direction():
    got = pav_isotonic([1.0, 2.0, 0.0], np.ones(3), direction="nonincreasing")
    assert np.all(np.diff(got) <= 1e-12)


# ---------------------------------------------------------------------------
# the cone's operators
# ---------------------------------------------------------------------------

def test_cone_operators_match_dense_products():
    # S built densely: calendar differences, second differences and
    # first-maturity nonnegativity, each row over sqrt(omega) and
    # normalised, on a 5x7 grid with uneven strikes under weights spread
    # over a factor e^5; every product of the cone agrees with the dense
    # one to rounding of the terms it sums
    import arbsurf.projection as projection
    from tests_oracle_helpers import full_cone_matrix
    rng = np.random.default_rng(20261020)
    g = Grid2D(np.geomspace(80.0, 120.0, 7), np.linspace(0.1, 1.1, 5))
    omega = np.exp(rng.uniform(0.0, 5.0, g.shape)) * quadrature_matrix(g)
    cone = projection._Cone(g, omega)
    n = omega.size
    A = np.vstack([full_cone_matrix(g, nonneg=False), np.eye(n)[:g.shape[1]]])
    D = A / np.sqrt(omega.ravel())
    D /= np.linalg.norm(D, axis=1)[:, None]
    # the cone orders its rows for a banded Gram matrix: match them up
    gap = np.abs(cone.S.toarray()[:, None] - D[None]).max(axis=2)
    order = gap.argmin(axis=1)
    np.testing.assert_array_equal(np.sort(order), np.arange(cone.m))
    assert gap[np.arange(cone.m), order].max() <= 1e-15
    D = D[order]
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    lam = np.maximum(rng.standard_normal(cone.m), 0.0)

    def close(got, want, terms):
        assert np.all(np.abs(got - want) <= 1e-15 * terms)

    close(cone.values(v), D @ v, np.abs(D) @ np.abs(v))
    np.testing.assert_allclose(cone.rounding(v), np.abs(D) @ np.abs(v),
                               rtol=1e-15)
    close(cone.combine(lam), D.T @ lam, np.abs(D.T) @ lam)
    u, s, terms = cone.check(v, lam)
    spread = np.abs(v) + np.abs(D.T) @ lam
    close(u, v + D.T @ lam, spread)
    close(s, D @ u, terms)
    np.testing.assert_allclose(terms, np.abs(D) @ spread, rtol=1e-15)
    assert np.linalg.norm(spread) <= cone.spread_per_term * terms.max()


# ---------------------------------------------------------------------------
# project_to_cone
# ---------------------------------------------------------------------------

def test_feasible_surface_is_fixed_point(grid21x11, weight21x11, bs_surface_21x11):
    out = project_to_cone(Surface(bs_surface_21x11, grid21x11), weight21x11)
    assert np.max(np.abs(out.values - bs_surface_21x11)) <= 1e-10


def test_projection_always_feasible(grid21x11, weight21x11):
    rng = np.random.default_rng(3)
    for _ in range(10):
        C = rng.standard_normal(grid21x11.shape) * 3 + 20
        out = project_to_cone(C, weight21x11, grid=grid21x11)
        assert feasibility_violation(out.values, grid21x11) <= 1e-9


@pytest.mark.parametrize("n_strikes", [21, 31])
def test_nearly_feasible_degenerate_input(n_strikes):
    # An exact projection sits where many constraints meet, so the dual of
    # projecting it again is degenerate.  Nudged by at most 1e-8 it must come
    # back feasible and no farther from its input than the nudge, since the
    # distance to the cone is at most the distance to the projection.
    g = Grid2D(np.linspace(80.0, 120.0, n_strikes), np.linspace(0.1, 1.1, 11))
    w = vega_bump_weight(g, 100.0)
    K, T = np.meshgrid(g.strikes, g.maturities)
    base = bs_call(100.0, K, T, 0.2)
    rng = np.random.default_rng(12)
    for _ in range(10):
        noisy = base + 0.5 * rng.standard_normal(g.shape)
        exact = project_to_cone(noisy, w, grid=g).values
        nudged = exact + 1e-8 * rng.uniform(-1.0, 1.0, g.shape)
        out = project_to_cone(nudged, w, grid=g).values
        assert feasibility_violation(out, g) <= 1e-10
        assert (weighted_norm(out - nudged, w, g)
                <= weighted_norm(nudged - exact, w, g) * (1 + 1e-9))


def test_warm_start_does_not_change_the_result(grid21x11, weight21x11,
                                               bs_surface_21x11):
    g, w = grid21x11, weight21x11
    rng = np.random.default_rng(13)
    warm = ProjectionWarmStart()
    for _ in range(20):
        C = bs_surface_21x11 + 0.5 * rng.standard_normal(g.shape)
        cold = project_to_cone(C, w, grid=g).values
        hot = project_to_cone(C, w, grid=g, warm=warm).values
        assert np.max(np.abs(hot - cold)) <= 1e-10
    assert warm.active.size > 0


def _warm_sequences(g, w, base, rng):
    """Inputs of a descent-like sequence (small steps from a projected
    surface) and of a run of Lipschitz perturbation pairs."""
    descent = []
    x = project_to_cone(base + 0.5 * rng.standard_normal(g.shape), w,
                        grid=g).values
    for _ in range(40):
        x = x + 2e-3 * rng.standard_normal(g.shape)
        descent.append(x)
        x = project_to_cone(x, w, grid=g).values
    scale = 0.01 * weighted_norm(base, w, g)
    pairs = []
    for _ in range(40):
        d = rng.standard_normal(g.shape)
        pairs.append(base + d * (scale / weighted_norm(d, w, g)))
    return descent, pairs


def test_factor_reuse_is_bit_identical(grid21x11, weight21x11, bs_surface_21x11):
    g, w = grid21x11, weight21x11
    for inputs in _warm_sequences(g, w, bs_surface_21x11,
                                  np.random.default_rng(17)):
        reused, cleared = ProjectionWarmStart(), ProjectionWarmStart()
        for C in inputs:
            cleared.factor = None
            a = project_to_cone(C, w, grid=g, warm=reused).values
            b = project_to_cone(C, w, grid=g, warm=cleared).values
            np.testing.assert_array_equal(a, b)
        assert reused.calls == cleared.calls == len(inputs)
        assert reused.newton_steps == cleared.newton_steps
        assert 0 < reused.factor_reuses <= reused.newton_steps
        assert cleared.factor_reuses == 0


def test_warm_start_from_another_weight_or_grid_is_cold(
        grid21x11, weight21x11, bs_surface_21x11):
    # the bump breaches two coupled constraints, whatever the weight; the
    # first call ends on a Newton step over just those two, and so does the
    # second, so a factor kept from the first weight would be reused
    g = grid21x11
    C = bs_surface_21x11.copy()
    C[5, 4:6] += 0.2
    warm = ProjectionWarmStart()
    project_to_cone(C, weight21x11, grid=g, warm=warm)
    assert warm.active.size == 2 and warm.factor is not None
    r = np.random.default_rng(18).uniform(0.5, 2.0, g.shape)
    g15 = Grid2D(np.linspace(80.0, 120.0, 15), np.linspace(0.1, 1.1, 9))
    K, T = np.meshgrid(g15.strikes, g15.maturities)
    C15 = bs_call(100.0, K, T, 0.2) + 0.5 * np.random.default_rng(19).standard_normal(
        g15.shape)
    for grid, w, values in ((g, WeightField(r / r.mean()), C),
                            (g15, vega_bump_weight(g15, 100.0), C15)):
        cold = project_to_cone(values, w, grid=grid).values
        carried = project_to_cone(values, w, grid=grid, warm=warm).values
        np.testing.assert_array_equal(carried, cold)


def test_projection_refuses_a_result_that_fails_its_certificate(
        monkeypatch, grid21x11, weight21x11, bs_surface_21x11):
    # a dual solution that leaves the surface infeasible must raise, not
    # be returned
    import arbsurf.projection as projection

    def zero_multipliers(cone, v, b, warm):
        lam = np.zeros(cone.m)
        return lam, cone.check(v, lam)

    monkeypatch.setattr(projection, "_solve_dual", zero_multipliers)
    C = bs_surface_21x11 + np.random.default_rng(16).standard_normal(
        grid21x11.shape)
    with pytest.raises(RuntimeError, match="KKT certificate"):
        project_to_cone(C, weight21x11, grid=grid21x11)


def test_projection_rejects_non_finite_input(grid21x11, weight21x11):
    C = np.ones(grid21x11.shape)
    C[3, 4] = np.nan
    with pytest.raises(ValueError):
        project_to_cone(C, weight21x11, grid=grid21x11)


def test_dykstra_matches_qp_oracle_3x3():
    g = Grid2D(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
    w = uniform_weight(g)
    omega = w.w * quadrature_matrix(g)
    A = full_cone_matrix(g, g.shape)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        y = rng.standard_normal(g.shape) * 2 + 3
        got = project_to_cone(y, w, grid=g).values
        oracle = nnls_cone_projection(y, omega, A)
        worst = max(worst, weighted_norm(got - oracle, w, g))
    assert worst <= 1e-5


def test_nonexpansiveness_random_pairs(grid21x11, weight21x11, bs_surface_21x11):
    rng = np.random.default_rng(4)
    for _ in range(40):
        C1 = bs_surface_21x11 + 0.5 * rng.standard_normal(grid21x11.shape)
        C2 = bs_surface_21x11 + 0.5 * rng.standard_normal(grid21x11.shape)
        p1 = project_to_cone(C1, weight21x11, grid=grid21x11).values
        p2 = project_to_cone(C2, weight21x11, grid=grid21x11).values
        assert (weighted_norm(p1 - p2, weight21x11, grid21x11)
                <= weighted_norm(C1 - C2, weight21x11, grid21x11) + 1e-9)


def test_idempotence(grid21x11, weight21x11, bs_surface_21x11):
    rng = np.random.default_rng(5)
    C = bs_surface_21x11 + rng.standard_normal(grid21x11.shape)
    p1 = project_to_cone(C, weight21x11, grid=grid21x11).values
    p2 = project_to_cone(p1, weight21x11, grid=grid21x11).values
    assert np.max(np.abs(p2 - p1)) <= 1e-9


def test_firm_nonexpansiveness_dykstra():
    g = Grid2D(np.linspace(1, 2, 5), np.linspace(0.1, 0.4, 4))
    w = vega_bump_weight(g, 1.5)
    rng = np.random.default_rng(6)
    for _ in range(30):
        C1 = rng.standard_normal(g.shape)
        C2 = rng.standard_normal(g.shape)
        p1 = project_to_cone(C1, w, grid=g).values
        p2 = project_to_cone(C2, w, grid=g).values
        lhs = weighted_norm(p1 - p2, w, g) ** 2
        rhs = weighted_inner(p1 - p2, C1 - C2, w, g)
        assert lhs <= rhs + 1e-9


def test_operator_stability_transfer(grid21x11, weight21x11, bs_surface_21x11):
    # || D(PC) - D(PC') || <= ||D|| * ||C - C'|| with the weighted operator
    # norm of the assembled stencil matrices
    g, w = grid21x11, weight21x11
    omega = w.w * quadrature_matrix(g)
    SK = dkk_matrix(g.strikes, 5)
    ST = dtau_matrix(g.maturities, 3)
    D_full_K = np.kron(np.eye(g.maturities.size), SK)
    D_full_T = np.kron(ST, np.eye(g.strikes.size))
    ws = np.sqrt(omega.ravel())
    rng = np.random.default_rng(8)
    for D in (D_full_K, D_full_T):
        D_norm = np.linalg.norm((D * (1 / ws)[None, :]) * ws[:, None], 2)
        for _ in range(10):
            C1 = bs_surface_21x11 + 0.3 * rng.standard_normal(g.shape)
            C2 = bs_surface_21x11 + 0.3 * rng.standard_normal(g.shape)
            p1 = project_to_cone(C1, w, grid=g).values
            p2 = project_to_cone(C2, w, grid=g).values
            lhs = weighted_norm((D @ (p1 - p2).ravel()).reshape(g.shape), w, g)
            rhs = D_norm * weighted_norm(C1 - C2, w, g)
            assert lhs <= rhs + 1e-9


def test_pav_stage_preserves_column_mean(grid21x11, weight21x11):
    rng = np.random.default_rng(9)
    C = rng.standard_normal(grid21x11.shape)
    omega = weight21x11.w * quadrature_matrix(grid21x11)
    for j in range(0, 21, 5):
        p = pav_isotonic(C[:, j], omega[:, j])
        assert np.average(p, weights=omega[:, j]) == pytest.approx(
            np.average(C[:, j], weights=omega[:, j]), abs=1e-10)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_identity_region_ratio_one(grid21x11, weight21x11, bs_surface_21x11):
    # both perturbed surfaces stay feasible -> projection is the identity and
    # the ratio is exactly 1 (never above 1 + 1e-9)
    g, w = grid21x11, weight21x11
    rng = np.random.default_rng(10)
    base = bs_surface_21x11
    count = 0
    for _ in range(200):
        d1 = 1e-4 * rng.standard_normal(g.shape)
        d2 = 1e-4 * rng.standard_normal(g.shape)
        C1, C2 = base + d1, base + d2
        if (feasibility_violation(C1, g) > 0 or feasibility_violation(C2, g) > 0):
            continue
        p1 = project_to_cone(C1, w, grid=g).values
        p2 = project_to_cone(C2, w, grid=g).values
        ratio = (weighted_norm(p1 - p2, w, g)
                 / weighted_norm(d1 - d2, w, g))
        assert ratio <= 1 + 1e-9
        assert ratio == pytest.approx(1.0, abs=1e-9)
        count += 1
    assert count > 0


def test_certificates_on_synthetic_surface(grid21x11, weight21x11,
                                           bs_surface_21x11):
    rng = np.random.default_rng(11)
    noisy = bs_surface_21x11 + 0.25 * rng.standard_normal(grid21x11.shape)
    certs = projection_certificates(np.maximum(noisy, 0.0), weight21x11,
                                    trials=50, grid=grid21x11)
    assert certs.lip_emp <= 1.01
    assert certs.dup_tv_path.size == 9
    assert certs.dup_ok == bool(np.all(np.diff(certs.dup_tv_path) <= 1e-9))


def test_certificates_trials_validation(grid21x11, weight21x11):
    with pytest.raises(ValueError):
        projection_certificates(np.ones(grid21x11.shape), weight21x11,
                                grid=grid21x11, trials=0)


# ---------------------------------------------------------------------------
# projections of the Lipschitz pairs
# ---------------------------------------------------------------------------

def _record_projections(monkeypatch):
    """Record the input and output of every ``project_to_cone`` call the
    certificate makes, each once the call returns."""
    import arbsurf.projection as projection
    calls = []
    original = projection.project_to_cone

    def spy(C, w, grid=None, warm=None):
        out = original(C, w, grid=grid, warm=warm)
        calls.append((np.array(C), out.values))
        return out

    monkeypatch.setattr(projection, "project_to_cone", spy)
    return calls


def _assert_members_match_cold_projections(calls, w, g):
    """Every perturbed surface's projection (all calls but the base's)
    within 1e-12 of its cold projection, and feasible."""
    for x, got in calls[1:]:
        ref = project_to_cone(x, w, grid=g).values
        assert weighted_norm(got - ref, w, g) <= 1e-12 * weighted_norm(ref, w, g)
        assert feasibility_violation(got, g) <= 1e-10


def _serial_lipschitz(base, w, g, trials, rng_seed):
    """The audit's ratio from one cold projection per perturbed surface,
    over the same draws, and the smallest pair distance."""
    rng = np.random.default_rng(rng_seed)
    scale = 0.01 * weighted_norm(base, w, g)
    lip, delta = 0.0, np.inf
    for _ in range(trials):
        d1, d2 = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        d1 = d1 * (scale / weighted_norm(d1, w, g))
        d2 = d2 * (scale / weighted_norm(d2, w, g))
        p1 = project_to_cone(base + d1, w, grid=g).values
        p2 = project_to_cone(base + d2, w, grid=g).values
        lip = max(lip, weighted_norm(p1 - p2, w, g) / weighted_norm(d1 - d2, w, g))
        delta = min(delta, weighted_norm(d1 - d2, w, g))
    return lip, delta


@pytest.mark.parametrize("trials", [1, 11], ids=["one", "eleven"])
def test_stacked_members_match_single_projections(
        monkeypatch, trials, grid21x11, weight21x11, bs_surface_21x11):
    # each perturbed surface starts from the base projection's active set
    # and kept factor; its result must match a cold projection
    g, w = grid21x11, weight21x11
    base = np.maximum(bs_surface_21x11 + 0.25 * np.random.default_rng(20).standard_normal(
        g.shape), 0.0)
    calls = _record_projections(monkeypatch)
    certs = projection_certificates(base, w, trials=trials, rng_seed=3, grid=g)
    assert len(calls) == certs.projections["calls"] == 2 * trials + 1
    _assert_members_match_cold_projections(calls, w, g)
    lip, delta = _serial_lipschitz(base, w, g, trials, rng_seed=3)
    assert certs.lip_emp == pytest.approx(lip, rel=1e-12)
    assert certs.pair_distance_min == pytest.approx(delta, rel=1e-12)
    assert certs.lip_certified == (1.0 + 2.0 * certs.projections["error_max"]
                                   / certs.pair_distance_min)


def test_stacked_member_that_fails_its_certificate_raises(
        monkeypatch, grid21x11, weight21x11, bs_surface_21x11):
    # the first perturbed surface, not the base, is handed an all-zero dual;
    # it must raise, not be returned
    import arbsurf.projection as projection
    original, solves = projection._solve_dual, []

    def bad_member(cone, v, b, warm):
        solves.append(1)
        if len(solves) == 2:
            lam = np.zeros(cone.m)
            return lam, cone.check(v, lam)
        return original(cone, v, b, warm)

    monkeypatch.setattr(projection, "_solve_dual", bad_member)
    noisy = bs_surface_21x11 + 0.25 * np.random.default_rng(21).standard_normal(
        grid21x11.shape)
    with pytest.raises(RuntimeError, match="KKT certificate"):
        projection_certificates(np.maximum(noisy, 0.0), weight21x11, trials=8,
                                grid=grid21x11)
    assert len(solves) == 2


def test_stacked_member_whose_trial_stalls_takes_the_safeguard(
        monkeypatch, grid21x11, weight21x11, bs_surface_21x11):
    # Zeroed trial multipliers never lower the dual objective of the first
    # perturbed surface, so only the safeguard step, whose own solves are
    # left alone, moves it; it must still come back certified and equal to
    # its projection without the stall.
    import arbsurf.projection as projection
    g, w = grid21x11, weight21x11
    inside, steps, guarded = [], [], []
    newton, safeguard = projection._newton, projection._safeguard

    def stalled_newton(cone, b, W, warm):
        lam_W = newton(cone, b, W, warm)
        # calls holds the base's projection while the first perturbed
        # surface is solved
        if len(calls) == 1 and lam_W is not None and not inside:
            steps.append(1)
            lam_W = np.zeros_like(lam_W)
        return lam_W

    def spy_safeguard(cone, v, lam, warm):
        guarded.append(len(calls) == 1)
        inside.append(True)
        try:
            return safeguard(cone, v, lam, warm)
        finally:
            inside.pop()

    monkeypatch.setattr(projection, "_newton", stalled_newton)
    monkeypatch.setattr(projection, "_safeguard", spy_safeguard)
    calls = _record_projections(monkeypatch)
    noisy = bs_surface_21x11 + 0.25 * np.random.default_rng(22).standard_normal(g.shape)
    certs = projection_certificates(np.maximum(noisy, 0.0), w, trials=8, grid=g)
    # its first trial only moves the working set on, and every later one is
    # followed by a safeguard step
    assert len(steps) >= 2
    assert sum(guarded) >= len(steps) - 1
    assert certs.projections["safeguard_steps"] == len(guarded)
    monkeypatch.setattr(projection, "_newton", newton)
    _assert_members_match_cold_projections(calls, w, g)


def test_cold_projection_at_121x21_is_fast():
    # a cold projection of the default noisy market at 121x21 took 34 s
    # when cycling members went to a dense dual active-set method
    import time
    from arbsurf.pipeline import PipelineContext
    ctx = PipelineContext({"grid": {"n_strikes": 121, "n_maturities": 21}})
    ctx.stage_generate()
    warm = ProjectionWarmStart()
    t0 = time.perf_counter()
    out = project_to_cone(ctx.art["noisy"], ctx.art["weight"], warm=warm)
    assert time.perf_counter() - t0 < 10.0
    assert feasibility_violation(out.values, ctx.art["grid"]) <= 1e-10
    assert warm.calls == 1


@pytest.mark.parametrize("case", [2, 21, 39])
def test_degenerate_cold_projection_certifies(case):
    # random 3N(0,1)+20 surfaces on 61 strikes under weights spread over a
    # factor e^5: at the projection more constraints are active than the
    # grid has nodes, so the dual has many solutions and the active-set
    # trials stall; the safeguard steps must still reach a certified point,
    # well before the step limit
    import arbsurf.projection as projection
    rng = np.random.default_rng(20261018)
    for _ in range(case + 1):
        nt = int(rng.integers(11, 16))
        g = Grid2D(np.linspace(80.0, 120.0, 61), np.linspace(0.1, 1.1, nt))
        w = np.exp(rng.uniform(0.0, 5.0, g.shape))
        w /= w.mean()
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        C = (3.0 * rng.standard_normal(g.shape) + 20.0) * scale
    warm = ProjectionWarmStart()
    x = project_to_cone(C, WeightField(w), grid=g, warm=warm).values
    assert feasibility_violation(x, g) <= 1e-10 * max(1.0, scale)
    assert warm.safeguard_steps >= 1
    assert warm.factor_reuses <= warm.newton_steps < projection._NEWTON_STEPS // 4


def test_certificate_peak_memory_stays_under_its_guard():
    # the C3 certificate of the default market audited over 200 pairs, one
    # perturbed surface at a time, peaks at 0.45 MB, as it does over 10
    # pairs: the peak is one projection's, mostly the candidate points of
    # a safeguard step's search, and does not grow with the pairs
    from arbsurf.pipeline import PipelineContext
    ctx = PipelineContext()
    ctx.stage_generate()
    noisy, w = ctx.art["noisy"], ctx.art["weight"]
    project_to_cone(noisy, w)  # the cone is cached, not counted below
    peak = traced_peak(projection_certificates, noisy, w, trials=200,
                       rng_seed=ctx._seed("lip-pairs"))
    assert peak <= 0.6e6


# ---------------------------------------------------------------------------
# the error bound of each projection, which the C3 gate reads
# ---------------------------------------------------------------------------

def _nonneg_row(cone, node):
    """The cone's row that keeps one first-maturity node nonnegative."""
    one = np.diff(cone.S.indptr) == 1
    return int(np.flatnonzero(one & (cone.S.indices[cone.S.indptr[:-1]] == node))[0])


def _bound_at(g, w, y, lam):
    """The point of multipliers lam (None: none) for input y, as the solver
    returns it, its error bound and the push t ||z|| along the interior
    direction that the bound adds outside its duality gap."""
    import arbsurf.projection as projection
    cone, _ = projection._cone(g, w.w * quadrature_matrix(g))
    if lam is None:
        lam = np.zeros(cone.m)
    u, s, terms = cone.check(cone.scale(np.asarray(y, float).ravel()), lam)
    t = ((max(0.0, -float(s.min())) + projection._ROUND * float(terms.max()))
         / cone.interior_min)
    x = np.maximum(u / cone.sqrt_omega, 0.0).reshape(g.shape)
    return x, projection._error_bound(cone, lam, s, terms), t * cone.interior_norm


def _stopped_early(g, w, y):
    """Two points of y's projection stopped before convergence, each with
    the error bound every certified projection carries (``_error_bound``):
    the point of the clipped multipliers of its first active-set trial, and
    that of half the solved multipliers, which breaches the active rows."""
    import arbsurf.projection as projection
    cone, _ = projection._cone(g, w.w * quadrature_matrix(g))
    v = cone.scale(np.asarray(y, float).ravel())
    b = cone.values(v)
    W = projection._breached(cone, b, cone.rounding(v)).nonzero()[0]
    first = np.zeros(cone.m)
    first[W] = projection._newton(cone, b, W, ProjectionWarmStart())
    solved, _ = projection._solve_dual(cone, v, b, ProjectionWarmStart())
    return [_bound_at(g, w, y, lam)[:2]
            for lam in (np.maximum(first, 0.0), 0.5 * solved)]


@pytest.mark.parametrize("n_strikes", [21, 31])
def test_error_bound_holds_against_the_oracle(n_strikes):
    # 20 seeded noisy surfaces per grid under weights spread over a factor
    # e^5.  The certified projection and the NNLS oracle agree to 1e-11 or
    # better, while e is 5e-6 to 3e-5, mostly the rounding allowance pushed
    # along the interior direction.  The oracle's accuracy, from its own
    # duality gap in the same form (nnls_projection_accuracy), is 1e-6 to
    # 7e-6, so the exact projection is within e + that of every point
    # checked.  At the points stopped before convergence the distance is
    # 0.8 to 100 and e is 1e4 to 1e7, mostly the push along the interior
    # direction; without that push the bound at half the solved multipliers
    # would be about 0
    from tests_oracle_helpers import nnls_projection_accuracy
    rng = np.random.default_rng(20261019 + n_strikes)
    g = Grid2D(np.linspace(80.0, 120.0, n_strikes), np.linspace(0.1, 1.1, 11))
    K, T = np.meshgrid(g.strikes, g.maturities)
    for _ in range(20):
        w = np.exp(rng.uniform(0.0, 5.0, g.shape))
        w = WeightField(w / w.mean())
        y = bs_call(100.0, K, T, 0.2) + 0.5 * rng.standard_normal(g.shape)
        warm = ProjectionWarmStart()
        x = project_to_cone(y, w, grid=g, warm=warm).values
        ref, accuracy = nnls_projection_accuracy(y, g, w)
        assert accuracy <= 1e-5
        assert 0.0 < weighted_norm(x - ref, w, g) <= warm.error_max <= 1e-4
        for early, e in _stopped_early(g, w, y):
            assert weighted_norm(early - ref, w, g) <= e


def test_error_bound_gap_term_covers_a_large_multiplier():
    # The last strike's first-maturity price of a Black-Scholes surface is
    # set on its bound 0, and the input y is that surface minus L along the
    # bound's row, so the surface is y's projection with multiplier L there.
    # The multipliers checked keep L - delta on that row and put b on the
    # at-the-money price's row: the point breaches by delta, and stands b
    # from the projection.  Its duality gap lam.s + t lam.Sz is nearly all
    # t lam.Sz (about 63, against lam.s = -0.8), and without that term the
    # bound, 0.06, would fall below the distance, 0.27.  L is chosen so that
    # lam.s = -b (slack + b) < 0
    import arbsurf.projection as projection
    from tests_oracle_helpers import nnls_cone_projection_full
    g = Grid2D(np.linspace(80.0, 120.0, 11), np.linspace(0.1, 1.1, 5))
    w = vega_bump_weight(g, 100.0)
    K, T = np.meshgrid(g.strikes, g.maturities)
    target = bs_call(100.0, K, T, 0.2)
    target[0, -1] = 0.0
    cone, _ = projection._cone(g, w.w * quadrature_matrix(g))
    bound_row, atm_row = _nonneg_row(cone, g.strikes.size - 1), _nonneg_row(cone, 5)
    slack = cone.values(cone.scale(target.ravel()))[atm_row]
    b = 0.1 * slack
    delta = 1e-4 * b
    L = delta + 2.0 * b * (slack + b) / delta
    v = cone.scale(target.ravel()) - L * cone.ST[:, [bound_row]].toarray().ravel()
    y = (v / cone.sqrt_omega).reshape(g.shape)
    ref = nnls_cone_projection_full(y, g, w)
    assert np.max(np.abs(ref - target)) <= 1e-12
    lam = np.zeros(cone.m)
    lam[bound_row], lam[atm_row] = L - delta, b
    x, e, shift = _bound_at(g, w, y, lam)
    distance = weighted_norm(x - ref, w, g)
    assert distance <= e
    assert distance == pytest.approx(b, rel=1e-6)
    assert 10 * distance <= e and 8 * shift <= distance


def test_error_bound_rounding_allowance_covers_the_unscaling():
    # A feasible input and no multipliers: the point is the input, scaled
    # by sqrt(omega) and back, which moves some prices by an ulp.  Its gap
    # and breach are 0, so the whole bound is the rounding allowance; the
    # oracle's projection is the input itself
    from tests_oracle_helpers import nnls_cone_projection_full
    rng = np.random.default_rng(5)
    g = Grid2D(np.linspace(80.0, 120.0, 11), np.linspace(0.1, 1.1, 5))
    w = np.exp(rng.uniform(0.0, 5.0, g.shape))
    w = WeightField(w / w.mean())
    K, T = np.meshgrid(g.strikes, g.maturities)
    y = bs_call(100.0, K, T, 0.2)
    ref = nnls_cone_projection_full(y, g, w)
    assert (ref == y).all()
    x, e, _ = _bound_at(g, w, y, None)
    distance = weighted_norm(x - ref, w, g)
    assert 0.0 < distance <= e <= 1e-9


def test_error_bound_holds_without_its_outer_push():
    # The bound adds the push t ||z|| once inside its duality gap and once
    # outside.  The outer one is slack: the Lagrangian at lam is 1-strongly
    # convex with minimiser u, and is at most the optimum at the projection
    # P(v), so ||u - P(v)||^2 <= 2 (optimum - dual) <= 2 gap.  Here, at the
    # noisy input itself (no multipliers), the push is all of the bound but
    # the rounding allowance, and the distance stays within the bound
    # without its outer push
    from tests_oracle_helpers import nnls_cone_projection_full
    rng = np.random.default_rng(7)
    g = Grid2D(np.linspace(80.0, 120.0, 11), np.linspace(0.1, 1.1, 5))
    w = vega_bump_weight(g, 100.0)
    K, T = np.meshgrid(g.strikes, g.maturities)
    y = bs_call(100.0, K, T, 0.2) + 0.5 * rng.standard_normal(g.shape)
    ref = nnls_cone_projection_full(y, g, w)
    x, e, shift = _bound_at(g, w, y, None)
    distance = weighted_norm(x - ref, w, g)
    assert e == pytest.approx(2.0 * shift, rel=1e-6)
    assert 0.0 < distance <= e - shift


def test_projection_stopped_early_fails_the_lipschitz_gate(monkeypatch):
    # negative control: the default market's projection stopped at its
    # first trial, put through the bound every certified projection
    # carries, fails C3_lip at the unchanged LIP_PASS against the default
    # audit's smallest pair distance; the certified projections pass it
    import arbsurf.projection as projection
    from arbsurf.pipeline import PipelineContext
    ctx = PipelineContext()
    for stage in ("generate", "fit", "project"):
        getattr(ctx, f"stage_{stage}")()
    c3 = ctx.summary["C3"]
    assert ctx.gates["C3_lip"] == {"value": c3["lip_certified"],
                                   "threshold": projection.LIP_PASS, "pass": True}
    assert c3["lip_emp"] <= c3["lip_certified"]
    (_, e), _ = _stopped_early(ctx.art["grid"], ctx.art["weight"],
                               ctx.art["noisy"].values)
    ratio = 1.0 + 2.0 * e / c3["pair_distance_min"]
    assert ratio > projection.LIP_PASS
    # that bound in place of the certified projections' fails the gate
    monkeypatch.setattr(projection, "_error_bound", lambda *args: e)
    ctx.stage_project()
    assert ctx.summary["C3"]["lip_certified"] == pytest.approx(ratio)
    assert ctx.gates["C3_lip"]["pass"] is False
