import numpy as np
import pytest
from scipy.optimize import linprog, minimize
from scipy.special import logsumexp

from arbsurf.bridge import (GRAM_RIDGE, BridgeState, TriMarginalProblem,
                            _logsumexp,
                            build_bridge, certify, coupling_pairwise,
                            dual_value, kkt_residual, primal_value,
                            tri_sinkhorn)

# frozen once from the development run of the n=3 oracle problem below:
# max over eps in {1, 0.3, 0.1} of (OT_eps - OT_0)/eps was 1.113
ENTROPIC_BIAS_C1 = 1.6


def make_problem(eps=(1.0,), **kw):
    x = np.array([0.0, 0.5, 1.0])
    m1 = np.array([0.5, 0.3, 0.2])
    m3 = np.array([0.2, 0.3, 0.5])
    m2 = np.array([0.3, 0.4, 0.3])      # mean consistent with (m1+m3)/2
    return TriMarginalProblem(x, m1, m2, m3, epsilon_schedule=eps, **kw)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_primal(problem, eps, tol=1e-14):
    """Constrained minimization of the entropic primal over the full tensor."""
    n = problem.n
    c = problem.cost_matrix()
    C = c[:, :, None] + c[None, :, :]
    ref = (problem.m1[:, None, None] * problem.m2[None, :, None]
           * problem.m3[None, None, :])

    def obj(p):
        Pi = np.maximum(p.reshape(n, n, n), 1e-300)
        return float(np.sum(Pi * C) + eps * np.sum(Pi * np.log(Pi / ref)))

    def jac(p):
        Pi = np.maximum(p.reshape(n, n, n), 1e-300)
        return (C + eps * (np.log(Pi / ref) + 1.0)).ravel()

    A_eq, b_eq = _constraints(problem)
    U, S, Vt = np.linalg.svd(A_eq, full_matrices=False)
    r = int((S > 1e-10 * S[0]).sum())
    A_red, b_red = U[:, :r].T @ A_eq, U[:, :r].T @ b_eq
    res = minimize(obj, ref.ravel(), jac=jac,
                   constraints=[{"type": "eq", "fun": lambda p: A_red @ p - b_red,
                                 "jac": lambda p: A_red}],
                   bounds=[(1e-12, 1.0)] * n**3, method="SLSQP",
                   options={"maxiter": 3000, "ftol": tol})
    assert res.success, res.message
    return res.fun, res.x.reshape(n, n, n)


def _constraints(problem):
    n = problem.n
    A, b = [], []
    for i in range(n):
        E = np.zeros((n, n, n)); E[i] = 1
        A.append(E.ravel()); b.append(problem.m1[i])
        E = np.zeros((n, n, n)); E[:, i, :] = 1
        A.append(E.ravel()); b.append(problem.m2[i])
        E = np.zeros((n, n, n)); E[:, :, i] = 1
        A.append(E.ravel()); b.append(problem.m3[i])
    E = np.broadcast_to(problem.x[None, :, None], (n, n, n)).copy()
    A.append(E.ravel()); b.append(problem.martingale_rhs())
    return np.asarray(A), np.asarray(b)


def oracle_ot0(problem):
    """Unregularized value by linear programming."""
    n = problem.n
    c = problem.cost_matrix()
    C = (c[:, :, None] + c[None, :, :]).ravel()
    A_eq, b_eq = _constraints(problem)
    res = linprog(C, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


# ---------------------------------------------------------------------------
# problem and kernel construction
# ---------------------------------------------------------------------------

def test_problem_validation():
    x = np.array([0.0, 1.0])
    u = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        TriMarginalProblem(x, u, u, np.array([0.6, 0.5]))
    for eps in ((0.1, 0.3), ()):
        with pytest.raises(ValueError, match="epsilon_schedule"):
            TriMarginalProblem(x, u, u, u, epsilon_schedule=eps)
    with pytest.raises(ValueError):
        TriMarginalProblem(x, u, u, u, rank=5)
    for rank in (0, -2):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            TriMarginalProblem(x, u, u, u, rank=rank)
    with pytest.raises(ValueError):
        TriMarginalProblem(np.array([1.0, 0.5]), u, u, u)


def test_feature_kind_is_dense_or_nystrom():
    x = np.array([0.0, 1.0])
    u = np.array([0.5, 0.5])
    for kind in ("dense", "nystrom"):
        TriMarginalProblem(x, u, u, u, feature_kind=kind)
    with pytest.raises(ValueError, match="dense or nystrom"):
        TriMarginalProblem(x, u, u, u, feature_kind="rff")


def test_zero_cost_kernel_all_ones_and_whitening():
    x = np.linspace(0, 1, 8)
    u = np.full(8, 1.0 / 8)
    zero = np.zeros((8, 8))
    prob = TriMarginalProblem(x, u, u, u, cost=zero,
                              epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    np.testing.assert_allclose(np.exp(kern.final.logK), 1.0, atol=1e-12)
    # the all-ones kernel has rank one: its whitened factor is the unit
    # constant vector, an identity Gram
    assert kern.phi2.shape == (8, 1)
    np.testing.assert_allclose(np.abs(kern.phi2), 1.0 / np.sqrt(8), atol=1e-12)
    np.testing.assert_allclose(kern.phi2.T @ kern.phi2, np.eye(1), atol=1e-12)


def test_nystrom_full_rank_is_exact():
    x = np.linspace(0, 1, 16)
    u = np.full(16, 1.0 / 16)
    prob = TriMarginalProblem(x, u, u, u, feature_kind="nystrom", rank=16,
                              epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    assert kern.delta <= 1e-10


def test_nystrom_delta_matches_svd_tail_oracle():
    x = np.linspace(0, 1, 64)
    u = np.full(64, 1.0 / 64)
    prob = TriMarginalProblem(x, u, u, u, feature_kind="nystrom", rank=8,
                              epsilon_schedule=(0.05,))
    kern = build_bridge(prob)
    K = np.exp(-(x[:, None] - x[None, :]) ** 2 / 0.05)
    tail = np.linalg.svd(K, compute_uv=False)[8]
    assert tail / 3.0 <= kern.delta <= tail * 3.0


def test_rank_exceeds_grid_raises():
    x = np.linspace(0, 1, 4)
    u = np.full(4, 0.25)
    with pytest.raises(ValueError):
        TriMarginalProblem(x, u, u, u, rank=8)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_fewer_than_two_atoms_rejected():
    one = np.array([1.0])
    with pytest.raises(ValueError, match="at least 2 atoms"):
        TriMarginalProblem(one, one, one, one, epsilon_schedule=(1.0,))
    empty = np.array([])
    with pytest.raises(ValueError, match="at least 2 atoms"):
        TriMarginalProblem(empty, empty, empty, empty)


def test_n2_zero_cost_product_coupling():
    x = np.array([0.0, 1.0])
    u = np.array([0.5, 0.5])
    zero = np.zeros((2, 2))
    prob = TriMarginalProblem(x, u, u, u, cost=zero,
                              epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    state, certs = tri_sinkhorn(prob, kern, tol=1e-12)
    P12, P23 = coupling_pairwise(state, prob, kern)
    np.testing.assert_allclose(P12, 0.25, atol=1e-9)
    np.testing.assert_allclose(P23, 0.25, atol=1e-9)
    assert certs.kkt <= 1e-12


def test_n2_matches_primal_oracle():
    x = np.array([0.0, 1.0])
    m1 = np.array([0.6, 0.4])
    m3 = np.array([0.4, 0.6])
    m2 = np.array([0.5, 0.5])
    prob = TriMarginalProblem(x, m1, m2, m3, epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    state, certs = tri_sinkhorn(prob, kern, tol=1e-11, t_max=3000)
    val, Pi = oracle_primal(prob, 1.0)
    assert abs(primal_value(state, prob, kern) - val) <= 1e-4
    P12, P23 = coupling_pairwise(state, prob, kern)
    assert np.max(np.abs(P12 - Pi.sum(axis=2))) <= 1e-4
    assert np.max(np.abs(P23 - Pi.sum(axis=0))) <= 1e-4
    assert certs.kkt <= 1e-11


def test_synthetic_run_certificate_bands():
    # lognormal-style marginals on a 31-point moneyness grid
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
    assert certs.kkt <= 0.24
    assert certs.r_geo <= 1.05
    assert 1e-4 <= certs.mu_hat <= 1e-1
    assert certs.converged


# ---------------------------------------------------------------------------
# kkt residual
# ---------------------------------------------------------------------------

def test_kkt_zero_for_exact_product():
    x = np.array([-1.0, 0.0, 1.0])
    m = np.array([0.25, 0.5, 0.25])      # symmetric, mean 0
    zero = np.zeros((3, 3))
    prob = TriMarginalProblem(x, m, m, m, cost=zero,
                              epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    state = BridgeState(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
    kkt, comps = kkt_residual(state, prob, kern)
    assert kkt <= 1e-12
    assert abs(comps[3]) <= 1e-12


def test_kkt_detects_perturbation():
    x = np.array([-1.0, 0.0, 1.0])
    m = np.array([0.25, 0.5, 0.25])
    zero = np.zeros((3, 3))
    prob = TriMarginalProblem(x, m, m, m, cost=zero,
                              epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    state = BridgeState(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
    base_kkt, base_comps = kkt_residual(state, prob, kern)
    state.log_u[1] += 1.0
    kkt, comps = kkt_residual(state, prob, kern)
    assert comps[0] > base_comps[0]
    assert kkt > 0


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_rgeo_from_exact_geometric_trace():
    prob = make_problem()
    kern = build_bridge(prob)
    state = BridgeState(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
    res = [0.5**t for t in range(30)]
    state.stage_traces = [[(r, r, r, r, r) for r in res]]
    state.residual_trace = state.stage_traces[0]
    certs = certify(state, prob, kern)
    assert certs.r_geo == pytest.approx(0.5, abs=1e-12)


def test_muhat_identity_features():
    n = 5
    x = np.linspace(0, 1, n)
    u = np.full(n, 1.0 / n)
    prob = TriMarginalProblem(x, u, u, u, epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    kern.phi2 = np.eye(n)
    state = BridgeState(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    state.stage_traces = [[(0.1,) * 5, (0.05,) * 5]]
    state.residual_trace = state.stage_traces[0]
    certs = certify(state, prob, kern)
    assert certs.mu_hat == pytest.approx(2.0 / n + GRAM_RIDGE, abs=1e-10)


def test_certify_trace_too_short():
    prob = make_problem()
    kern = build_bridge(prob)
    state = BridgeState(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
    state.stage_traces = [[(0.1,) * 5]]
    with pytest.raises(ValueError):
        certify(state, prob, kern)


def test_private_logsumexp_matches_scipy_special_bit_for_bit():
    rng = np.random.default_rng(13)
    for trial in range(300):
        r, c = rng.integers(1, 30, size=2)
        a = rng.standard_normal((r, c)) * rng.choice([1.0, 30.0, 700.0])
        a[rng.random((r, c)) < 0.2] = -np.inf
        if trial % 3 == 0:                  # a row and a column all -inf
            a[rng.integers(r)] = -np.inf
            a[:, rng.integers(c)] = -np.inf
        if trial % 4 == 0:                  # tied maxima
            a = np.round(a)
        for axis in (None, 0, 1):
            for keepdims in (False, True):
                got = _logsumexp(a, axis=axis, keepdims=keepdims)
                want = logsumexp(a, axis=axis, keepdims=keepdims)
                assert type(got) is type(want)
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
        got, want = _logsumexp(a[0]), logsumexp(a[0])
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# dual value and its uses
# ---------------------------------------------------------------------------

def test_dual_value_zero_potentials_closed_form():
    # at zero potentials the implied coupling is the reference, whose mass is
    # exactly 1 for a zero cost, so the reported dual is eps * (1 - mass) = 0;
    # with a nontrivial cost the mass is sum(ref * K), computable by hand
    x = np.array([0.0, 1.0])
    u = np.array([0.5, 0.5])
    zero = np.zeros((2, 2))
    prob = TriMarginalProblem(x, u, u, u, cost=zero,
                              epsilon_schedule=(1.0,))
    kern = build_bridge(prob)
    state = BridgeState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
    assert dual_value(state, prob, kern) == pytest.approx(0.0, abs=1e-12)

    prob2 = TriMarginalProblem(x, u, u, u, epsilon_schedule=(1.0,))
    kern2 = build_bridge(prob2)
    state2 = BridgeState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
    c = prob2.cost_matrix()
    C = c[:, :, None] + c[None, :, :]
    ref = 0.125 * np.ones((2, 2, 2))
    mass = float(np.sum(ref * np.exp(-C / 1.0)))
    assert dual_value(state2, prob2, kern2) == pytest.approx(1.0 * (1 - mass),
                                                             abs=1e-12)


def test_duality_gap_small_at_convergence():
    prob = make_problem(eps=(0.5,))
    kern = build_bridge(prob)
    tol = 1e-10
    state, certs = tri_sinkhorn(prob, kern, tol=tol, t_max=5000)
    dv = dual_value(state, prob, kern)
    pv = primal_value(state, prob, kern)
    assert dv <= pv + 10 * tol
    assert pv - dv <= 10 * tol + 1e-8


def test_dual_ascent_monotone(monkeypatch):
    # the dual value after every sweep, read where the sweep computes its
    # residual
    import arbsurf.bridge as bridge
    duals, residual = [], bridge._residual_tuple

    def spy(problem, st, state, *args):
        duals.append(dual_value(state, problem, None, st=st))
        return residual(problem, st, state, *args)

    monkeypatch.setattr(bridge, "_residual_tuple", spy)
    prob = make_problem(eps=(0.5,))
    state, _ = tri_sinkhorn(prob, tol=1e-10, t_max=2000)
    assert len(duals) > len(state.residual_trace) >= 12
    assert np.all(np.diff(duals) >= -1e-9)


# ---------------------------------------------------------------------------
# invariants from the theory
# ---------------------------------------------------------------------------

def test_entropic_bias_bounds():
    prob0 = make_problem()
    ot0 = oracle_ot0(prob0)
    for eps in (1.0, 0.3, 0.1):
        prob = make_problem(eps=(eps,))
        kern = build_bridge(prob)
        state, _ = tri_sinkhorn(prob, kern, tol=1e-11, t_max=5000)
        bias = primal_value(state, prob, kern) - ot0
        assert -1e-8 <= bias <= ENTROPIC_BIAS_C1 * eps


def test_shadow_price_sensitivity():
    base_shift = 0.05
    delta = 1e-3
    prob = make_problem(eps=(0.5,), martingale_shift=base_shift)
    kern = build_bridge(prob)
    state0, certs0 = tri_sinkhorn(prob, kern, tol=1e-11, t_max=5000,
                                  update_middle=False)
    # the free middle marginal is left out of kkt, not of its components:
    # its residual is far above tol while the run converges
    assert certs0.converged and certs0.kkt <= 1e-11 < certs0.kkt_components[1]
    assert certs0.kkt == max(certs0.kkt_components[i] for i in (0, 2, 3))
    V0 = dual_value(state0, prob, kern)
    eta0 = state0.eta
    for sgn in (1.0, -1.0):
        p = make_problem(eps=(0.5,), martingale_shift=base_shift + sgn * delta)
        k = build_bridge(p)
        s, certs = tri_sinkhorn(p, k, tol=1e-11, t_max=5000, update_middle=False)
        assert certs.converged == (certs.kkt <= 1e-11)
        dV = dual_value(s, p, k) - V0
        assert abs(dV - eta0 * sgn * delta) <= 0.1 * abs(eta0 * delta) + 1e-8


def test_convergence_failure_reports_instead_of_raising():
    # the martingale rhs is forced away from anything the marginals allow, so
    # no tolerance this tight is reachable; the solver must walk its fallback
    # ladder and report, never raise
    prob = make_problem(eps=(0.5, 0.2), martingale_shift=0.2)
    state, certs = tri_sinkhorn(prob, tol=1e-10, t_max=60)
    assert not certs.converged
    assert not state.converged
    assert len(certs.fallbacks_taken) >= 1
    assert set(certs.fallbacks_taken) <= {"marginal_rebalance",
                                          "damping_increase", "eps_backtrack"}
    assert certs.kkt > 1e-10
    assert len(state.residual_trace) >= 2
    assert np.all(np.isfinite(state.log_u))
    assert np.all(np.isfinite(state.log_v))
    assert np.all(np.isfinite(state.log_w))


def test_every_sweep_is_counted(monkeypatch):
    # each sweep makes one Newton step on eta, the eps-backtrack's sweeps at
    # the previous eps included; the final stage's trace, which r_geo reads,
    # holds only sweeps at the final eps
    import arbsurf.bridge as bridge
    sweeps, newton = [0], bridge._eta_newton

    def spy(*args):
        sweeps[0] += 1
        return newton(*args)

    monkeypatch.setattr(bridge, "_eta_newton", spy)
    prob = make_problem(eps=(0.5, 0.2), martingale_shift=0.2)
    state, certs = tri_sinkhorn(prob, tol=1e-10, t_max=60)
    assert "eps_backtrack" in certs.fallbacks_taken
    assert sweeps[0] == len(state.residual_trace) == certs.iterations
    assert len(state.residual_trace) > sum(map(len, state.stage_traces))


def test_state_scalings_finite_after_normal_run():
    prob = make_problem(eps=(1.0, 0.3))
    state, _ = tri_sinkhorn(prob, tol=1e-9, t_max=500)
    for arr in (state.log_u, state.log_v, state.log_w):
        assert np.all(np.isfinite(arr))
    assert np.isfinite(state.eta)


def test_warm_start_homotopy_kkt_monotone():
    x = np.linspace(0.8, 1.2, 21)

    def density(tau, sig=0.2):
        mu = -0.5 * sig**2 * tau
        pdf = np.exp(-(np.log(x) - mu) ** 2 / (2 * sig**2 * tau)) / x
        m = pdf * np.gradient(x)
        return m / m.sum()

    prob = TriMarginalProblem(x, density(0.4), density(0.5), density(0.6),
                              epsilon_schedule=(1.0, 0.3, 0.1))
    tol = 5e-3
    state, _ = tri_sinkhorn(prob, tol=tol)
    stage_end = [trace[-1][4] for trace in state.stage_traces]
    for prev, nxt in zip(stage_end, stage_end[1:]):
        assert nxt <= prev + tol


# ---------------------------------------------------------------------------
# the log-sum-exp memo
# ---------------------------------------------------------------------------

def _seeded_problem(seed, **kw):
    """Random marginals on 12 atoms; their means are not in convex order,
    so no tight tolerance is reachable."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.8, 1.2, 12)
    m1, m2, m3 = rng.dirichlet(np.ones(12), size=3)
    return TriMarginalProblem(x, m1, m2, m3, epsilon_schedule=(1.0, 0.3, 0.1),
                              **kw)


def _memo_free(monkeypatch):
    """Make every marginalization take its log-sum-exp afresh."""
    import arbsurf.bridge as bridge

    def lse(self, axis, vec):
        return _logsumexp(self.logK + (vec[None, :] if axis == 1 else vec[:, None]),
                          axis=axis)

    monkeypatch.setattr(bridge._LogMarginals, "_lse", lse)


@pytest.mark.parametrize("case", [
    dict(seed=1, kw={}, run={}),
    dict(seed=2, kw={"feature_kind": "nystrom", "rank": 8}, run={}),
    dict(seed=3, kw={}, run={"update_middle": False}),
    dict(seed=4, kw={}, run={"tol": 1e-9, "t_max": 60}),
])
def test_memo_run_equals_memo_free_run_bit_for_bit(case, monkeypatch):
    def solve():
        prob = _seeded_problem(case["seed"], **case["kw"])
        run = {"tol": 5e-3, **case["run"]}
        return tri_sinkhorn(prob, build_bridge(prob), **run)

    with_memo = solve()
    with monkeypatch.context() as m:
        _memo_free(m)
        without = solve()
    if case["run"].get("tol") == 1e-9:
        assert with_memo[1].fallbacks_taken == ("marginal_rebalance",
                                                "damping_increase", "eps_backtrack")
    (state, certs), (ref_state, ref_certs) = with_memo, without
    for name in ("log_u", "log_v", "log_w"):
        assert getattr(state, name).tobytes() == getattr(ref_state, name).tobytes()
    # repr writes every float so that it reads back to the same bits
    assert repr(state.eta) == repr(ref_state.eta)
    assert repr(state.residual_trace) == repr(ref_state.residual_trace)
    assert repr(state.stage_traces) == repr(ref_state.stage_traces)
    assert repr(certs) == repr(ref_certs)


def test_default_run_takes_five_log_sum_exps_per_sweep(monkeypatch):
    # a sweep's u, v and w updates, eta step and residual need five distinct
    # log-sum-exps, and a stage's first sweep two more for its u update; the
    # residuals after the loop need none
    import arbsurf.bridge as bridge
    from arbsurf.pipeline import PipelineContext
    calls = [0]

    def counting(*args, **kw):
        calls[0] += 1
        return _logsumexp(*args, **kw)

    ctx = PipelineContext()
    ctx.stage_generate()
    ctx.stage_fit()
    monkeypatch.setattr(bridge, "_logsumexp", counting)
    ctx.stage_bridge()
    sweeps = ctx.summary["C2"]["iterations"]
    assert (sweeps, ctx.summary["C2"]["fallbacks_taken"]) == (15, [])
    assert calls[0] == 5 * sweeps + 2 * 4 == 83   # 240 without the memo
