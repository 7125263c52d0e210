"""Tri-marginal entropic optimal transport with a martingale constraint.

Log-domain three-block Sinkhorn scaling with an epsilon-annealing path,
adaptive damping, a safeguarded 1D Newton step on the martingale multiplier,
and the audit certificates (KKT residual, geometric tail ratio, whitened-Gram
strong-convexity proxy).  The entropy is taken against the product of the
marginals, so the coupling has the Gibbs form m1*m2*m3 * K * u v w with
log-scalings kept finite; all marginalizations stream through O(n^2)
log-sum-exp reductions, never a full 3-tensor.  The three marginals live on
one grid and both edges, X1-X2 and X2-X3, carry the same cost, so one Gibbs
kernel per epsilon serves both.

The log-sum-exp is a numpy port of ``scipy.special.logsumexp`` as of scipy
1.17 (same steps, so the same bits), which keeps ``scipy.special`` out of the
import and skips its array-API dispatch, most of the reduction's cost at
these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fd import weighted_operator_norm

__all__ = [
    "TriMarginalProblem",
    "BridgeKernels",
    "BridgeState",
    "CertificateSet",
    "build_bridge",
    "tri_sinkhorn",
    "kkt_residual",
    "certify",
    "dual_value",
    "primal_value",
    "coupling_pairwise",
]

MU_HAT_FLOOR = 1e-12
KKT_PASS = 0.24          # 4! * 10^-2
RGEO_PASS = 1.05
MUHAT_BAND = (1e-4, 1e-1)
# ridge on the whitened Gram matrix whose smallest eigenvalue is mu_hat
GRAM_RIDGE = 1e-8
# the damping factor of a Sinkhorn update adapts within these bounds
DAMPING_MIN = 0.1
DAMPING_MAX = 1.0
# iterations the final annealing stage runs at least, so that the r_geo
# certificate reads a tail of ratios
MIN_FINAL_ITERS = 12
# results a stage's log-sum-exp memo keeps, newest first: a sweep adds at
# most 5, and every result it reuses is among the 5 newest
LSE_MEMO_ENTRIES = 8


def _logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) over ``axis`` (None: all), as scipy 1.17 computes it.

    The maximal terms are taken out of the sum: with a_max the maximum, m the
    number of entries equal to it and s the sum of exp(a - a_max) over the
    rest, the result is log1p(s/m) + log(m) + a_max.  Where that is not
    finite (a slice all -inf, or one holding +inf or NaN) the direct
    log(sum(exp(a))) is taken instead.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis,
                   keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()]


@dataclass
class TriMarginalProblem:
    """Three marginals on a common coordinate grid of at least 2 atoms plus
    the cost of both edges; ``log_m`` holds the marginals' logs."""

    x: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    epsilon_schedule: tuple = (1.0, 0.3, 0.1, 0.03)
    cost: np.ndarray | None = None     # both edges' cost; None = squared distance
    rank: int | None = None
    feature_kind: str = "dense"
    martingale_shift: float = 0.0
    log_m: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("x must be a 1D coordinate grid of at least 2 atoms")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("x must be strictly increasing")
        for name in ("m1", "m2", "m3"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != self.x.shape:
                raise ValueError(f"{name} must match the grid size")
            if np.any(m < 0):
                raise ValueError(f"{name} must be nonnegative")
            if abs(m.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to 1")
            setattr(self, name, m)
        with np.errstate(divide="ignore"):
            self.log_m = tuple(np.log(m) for m in (self.m1, self.m2, self.m3))
        eps = np.asarray(self.epsilon_schedule, dtype=float)
        if eps.size == 0 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValueError("epsilon_schedule must be nonempty, strictly decreasing "
                             "and positive")
        self.epsilon_schedule = tuple(eps.tolist())
        if self.feature_kind not in ("dense", "nystrom"):
            raise ValueError("feature_kind must be dense or nystrom")
        if self.rank is not None and not 1 <= self.rank <= self.x.size:
            raise ValueError("rank must be at least 1 and at most the grid size")

    @property
    def n(self) -> int:
        return self.x.size

    def cost_matrix(self) -> np.ndarray:
        if self.cost is not None:
            return np.asarray(self.cost, dtype=float)
        return (self.x[:, None] - self.x[None, :]) ** 2

    def martingale_rhs(self) -> float:
        return float(0.5 * (self.x @ self.m1 + self.x @ self.m3)
                     + self.martingale_shift)


@dataclass
class StageKernels:
    """One annealing stage: its eps, its log-kernel (read-only) and the
    memo of its log-sum-exps that ``_LogMarginals`` reads and fills."""

    eps: float
    logK: np.ndarray
    lse_memo: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        self.logK.flags.writeable = False


@dataclass
class BridgeKernels:
    """Log-kernels of every annealing stage, in schedule order, and the final
    stage's whitened middle factor ``phi2`` (identity-diagonal Gram) and
    low-rank error proxy ``delta``, which the certificates read."""

    stages: list
    phi2: np.ndarray
    delta: float

    @property
    def final(self) -> StageKernels:
        return self.stages[-1]


def _whiten_factor(phi: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor ``U @ Vt`` of phi after clipping its
    singular values below 1e-10 of the largest: the whitened factor, with an
    identity-diagonal Gram."""
    U, s, Vt = np.linalg.svd(phi, full_matrices=False)
    keep = s >= 1e-10 * s[0]
    return U[:, keep] @ Vt[keep]


def build_bridge(problem: TriMarginalProblem) -> BridgeKernels:
    """The Gibbs kernel of each annealing stage, and the final stage's
    whitened factor and low-rank error proxy.

    Dense mode stores exact log-kernels -c/eps.  Nystrom mode (evenly spaced
    landmark columns) materializes the rank-limited kernel (memory stays
    O(n^2)), floors tiny or negative entries before the log, and records the
    operator-error proxy delta estimated by power iteration on the
    residual.
    """
    n = problem.n
    c = problem.cost_matrix()
    schedule = problem.epsilon_schedule
    if problem.feature_kind == "dense":
        stages = [StageKernels(eps, -c / eps) for eps in schedule]
        U, s, Vt = np.linalg.svd(np.exp(-c / schedule[-1]))
        keep = s >= 1e-10 * s[0]
        phi2 = _whiten_factor(Vt[keep].T * np.sqrt(s[keep]))
        return BridgeKernels(stages=stages, phi2=phi2, delta=0.0)
    rank = n if problem.rank is None else problem.rank
    idx = np.unique(np.linspace(0, n - 1, rank).round().astype(int))
    stages = []
    for eps in schedule:
        K = np.exp(-c / eps)
        lam, V = np.linalg.eigh(K[np.ix_(idx, idx)])
        lam = np.maximum(lam, 1e-12 * lam.max())
        phi = K[:, idx] @ V / np.sqrt(lam)[None, :]
        K_hat = phi @ phi.T
        stages.append(StageKernels(eps, np.log(np.maximum(K_hat, 1e-300))))
    # the loop leaves the final stage's kernel and factor
    delta = weighted_operator_norm(K - K_hat, np.ones(n), n_iter=120)
    return BridgeKernels(stages=stages, phi2=_whiten_factor(phi), delta=float(delta))


@dataclass
class BridgeState:
    """Log-domain dual scalings; log_v excludes the eta*x/eps tilt.

    ``residual_trace`` holds every sweep's residuals; ``stage_traces`` one
    list per annealing stage, which omits the eps-backtrack's sweeps at the
    previous eps.  ``enforced`` names the residual components (r1, r2, r3,
    martingale) the run drives to its tolerance, and so the ones its KKT
    residual is the max of: all four, or all but r2 when the middle
    marginal is left free."""

    log_u: np.ndarray
    log_v: np.ndarray
    log_w: np.ndarray
    eta: float
    residual_trace: list = field(default_factory=list)
    stage_traces: list = field(default_factory=list)
    damping: float = 1.0
    fallbacks_taken: list = field(default_factory=list)
    converged: bool = True
    enforced: tuple = (0, 1, 2, 3)


@dataclass
class CertificateSet:
    kkt: float
    kkt_components: tuple
    r_geo: float
    mu_hat: float
    iterations: int
    epsilon_final: float
    ratio_iqr: tuple = (0.0, 0.0)
    delta_lowrank: float = 0.0
    fallbacks_taken: tuple = ()
    converged: bool = True

    @property
    def pass_kkt(self) -> bool:
        return self.kkt <= KKT_PASS

    @property
    def pass_rgeo(self) -> bool:
        return self.r_geo <= RGEO_PASS

    @property
    def pass_muhat(self) -> bool:
        return MUHAT_BAND[0] <= self.mu_hat <= MUHAT_BAND[1]


class _LogMarginals:
    """Streaming log-sum-exp marginalizations of the implied coupling.

    Each is one log-sum-exp of the stage's log-kernel plus a vector: S and
    P1 add C and B + log S along axis 1, R and P3 add A and B + log R along
    axis 0.  The stage's ``lse_memo`` maps (axis, the vector's bytes) to the
    result, so a marginalization whose vector has not changed since an
    earlier one on the stage returns the array that one computed, which
    byte-identical inputs make the same bits.  Within a sweep R and S are
    reused across the u, v and w updates, the eta step and the residual,
    and the next sweep's u update reuses the residual's S and P1; the
    residuals after the loop reuse the final stage's.  The memo keeps the
    ``LSE_MEMO_ENTRIES`` newest results, read-only, the oldest going
    first.
    """

    def __init__(self, problem: TriMarginalProblem, st: StageKernels,
                 state: BridgeState):
        lm1, lm2, lm3 = problem.log_m
        self.A = lm1 + state.log_u
        self.B = lm2 + state.log_v + state.eta * problem.x / st.eps
        self.C = lm3 + state.log_w
        self.logK = st.logK
        self.memo = st.lse_memo

    def _lse(self, axis, vec):
        """log-sum-exp of logK + vec along ``axis``: vec indexes the columns
        for axis 1 and the rows for axis 0."""
        key = (axis, vec.tobytes())
        out = self.memo.get(key)
        if out is None:
            out = _logsumexp(self.logK + (vec[None, :] if axis == 1 else vec[:, None]),
                             axis=axis)
            out.flags.writeable = False
            self.memo[key] = out
            if len(self.memo) > LSE_MEMO_ENTRIES:
                del self.memo[next(iter(self.memo))]
        return out

    def log_S(self):
        # S_j = sum_k K[j,k] exp(C_k)
        return self._lse(1, self.C)

    def log_R(self):
        # R_j = sum_i K[i,j] exp(A_i)
        return self._lse(0, self.A)

    def log_P1(self):
        return self.A + self._lse(1, self.B + self.log_S())

    def log_P2(self):
        return self.B + self.log_R() + self.log_S()

    def log_P3(self):
        return self.C + self._lse(0, self.B + self.log_R())


def _residual_tuple(problem, st, state):
    lm = _LogMarginals(problem, st, state)
    p1 = np.exp(lm.log_P1())
    p2 = np.exp(lm.log_P2())
    p3 = np.exp(lm.log_P3())
    mart = float(problem.x @ p2 - problem.martingale_rhs())
    r1 = float(np.max(np.abs(p1 - problem.m1)))
    r2 = float(np.max(np.abs(p2 - problem.m2)))
    r3 = float(np.max(np.abs(p3 - problem.m3)))
    comps = (r1, r2, r3, abs(mart))
    conv = max(comps[i] for i in state.enforced)
    return comps + (conv,)


def _eta_newton(problem, st, state):
    """Safeguarded 1D Newton on the martingale violation, bisection fallback."""
    x = problem.x
    eps = st.eps
    b = problem.martingale_rhs()
    lm = _LogMarginals(problem, st, state)
    log_p2 = lm.log_P2()
    p2 = np.exp(log_p2)
    if p2.sum() <= 0:
        return 0.0

    def g(delta):
        z = p2 * np.exp(np.clip(delta * x / eps, -700, 700))
        return float(x @ z - b), z

    lo, hi = -50.0 * eps, 50.0 * eps
    glo, _ = g(lo)
    ghi, _ = g(hi)
    if glo > 0 or ghi < 0:
        # root not bracketed: fall back to the best endpoint
        return lo if abs(glo) < abs(ghi) else hi
    delta = 0.0
    for _ in range(40):  # Newton or bisection steps
        val, z = g(delta)
        if abs(val) <= 1e-14 * (1.0 + abs(b)):
            break
        if val > 0:
            hi = delta
        else:
            lo = delta
        slope = float((x**2 / eps) @ z)
        step = -val / slope if slope > 0 else 0.0
        cand = delta + step
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        delta = cand
    return delta


def tri_sinkhorn(problem: TriMarginalProblem,
                 kernels: BridgeKernels | None = None,
                 tol: float = KKT_PASS,
                 t_max: int = 400,
                 update_middle: bool = True):
    """Run the annealed, damped log-domain tri-Sinkhorn loop.

    Each stage runs at most ``t_max`` sweeps, the final one at least
    ``MIN_FINAL_ITERS``; the damping adapts within [``DAMPING_MIN``,
    ``DAMPING_MAX``].  Returns (BridgeState, CertificateSet).  A run that
    exhausts its budget after the fallback ladder reports ``converged=False``
    on both outputs instead of raising; the caller gates on the certificates.

    ``update_middle=False`` freezes the middle potential so the middle
    marginal is carried only by the entropic reference.  That is the
    well-posed setting for martingale rhs sensitivities: with all three
    marginals hard, the rhs is pinned by m2 and a perturbed problem has no
    feasible point, so shadow prices are read off in this mode.  The run
    then neither enforces nor certifies r2: ``certs.kkt`` is the largest of
    the other three components, ``certs.kkt_components`` keeps all four,
    and ``converged`` is ``kkt <= tol`` in both modes.

    Each distinct log-sum-exp is taken once: every stage's kernels carry a
    memo of their results (see ``_LogMarginals``), so a sweep takes at most
    five, a stage's first sweep seven, and the residuals the fallback ladder and
    ``certify`` read after the loop take none that the final stage's last
    sweep did not.  The default run's 15 sweeps take 83, not 240, and every
    bit of the result is the same.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if kernels is None:
        kernels = build_bridge(problem)
    n = problem.n
    state = BridgeState(np.zeros(n), np.zeros(n), np.zeros(n), 0.0,
                        enforced=(0, 1, 2, 3) if update_middle else (0, 2, 3))
    state.damping = DAMPING_MAX
    active1 = problem.m1 > 0
    active2 = (problem.m2 > 0) if update_middle else np.zeros(n, dtype=bool)
    active3 = problem.m3 > 0
    lm1, lm2, lm3 = problem.log_m

    def rescale(factor):
        # the log-scalings are potentials over eps: a move from eps to eps'
        # multiplies them by eps / eps'
        state.log_u *= factor
        state.log_v *= factor
        state.log_w *= factor

    def run_stage(st, t_budget, min_iters=1):
        """Sweep at ``st``'s eps; every sweep joins ``residual_trace``, and
        the stage's own trace is returned."""
        gamma = state.damping
        trace = []
        increases = 0
        for t in range(t_budget):
            lm = _LogMarginals(problem, st, state)
            state.log_u[active1] += gamma * (lm1[active1] - lm.log_P1()[active1])
            lm = _LogMarginals(problem, st, state)
            if active2.any():
                state.log_v[active2] += gamma * (lm2[active2] - lm.log_P2()[active2])
            lm = _LogMarginals(problem, st, state)
            state.log_w[active3] += gamma * (lm3[active3] - lm.log_P3()[active3])
            state.eta += _eta_newton(problem, st, state)
            comps = _residual_tuple(problem, st, state)
            trace.append(comps)
            res = comps[4]
            if len(trace) >= 2:
                if res > trace[-2][4]:
                    increases += 1
                    if increases >= 2:
                        gamma = max(gamma / 1.5, DAMPING_MIN)
                        increases = 0
                else:
                    increases = 0
            if len(trace) >= 6:
                prev = trace[-6][4]
                if prev > 0 and (prev - res) / prev < 1e-3:
                    if gamma < DAMPING_MAX:
                        gamma = min(1.5 * gamma, DAMPING_MAX)
                    elif res <= tol:
                        break
                    elif len(trace) > 30 and (prev - res) / prev < 1e-9:
                        break  # hard stagnation
            if res <= tol and len(trace) >= min_iters:
                break
        state.damping = gamma
        state.residual_trace.extend(trace)
        return trace

    def extend_final(t_budget):
        state.stage_traces[-1].extend(run_stage(kernels.final, t_budget))

    for si, st in enumerate(kernels.stages):
        if si > 0:
            rescale(kernels.stages[si - 1].eps / st.eps)
        state.stage_traces.append(
            run_stage(st, t_max, MIN_FINAL_ITERS if st is kernels.final else 1))

    # fallback ladder if the final KKT misses the tolerance
    def final_kkt():
        return _residual_tuple(problem, kernels.final, state)[4]

    if final_kkt() > tol:
        state.fallbacks_taken.append("marginal_rebalance")
        saved, state.damping = state.damping, 1.0
        extend_final(10)
        state.damping = saved
    if final_kkt() > tol:
        state.fallbacks_taken.append("damping_increase")
        state.damping = max(DAMPING_MIN, 0.5 * state.damping)
        extend_final(t_max // 2)
    if final_kkt() > tol and len(kernels.stages) >= 2:
        state.fallbacks_taken.append("eps_backtrack")
        prev, last = kernels.stages[-2], kernels.final
        rescale(last.eps / prev.eps)
        # these sweeps count as iterations, but r_geo reads the final
        # stage's trace, which they are not part of
        run_stage(prev, t_max // 2)
        rescale(prev.eps / last.eps)
        extend_final(t_max // 2)

    state.converged = final_kkt() <= tol
    certs = certify(state, problem, kernels)
    return state, certs


def kkt_residual(state: BridgeState, problem: TriMarginalProblem,
                 kernels: BridgeKernels):
    """(kkt, components): the components are the three sup-norm marginal
    errors and |martingale violation|; kkt is the largest of those the run
    enforced (``state.enforced``)."""
    comps = _residual_tuple(problem, kernels.final, state)
    return comps[4], comps[:4]


def certify(state: BridgeState, problem: TriMarginalProblem,
            kernels: BridgeKernels) -> CertificateSet:
    """Certificates from the final-stage residual trace and whitened Gram
    (plus ``GRAM_RIDGE`` on its diagonal)."""
    trace = state.stage_traces[-1] if state.stage_traces else []
    if len(trace) < 2:
        raise ValueError("residual trace too short for certification")
    res = np.asarray([r[4] for r in trace])
    ratios = res[1:] / np.maximum(res[:-1], 1e-300)
    window = max(10, int(np.ceil(0.1 * ratios.size)))
    tail = ratios[-window:]
    r_geo = float(np.median(tail))
    iqr = (float(np.quantile(tail, 0.10)), float(np.quantile(tail, 0.90)))

    phi2 = kernels.phi2
    G = (phi2.T * problem.m1) @ phi2 + (phi2.T * problem.m3) @ phi2
    G = G + GRAM_RIDGE * np.eye(G.shape[0])
    mu_hat = max(float(np.linalg.eigvalsh(G)[0]), MU_HAT_FLOOR)

    kkt, comps = kkt_residual(state, problem, kernels)
    return CertificateSet(
        kkt=kkt,
        kkt_components=comps,
        r_geo=r_geo,
        mu_hat=float(mu_hat),
        iterations=len(state.residual_trace),
        epsilon_final=kernels.final.eps,
        ratio_iqr=iqr,
        delta_lowrank=kernels.delta,
        fallbacks_taken=tuple(state.fallbacks_taken),
        converged=state.converged,
    )


def dual_value(state: BridgeState, problem: TriMarginalProblem,
               kernels: BridgeKernels, st: StageKernels | None = None) -> float:
    """Entropic dual objective at the current potentials.

    sum_i phi_i . m_i + eta * b + eps * (1 - mass(theta)); tight against the
    primal (duality gap 0 at the optimum) and linear in the martingale rhs b
    with slope eta, which is what the shadow-price sensitivity reads off.
    """
    if st is None:
        st = kernels.final
    eps = st.eps
    lm = _LogMarginals(problem, st, state)
    mass = float(np.exp(_logsumexp(lm.log_P1())))
    act1, act2, act3 = problem.m1 > 0, problem.m2 > 0, problem.m3 > 0
    alpha = eps * state.log_u
    beta = eps * state.log_v
    gamma = eps * state.log_w
    val = (alpha[act1] @ problem.m1[act1]
           + beta[act2] @ problem.m2[act2]
           + gamma[act3] @ problem.m3[act3]
           + state.eta * problem.martingale_rhs()
           + eps * (1.0 - mass))
    return float(val)


def coupling_pairwise(state: BridgeState, problem: TriMarginalProblem,
                      kernels: BridgeKernels, st: StageKernels | None = None):
    """Pairwise marginals (P12, P23) of the implied coupling, O(n^2)."""
    if st is None:
        st = kernels.final
    lm = _LogMarginals(problem, st, state)
    logS = lm.log_S()
    logR = lm.log_R()
    logP12 = lm.A[:, None] + st.logK + (lm.B + logS)[None, :]
    logP23 = (lm.B + logR)[:, None] + st.logK + lm.C[None, :]
    return np.exp(logP12), np.exp(logP23)


def primal_value(state: BridgeState, problem: TriMarginalProblem,
                 kernels: BridgeKernels, st: StageKernels | None = None) -> float:
    """Primal objective <C, Pi> + eps * KL(Pi || m1 x m2 x m3)."""
    if st is None:
        st = kernels.final
    eps = st.eps
    c = problem.cost_matrix()
    P12, P23 = coupling_pairwise(state, problem, kernels, st)
    lm = _LogMarginals(problem, st, state)
    p1 = np.exp(lm.log_P1())
    p2 = np.exp(lm.log_P2())
    p3 = np.exp(lm.log_P3())
    cost = float(np.sum(c * P12) + np.sum(c * P23))
    # KL against the product reference through the Gibbs form:
    # log(Pi/ref) = log u_i + (log v_j + eta x_j / eps) + log w_k + logK
    tilt = state.log_v + state.eta * problem.x / eps
    kl = (state.log_u @ p1 + tilt @ p2 + state.log_w @ p3
          + float(np.sum(st.logK * P12) + np.sum(st.logK * P23)))
    return cost + eps * float(kl)
