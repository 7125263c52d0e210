"""Weighted metric projection onto the arbitrage-free cone with certificates.

The cone intersects three families of half-spaces: calendar monotonicity
(values nondecreasing in maturity per strike), strike convexity
(nondecreasing discrete slopes per maturity) and nonnegativity.
``project_to_cone`` returns the projection onto their intersection in the
weighted metric ``||x||^2 = sum(omega * x^2)``, ``omega = w * quadrature``,
and certifies each result by its KKT conditions (Boyle and Dykstra 1986;
for half-spaces the dual problem is the one Hildreth's method solves):

* primal feasibility: no constraint is breached by more than 1e-10;
* dual feasibility: multipliers ``mu >= 0``;
* stationarity: ``x = y + Omega^-1 A^T mu``, which holds by construction;
* complementarity: every constraint with ``mu_i > 0`` holds with equality
  to within 1e-10.

Where rounding is larger than 1e-10 (large prices or multipliers) the
tolerance is 1e-12 times the magnitude of the terms summed into the
constraint's value.  A result that fails the certificate raises
``RuntimeError``.  The dual
problem is solved by block active-set Newton steps; when those cycle, the
Goldfarb-Idnani dual active-set method finishes from their last working
set.  It keeps the active constraints linearly independent, so the
degenerate duals found where many constraints meet need no special care.

The Newton steps run on a stack of independent problems on one grid and
weight: their working sets are stacked, the Gram matrix is block diagonal
and one banded factorisation and solve serve the whole stack per step.
``project_to_cone`` is the stack of one; ``projection_certificates`` solves
its perturbed surfaces in stacks of ``_STACK``.  Each member leaves the
stack when it is solved, or alone for the Goldfarb-Idnani method, and is
certified on its own.  ``pav_isotonic`` is the exact projection of one
strike's column onto the calendar family.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpstrf

from .fd import FdConfig, dupire_field, dupire_total_variation
from .grid import Grid2D, Surface, WeightField, quadrature_matrix, weighted_norm

__all__ = [
    "ProjectionCertificates",
    "ProjectionWarmStart",
    "pav_isotonic",
    "project_to_cone",
    "projection_certificates",
    "feasibility_violation",
]

# certificate: the largest breach of any constraint in price units, or
# relative to the magnitude of the terms summed into it where that is larger
_FEAS_TOL = 1e-10
_FEAS_REL = 1e-12
# a breach beyond these puts a constraint into the working set
_ADD_TOL = 1e-12
_ADD_REL = 1e-14
# ridge on the unit-diagonal Gram matrix in the Newton steps; three steps
# of iterative refinement remove its effect on the range of the Gram matrix
_RIDGE = 1e-6
# squared distance of a unit constraint normal from the span of the active
# ones below which it counts as linearly dependent on them
_DEPENDENT = 1e-11
_NEWTON_STEPS = 30
# members per stacked solve in projection_certificates, even so that each
# perturbation pair lies in one stack.  At 31x11 the stacked Gram band of 16
# members takes about 0.5 MB; larger stacks solve hardly faster and raise
# the process's peak memory by the larger transient arrays
_STACK = 16
# C3 gate: the empirical Lipschitz ratio of the projection may exceed 1 by
# no more than rounding and the 1% perturbation scale allow
LIP_PASS = 1.01


@dataclass
class ProjectionCertificates:
    """``projections`` holds the solver counters of the certificate's
    projections (``ProjectionWarmStart.counters``):

    * ``calls``: projections made, ``2 * trials + 1`` (the base surface and
      every perturbed one);
    * ``newton_steps``: Newton steps summed over the members of each stack;
    * ``factor_reuses``: of those, the steps served by a factor made for
      another member of the stack or kept from an earlier step;
    * ``gi_handoffs``: members finished by the Goldfarb-Idnani method.
    """

    lip_emp: float
    dup_ok: bool
    dup_tv_path: np.ndarray = field(default_factory=lambda: np.array([]))
    projections: dict = field(default_factory=dict)


@dataclass
class ProjectionWarmStart:
    """Solver state carried between related ``project_to_cone`` calls.

    Pass one instance to a sequence of projections of nearby surfaces on the
    same grid and weight (perturbation pairs, descent steps).  It holds the
    last active set, from which the next call starts, and the last Newton
    step's working set with its Gram band and Cholesky factor, which a later
    step with the same working set reuses.  Both belong to one grid and
    weight (``key``) and are dropped when a call brings another.
    The active set changes only how fast the solver finds the solution, not
    what it returns beyond rounding; reusing the factor changes nothing.
    ``prepared`` maps the bytes of an input to its projection when a stacked
    solve has already made it (``projection_certificates``); the call that
    brings that input returns it.

    The counters tally the projections solved with this instance (each
    member of a stack counts once), their Newton steps (per member), the
    member-steps served by a factor made for another member or kept from an
    earlier step, and the members that went on to the Goldfarb-Idnani
    method.
    """

    key: object = None
    active: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    factor: tuple | None = None
    prepared: dict = field(default_factory=dict)
    calls: int = 0
    newton_steps: int = 0
    factor_reuses: int = 0
    gi_handoffs: int = 0

    def counters(self) -> dict:
        return {"calls": self.calls, "newton_steps": self.newton_steps,
                "factor_reuses": self.factor_reuses,
                "gi_handoffs": self.gi_handoffs}


def pav_isotonic(seq, weights, direction: str = "nondecreasing") -> np.ndarray:
    """Weighted least-squares projection onto the monotone cone (PAV).

    Pool-adjacent-violators with block weighted averages; idempotent and
    weighted-mean preserving.
    """
    y = np.asarray(seq, dtype=float)
    w = np.asarray(weights, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("seq must be a nonempty 1D sequence")
    if w.shape != y.shape:
        raise ValueError("weights must match seq length")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if direction == "nonincreasing":
        return -pav_isotonic(-y, w, "nondecreasing")
    if direction != "nondecreasing":
        raise ValueError("direction must be 'nondecreasing' or 'nonincreasing'")

    # blocks as (weighted sum, weight, count)
    means = []
    wsum = []
    count = []
    for yi, wi in zip(y, w):
        means.append(yi)
        wsum.append(wi)
        count.append(1)
        while len(means) > 1 and means[-2] > means[-1] + 0.0:
            m2, w2, c2 = means.pop(), wsum.pop(), count.pop()
            m1, w1, c1 = means.pop(), wsum.pop(), count.pop()
            wt = w1 + w2
            means.append((m1 * w1 + m2 * w2) / wt)
            wsum.append(wt)
            count.append(c1 + c2)
    out = np.empty_like(y)
    pos = 0
    for m, c in zip(means, count):
        out[pos:pos + c] = m
        pos += c
    return out


def _second_difference_matrix(x: np.ndarray) -> np.ndarray:
    """Rows encode the slope increase across interior nodes (>= 0 iff convex)."""
    n = x.size
    A = np.zeros((n - 2, n))
    h = np.diff(x)
    j = np.arange(n - 2)
    A[j, j] = 1.0 / h[:-1]
    A[j, j + 1] = -1.0 / h[:-1] - 1.0 / h[1:]
    A[j, j + 2] = 1.0 / h[1:]
    return A


def feasibility_violation(values: np.ndarray, grid: Grid2D) -> float:
    """Max violation of calendar monotonicity / strike convexity / positivity."""
    cal = np.max(-np.diff(values, axis=0), initial=0.0)
    A = _second_difference_matrix(grid.strikes)
    conv = np.max(-(values @ A.T), initial=0.0)
    neg = np.max(-values, initial=0.0)
    return float(max(cal, conv, neg))


class _Cone:
    """The cone's constraints on one grid and weight, in scaled coordinates.

    With ``u = sqrt(omega) * x`` the weighted projection is Euclidean.  Row i
    of ``S`` is ``a_i / sqrt(omega) / nu_i``, a unit vector, so that
    ``a_i . x = nu_i * (S u)_i``.  Each row touches at most three nodes and
    is stored as three node indices and coefficients; node ``n`` is a dummy
    with coefficient 0, and vectors in scaled coordinates carry it as a last
    entry that stays 0.  The methods take a stack of k problems, one per
    row of each array; stacked constraint ``member*m + row`` is that
    member's constraint ``row``.  Rows are ordered by their first node in
    strike-major order, which makes the Gram matrix ``S S^T`` banded.
    """

    def __init__(self, grid: Grid2D, omega: np.ndarray):
        nt, nk = grid.shape
        n = nt * nk
        node = np.arange(n).reshape(nt, nk)
        A2 = _second_difference_matrix(grid.strikes)
        q = np.arange(nk - 2)
        cols = [np.stack([node[:-1], node[1:], np.full((nt - 1, nk), n)], -1),
                np.stack([node[:, q], node[:, q + 1], node[:, q + 2]], -1)]
        coef = [np.broadcast_to([-1.0, 1.0, 0.0], (nt - 1, nk, 3)),
                np.broadcast_to(np.stack([A2[q, q], A2[q, q + 1], A2[q, q + 2]], -1),
                                (nt, nk - 2, 3))]
        # with the calendar rows, x >= 0 holds everywhere iff it holds on the
        # first maturity; the smaller set is less degenerate
        cols.append(np.stack([node[0], np.full(nk, n), np.full(nk, n)], -1))
        coef.append(np.broadcast_to([1.0, 0.0, 0.0], (nk, 3)))
        cols = np.concatenate([c.reshape(-1, 3) for c in cols])
        coef = np.concatenate([c.reshape(-1, 3) for c in coef])
        position = np.append(node.T.ravel().argsort(), n * nk + 1)
        order = np.argsort(position[cols].min(axis=1), kind="stable")
        cols, coef = cols[order], coef[order]

        self.n, self.m = n, cols.shape[0]
        self.sqrt_omega = np.sqrt(omega.ravel())
        coef = coef * np.append(1.0 / self.sqrt_omega, 0.0)[cols]
        self.nu = np.sqrt(np.sum(coef**2, axis=1))
        self.cols, self.coef = cols, coef / self.nu[:, None]
        self.abs_coef = np.abs(self.coef)

        S = sp.csr_array((self.coef.ravel(), cols.ravel(),
                          np.arange(0, 3 * self.m + 1, 3)), shape=(self.m, n + 1))
        # the Gram matrix S S^T row by row: row r meets rows nbr[r] with
        # inner products gval[r]; padding points at the sentinel row m.
        # Its lower band needs only the rows at or after r: nbr_lower[r].
        G = (S @ S.T).tocsr()
        G.sort_indices()
        row = np.repeat(np.arange(self.m), np.diff(G.indptr))

        def table(keep):
            r = row[keep]
            counts = np.bincount(r, minlength=self.m)
            slot = np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts)
            nbr = np.full((self.m, counts.max()), self.m)
            val = np.zeros(nbr.shape)
            nbr[r, slot] = G.indices[keep]
            val[r, slot] = G.data[keep]
            return nbr, val

        self.nbr, self.gval = table(np.ones(G.nnz, dtype=bool))
        self.nbr_lower, self.gval_lower = table(G.indices >= row)

    def scale(self, X: np.ndarray) -> np.ndarray:
        """Scaled coordinates ``sqrt(omega) * x`` of each row of X, with the
        dummy node (always 0) appended."""
        V = np.empty((X.shape[0], self.n + 1))
        V[:, -1] = 0.0
        np.multiply(self.sqrt_omega, X, out=V[:, :-1])
        return V

    def _row_sums(self, coef: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Each constraint's coefficients ``coef`` dotted with its nodes, for
        every row of X (one member each)."""
        if X.shape[0] == 1:
            # a lone problem keeps the row-wise form: the stacked form
            # rounds differently in the last bit
            return np.einsum("ij,ij->i", coef, X[0][self.cols])[None]
        return np.einsum("ij,kij->ki", coef, X[:, self.cols])

    def _stacked(self, g: np.ndarray, k: int):
        """Constraint and node indices of stacked rows ``g = member*m +
        row`` of k members; member j's nodes are ``j*(n+1) + node``."""
        if k == 1:
            return g, self.cols[g]
        member, row = np.divmod(g, self.m)
        return row, self.cols[row] + (self.n + 1) * member[:, None]

    def values(self, U: np.ndarray) -> np.ndarray:
        """S u for each row u of U: every constraint's value, scaled to a
        unit normal."""
        return self._row_sums(self.coef, U)

    def rounding(self, V: np.ndarray) -> np.ndarray:
        """Magnitude of the terms summed into each scaled value S v of each
        row v of V, the scale of its rounding."""
        return self._row_sums(self.abs_coef, np.abs(V))

    def threshold(self, absolute: float, relative: float,
                  terms: np.ndarray) -> np.ndarray:
        """Per-row threshold on the scaled values: ``absolute`` price units
        in scaled units, or ``relative`` times the rounding terms, whichever
        is larger."""
        return np.maximum(absolute / self.nu, relative * terms)

    def combine(self, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """S[rows]^T lam of one problem, with the dummy node."""
        return np.bincount(self.cols[rows].ravel(),
                           (self.coef[rows] * lam[:, None]).ravel(),
                           minlength=self.n + 1)

    def check(self, V: np.ndarray, g: np.ndarray, lam: np.ndarray):
        """``U = V + S[rows]^T lam`` for stacked rows g, the values ``S u``
        of each row and their rounding terms, the magnitude of the terms
        summed into each value.  Rows with ``lam = 0`` add exact zeros to
        all three."""
        row, nodes = self._stacked(g, V.shape[0])
        nodes = nodes.ravel()
        U = V + np.bincount(nodes, (self.coef[row] * lam[:, None]).ravel(),
                            minlength=V.size).reshape(V.shape)
        spread = np.abs(V) + np.bincount(
            nodes, (self.abs_coef[row] * np.abs(lam)[:, None]).ravel(),
            minlength=V.size).reshape(V.shape)
        return U, self._row_sums(self.coef, U), self._row_sums(self.abs_coef, spread)

    def _place(self, rows: np.ndarray, k: int = 1) -> np.ndarray:
        """Position of each (stacked) constraint within ``rows``, -1 if
        absent."""
        where = np.full(k * self.m + 1, -1)
        where[rows] = np.arange(rows.size)
        return where

    def gram_band(self, W: np.ndarray, k: int = 1) -> np.ndarray:
        """Lower band storage of S[W] S[W]^T for increasing stacked indices W
        (``member*m + row``) of k members.

        Members do not couple, so the matrix is block diagonal.  The band
        holds as many diagonals as the coupling of W's rows needs; in this
        row order that is far fewer than W has rows.
        """
        if k == 1:
            row, nbr = W, self.nbr_lower[W]
        else:
            # neighbours within the member; the sentinel row m goes to k*m
            member, row = np.divmod(W, self.m)
            nbr = self.nbr_lower[row]
            nbr = np.where(nbr < self.m, nbr + (member * self.m)[:, None],
                           k * self.m)
        d = self._place(W, k)[nbr] - np.arange(W.size)[:, None]
        i, j = (d >= 0).nonzero()
        ab = np.zeros((int(d.max()) + 1, W.size), order="F")
        ab[d[i, j], i] = self.gval_lower[row[i], j]
        return ab

    def gram(self, A: np.ndarray) -> np.ndarray:
        """Dense S[A] S[A]^T for indices A in any order."""
        col = self._place(A)[self.nbr[A]]
        a = np.broadcast_to(np.arange(A.size)[:, None], col.shape)
        inside = col >= 0
        G = np.zeros((A.size, A.size))
        G[a[inside], col[inside]] = self.gval[A][inside]
        return G

    def gram_column(self, A: np.ndarray, p: int) -> np.ndarray:
        """S[A] S[p]^T."""
        col = self._place(A)[self.nbr[p]]
        inside = col >= 0
        out = np.zeros(A.size)
        out[col[inside]] = self.gval[p][inside]
        return out


_CONES: OrderedDict = OrderedDict()


def _cone(grid: Grid2D, omega: np.ndarray) -> tuple[_Cone, tuple]:
    """Build the constraint set of one grid and weight once (small LRU cache)."""
    key = (grid.strikes.tobytes(), grid.maturities.tobytes(), omega.tobytes())
    cone = _CONES.pop(key, None) or _Cone(grid, omega)
    _CONES[key] = cone
    while len(_CONES) > 8:
        _CONES.popitem(last=False)
    return cone, key


def _factor(ab: np.ndarray):
    """Banded Cholesky factor of the ridged band and LAPACK's info."""
    ridged = ab.copy(order="F")
    ridged[0] += _RIDGE
    return dpbtrf(ridged, lower=1, overwrite_ab=1)


def _refined_solve(ab: np.ndarray, factor: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """Solve with the ridged factor, then three steps of refinement against
    the unridged band."""
    lam = dpbtrs(factor, rhs, lower=1)[0]
    for _ in range(3):
        resid = rhs - dsbmv(ab.shape[0] - 1, 1.0, ab, lam, lower=1)
        lam = lam + dpbtrs(factor, resid, lower=1)[0]
    return lam


def _newton(cone: _Cone, B: np.ndarray, inW: np.ndarray, g: np.ndarray,
            warm: ProjectionWarmStart):
    """Multipliers of one Newton step for each member of a stack.

    Member i solves ``G_WW lam = -b_W`` on its working set ``W = inW[i]``
    with a banded Cholesky factor of the ridged Gram matrix; refinement
    recovers the unridged solution on the range of ``G_WW``, where the
    projection is determined.  On a linearly dependent W the ridge keeps the
    multipliers' null-space part, which the projection does not see, near
    zero.  The members do not couple, so the stack's Gram matrix is block
    diagonal and one banded factorisation and solve serve them all.  When
    every member has the same W, one member's factor is made (or ``warm``'s
    kept one reused, if it was made for W) and repeated once per member.
    ``g`` is ``np.flatnonzero(inW)``, the stacked rows.

    Returns the multipliers on the stacked rows and None, or, if some
    member's factorisation failed, the multipliers on the rows of the
    others and the mask of the members that succeeded.
    """
    k = inW.shape[0]
    warm.newton_steps += k
    if k == 1 or (inW == inW[0]).all():
        W = g[:g.size // k]
        if W.size == 0:
            return np.zeros(0), None
        if warm.factor is not None and np.array_equal(warm.factor[0], W):
            warm.factor_reuses += k
            _, ab, factor = warm.factor
        else:
            ab = cone.gram_band(W)
            factor, info = _factor(ab)
            if info != 0:
                return np.zeros(0), np.zeros(k, dtype=bool)
            warm.factor = (W, ab, factor)
            warm.factor_reuses += k - 1
        if k == 1:
            return _refined_solve(ab, factor, -B[0, W]), None
        # k copies side by side, in the Fortran order LAPACK takes
        ab, factor = (np.tile(a.T, (k, 1)).T for a in (ab, factor))
        return _refined_solve(ab, factor, -B[:, W].ravel()), None
    ok = np.ones(k, dtype=bool)
    lam = np.zeros(0)
    while g.size:
        ab = cone.gram_band(g, k)
        factor, info = _factor(ab)
        if info == 0:
            lam = _refined_solve(ab, factor, -B.ravel()[g])
            break
        # the leading minor of order info failed: drop that row's member
        ok[g[info - 1] // cone.m] = False
        g = (inW & ok[:, None]).ravel().nonzero()[0]
    return lam, (None if ok.all() else ok)


def _independent_pair(cone: _Cone, b: np.ndarray, W: np.ndarray):
    """A linearly independent active set with nonnegative multipliers.

    Pivoted Cholesky keeps a maximal independent subset of W; constraints
    whose multipliers come out negative are dropped until none is.  The
    result is a valid start for the Goldfarb-Idnani method.
    """
    A = np.sort(W)
    while A.size:
        factor, piv, rank, _ = dpstrf(cone.gram(A), lower=1, tol=_DEPENDENT)
        A = A[piv[:rank] - 1]
        L = np.tril(factor[:rank, :rank])
        lam = -cho_solve((L, True), b[A])
        if lam.min() >= 0:
            return A, lam, L
        A = np.sort(A[lam > 0])
    return A, np.zeros(0), np.zeros((0, 0))


def _goldfarb_idnani(cone: _Cone, v: np.ndarray, b: np.ndarray,
                     W: np.ndarray) -> np.ndarray:
    """Dual active-set method (Goldfarb and Idnani 1983) from the set W.

    Each step takes the most violated constraint p and moves the primal point
    and the multipliers along the directions that keep the active set's
    constraints tight, until p is satisfied (p joins the set) or an active
    multiplier reaches zero (that constraint leaves).  If p is linearly
    dependent on the active set only the multipliers move.  ``L`` is the
    Cholesky factor of the active Gram matrix in the order of ``A``; after
    each join the multipliers are solved afresh from it, so rounding does
    not build up over the steps.

    In exact arithmetic the method cannot cycle.  In floating point two
    nearly tied constraints can displace each other forever; the method
    stops when it meets an active set and chosen constraint it has met
    before, and leaves the verdict to the certificate in
    ``project_to_cone``.
    """
    A, lamA, L = _independent_pair(cone, b, W)
    seen = set()
    for _ in range(20 * cone.m):
        u, s, terms = (a[0] for a in cone.check(v[None], A, lamA))
        s[A] = 0.0
        breach = s < -cone.threshold(_ADD_TOL, _ADD_REL, terms)
        p = int(np.argmin(np.where(breach, s, np.inf)))
        state = (p, np.sort(A).tobytes())
        if not breach.any() or state in seen:
            lam = np.zeros(cone.m)
            lam[A] = lamA
            return lam
        seen.add(state)
        lam_p = 0.0
        while True:
            w = solve_triangular(L, cone.gram_column(A, p), lower=True)
            r = solve_triangular(L, w, lower=True, trans="T")
            z = cone.combine(np.append(A, p), np.append(-r, 1.0))
            zz = float(z[:-1] @ z[:-1])
            s_p = float(cone.coef[p] @ u[cone.cols[p]])
            t2 = np.inf if zz <= _DEPENDENT else -s_p / zz
            ratios = np.full(A.size + 1, np.inf)
            pos = r > 0
            ratios[:-1][pos] = lamA[pos] / r[pos]
            k = int(np.argmin(ratios))
            t1 = ratios[k]
            t = min(t1, t2)
            if not np.isfinite(t):
                raise RuntimeError("cone projection: dual step is unbounded")
            if np.isfinite(t2):
                u = u + t * z
            lamA = lamA - t * r
            lam_p += t
            if t2 <= t1:
                q = A.size
                L_new = np.zeros((q + 1, q + 1))
                L_new[:q, :q] = L
                L_new[q, :q] = w
                L_new[q, q] = np.sqrt(zz)
                A, L = np.append(A, p), L_new
                lamA = -cho_solve((L, True), b[A])
                if lamA.min() < 0:
                    A, lamA, L = _independent_pair(cone, b, A)
                break
            A, lamA = np.delete(A, k), np.delete(lamA, k)
            L = np.linalg.cholesky(cone.gram(A))
    raise RuntimeError("cone projection: dual active-set method did not terminate")


def _solve_dual(cone: _Cone, V: np.ndarray, B: np.ndarray,
                warm: ProjectionWarmStart):
    """Multipliers of the projections of the rows of V (scaled coordinates,
    one member each) onto the cone; ``B`` is ``S v`` for each row.

    Block active-set Newton steps (the primal-dual active-set method of
    Hintermueller, Ito and Kunisch 2002) change many constraints at once and
    converge in a few steps from a good start, here ``warm.active`` for
    every member.  The members take their steps together (``_newton``); a
    member leaves the stack once its multipliers are nonnegative and no
    constraint is breached.  The steps can cycle; a member that repeats a
    working set, whose factorisation fails or that reaches the step limit
    goes alone to the Goldfarb-Idnani method, which terminates.

    Returns the (k, m) multipliers and, for each member solved by a Newton
    step, that step's ``cone.check`` arrays for the certificate; None after
    the Goldfarb-Idnani method.
    """
    k = V.shape[0]
    lam = np.zeros((k, cone.m))
    checks = [None] * k
    seen = {}
    # the members still in the stack and their arrays, compacted as
    # members leave; handoff collects (member, working set)
    live, Vl, Bl = np.arange(k), V, B
    inW = np.zeros((k, cone.m), dtype=bool)
    inW[:, warm.active] = True
    handoff = []
    for _ in range(_NEWTON_STEPS):
        g = inW.ravel().nonzero()[0]
        lam_W, ok = _newton(cone, Bl, inW, g, warm)
        if ok is not None:
            handoff += zip(live[~ok], inW[~ok])
            live, Vl, Bl, inW = live[ok], Vl[ok], Bl[ok], inW[ok]
            if live.size == 0:
                break
            g = inW.ravel().nonzero()[0]
        U, S, terms = cone.check(Vl, g, lam_W)
        breach = S < -cone.threshold(_ADD_TOL, _ADD_REL, terms)
        step = np.zeros(inW.shape)
        step.ravel()[g] = lam_W
        done = ~breach.any(axis=1)
        if done.any():
            done &= step.min(axis=1) >= 0
        inW = (step > 0) | (breach & ~inW)
        keep = ~done
        for i, j in enumerate(live.tolist()):
            if done[i]:
                lam[j] = step[i]
                checks[j] = (U[i].copy(), S[i].copy(), terms[i].copy())
                continue
            key = inW[i].tobytes()
            if key in seen.setdefault(j, set()):
                handoff.append((j, inW[i]))
                keep[i] = False
            seen[j].add(key)
        if not keep.all():
            if not keep.any():
                break
            live, Vl, Bl, inW = live[keep], Vl[keep], Bl[keep], inW[keep]
    else:
        handoff += zip(live, inW)
    for j, rows in handoff:
        warm.gi_handoffs += 1
        lam[j] = _goldfarb_idnani(cone, V[j], B[j], np.flatnonzero(rows))
    return lam, checks


def _certify(cone: _Cone, v: np.ndarray, lam: np.ndarray, check):
    """The point of multipliers ``lam`` and its active set, checked against
    the KKT certificate; raises ``RuntimeError`` if it fails.

    The certificate runs on the very u whose x is returned: the last
    Newton step's (``check``), or recomputed after the Goldfarb-Idnani
    method.
    """
    active = (lam > 0).nonzero()[0]
    if check is None:
        check = [a[0] for a in cone.check(v[None], active, lam[active])]
    u, s, terms = check
    cert = cone.threshold(_FEAS_TOL, _FEAS_REL, terms)
    breach = float((-s / cert).max())
    slack = float((np.abs(s[active]) / cert[active]).max(initial=0.0))
    if not (lam.min() >= 0 and breach <= 1.0 and slack <= 1.0):
        raise RuntimeError(
            "cone projection failed its KKT certificate: largest breach "
            f"{breach:.3g} and largest slack of an active constraint "
            f"{slack:.3g}, in units of the tolerance")
    return u, active


def _project_stack(cone: _Cone, X: np.ndarray, warm: ProjectionWarmStart):
    """Certified projections of the rows of X (flattened surfaces), solved
    as one stack from ``warm.active``.

    Returns them and each member's active set, None for a member already in
    the cone (returned unchanged).
    """
    warm.calls += X.shape[0]
    V = cone.scale(X)
    B = cone.values(V)
    inside = (B >= -cone.threshold(_ADD_TOL, _ADD_REL, cone.rounding(V))).all(axis=1)
    out = X.copy()
    active = [None] * X.shape[0]
    todo = (~inside).nonzero()[0]
    if todo.size < X.shape[0]:
        V, B = V[todo], B[todo]
    if todo.size:
        lam, checks = _solve_dual(cone, V, B, warm)
        for i, j in enumerate(todo.tolist()):
            u, active[j] = _certify(cone, V[i], lam[i], checks[i])
            out[j] = u[:-1] / cone.sqrt_omega
    return out, active


def project_to_cone(C, w: WeightField, grid: Grid2D | None = None,
                    warm: ProjectionWarmStart | None = None) -> Surface:
    """Metric projection onto the arbitrage-free cone in the weighted norm.

    Returns ``argmin ||x - C||_Omega`` over surfaces that are calendar
    monotone, convex in strike and nonnegative, with ``Omega = w.w *
    quadrature_matrix(grid)``.  The map is 1-Lipschitz (firmly
    nonexpansive) in that norm, and an input already in the cone is
    returned unchanged.  The result is certified by its KKT conditions, as
    described in the module docstring: it is ``C + Omega^-1 A^T mu`` for
    multipliers ``mu >= 0``; no constraint is breached by more than 1e-10,
    and every constraint with a positive multiplier holds with equality to
    that tolerance, or to the rounding-scaled tolerance the module docstring
    gives.  A result that fails the certificate raises ``RuntimeError``.

    ``warm`` carries the active set and the last Newton factor from one call
    to the next; it speeds up sequences of projections of nearby surfaces.
    A projection of C already prepared in ``warm`` by a stacked solve is
    returned without solving again.
    """
    if isinstance(C, Surface):
        grid = C.grid
        values = C.values
    else:
        if grid is None:
            raise ValueError("grid required when C is a raw array")
        values = np.asarray(C, dtype=float)
    if values.shape != grid.shape or not np.isfinite(values).all():
        raise ValueError("C must be a finite array of the grid's shape")
    omega = w.w * quadrature_matrix(grid)
    cone, key = _cone(grid, omega)
    if warm is None:
        warm = ProjectionWarmStart()
    if warm.key != key:
        warm.key, warm.active, warm.factor = key, np.zeros(0, dtype=np.intp), None
        warm.prepared = {}
    x = warm.prepared.pop(values.tobytes(), None) if warm.prepared else None
    if x is None:
        (x,), (active,) = _project_stack(cone, values.reshape(1, -1), warm)
        if active is not None:
            warm.active = active
    return Surface(np.maximum(x.reshape(values.shape), 0.0), grid)


def projection_certificates(C_raw, w: WeightField,
                            fd: FdConfig = FdConfig(),
                            trials: int = 200,
                            path_steps: int = 8,
                            rng_seed: int = 0,
                            grid: Grid2D | None = None) -> ProjectionCertificates:
    """Empirical Lipschitz and Dupire-TV-nonincrease certificates.

    lip_emp is the max ratio ||P(C+d) - P(C+d')||_w / ||d - d'||_w over seeded
    Gaussian perturbation pairs at 1% of the surface norm; dup_tv_path tracks
    the Dupire total variation along the proximal homotopy from C_raw to its
    projection, at ``path_steps + 1`` equally spaced points.

    C_raw is projected first; that projection is the end of the Dupire path,
    and its active set is the working set every perturbed surface starts
    from.  The perturbed surfaces are then solved in stacks of ``_STACK``
    (the Newton steps of a stack share each factorisation, and its first
    step, on the common working set, shares one factor), each certified on
    its own, and each is returned through its own ``project_to_cone`` call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if path_steps < 1:
        raise ValueError("path_steps must be >= 1")
    if isinstance(C_raw, Surface):
        grid = C_raw.grid
        base = C_raw.values
    else:
        if grid is None:
            raise ValueError("grid required when C_raw is a raw array")
        base = np.asarray(C_raw, dtype=float)

    warm = ProjectionWarmStart()
    proj = project_to_cone(base, w, grid=grid, warm=warm).values
    cone, _ = _cone(grid, w.w * quadrature_matrix(grid))
    rng = np.random.default_rng(rng_seed)
    scale = 0.01 * weighted_norm(base, w, grid)
    lip = 0.0
    for lo in range(0, 2 * trials, _STACK):
        d = rng.standard_normal((min(_STACK, 2 * trials - lo),) + base.shape)
        d *= np.array([scale / weighted_norm(x, w, grid) for x in d])[:, None, None]
        stack = base + d
        solved, _ = _project_stack(cone, stack.reshape(len(stack), -1), warm)
        warm.prepared = {x.tobytes(): y for x, y in zip(stack, solved)}
        p = [project_to_cone(x, w, grid=grid, warm=warm).values for x in stack]
        for i in range(0, len(stack), 2):
            denom = weighted_norm(d[i] - d[i + 1], w, grid)
            if denom > 0:
                lip = max(lip, weighted_norm(p[i] - p[i + 1], w, grid) / denom)

    tvs = []
    for t in range(path_steps + 1):
        lam = t / path_steps
        blend = (1 - lam) * base + lam * proj
        fld = dupire_field(blend, grid, fd)
        tvs.append(dupire_total_variation(fld, w))
    tvs = np.asarray(tvs)
    dup_ok = bool(np.all(np.diff(tvs) <= 1e-9))
    return ProjectionCertificates(lip_emp=float(lip), dup_ok=dup_ok,
                                  dup_tv_path=tvs, projections=warm.counters())
