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
``RuntimeError``.  A result that passes also carries an upper bound e on its
distance to the exact projection, read from the duality gap of its
multipliers (``_error_bound``): since the exact projection is nonexpansive
(Bauschke and Combettes 2017, Prop. 4.16), two certified results are at most
``e(a) + e(b)`` farther apart than their inputs.

The dual problem, minimise ``q(lam) = 1/2 ||v + S^T lam||^2`` over
``lam >= 0`` in scaled coordinates, is solved by one loop (``_solve_dual``)
whose iterates stay dual feasible and lower q.  Each step tries a block
active-set Newton step (Hintermueller, Ito and Kunisch 2002), which
converges in a few steps from a good start.  Where it stalls, as on
degenerate duals, a descent step takes over: Newton on rows freed by
Lawson and Hanson's rule, searched along the projection arc's breakpoints
(More and Toraldo 1991).  Both solve with banded Cholesky factors, and a
factor made for one working set serves a later trial on the same set.
The constraint matrix S is held once, as CSR matrices of S, its transpose
and their absolute values; every product the loop and its certificate
take (values, their rounding terms, ``S^T lam``) is a sparse product on
them, in coordinates of the grid's nodes alone.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .fd import dupire_field, dupire_total_variation
from .grid import Grid2D, Surface, WeightField, quadrature_matrix, weighted_norm

__all__ = [
    "ProjectionCertificates",
    "ProjectionWarmStart",
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
# steps a dual solve may take before it raises.  Cold projections of
# random 3N(0,1)+20 surfaces on 61 strikes under weights spread over a
# factor e^5 take about 380 and up to 750, nearly every one followed by a
# safeguard step
_NEWTON_STEPS = 5000
# breakpoints of the arc the safeguard's search tries at most, spaced
# geometrically in rank so that the first few are all tried
_BREAKPOINTS = 32
# relative rounding of the quantities the error bound reads, against the
# magnitude of the terms summed into each (first order, Higham 2002,
# "Accuracy and Stability of Numerical Algorithms", ch. 3): a constraint's
# value sums 3 products whose coefficients are rounded 3 times (6 unit
# roundoffs), a point sums its input and at most 6 rows per node (7), and
# x = u / sqrt(omega) and v = sqrt(omega) x round once each.  These count
# the terms of each sum, so they hold in whatever order a sparse product
# sums them.  16 unit roundoffs cover the largest with room for the
# second-order terms
_ROUND = 16 * 2.0**-53
# the Dupire certificate reads the total variation at this many equal steps
# along the path from the raw surface to its projection, and at its start
DUP_PATH_STEPS = 8
# C3 gate: the certified Lipschitz ratio of the computed projection over the
# audited pairs, 1 + 2 max(e) / (smallest pair distance), may exceed 1 by no
# more than 1%
LIP_PASS = 1.01


@dataclass
class ProjectionCertificates:
    """``projections`` holds the solver counters of the certificate's
    projections (``ProjectionWarmStart.counters``):

    * ``calls``: projections made, ``2 * trials + 1`` (the base surface and
      every perturbed one);
    * ``newton_steps``: steps of the dual loop summed over the
      projections, one active-set trial each;
    * ``factor_reuses``: the trials served by a factor kept from an earlier
      trial, of the same projection or, for a perturbed surface's first
      trial, of the base surface's projection;
    * ``safeguard_steps``: of the steps, those that went on to a safeguard
      descent step (``_safeguard``), whose solves are not counted above;
    * ``error_max``: the largest error bound e of the projections.

    ``lip_certified`` is ``1 + 2 * projections["error_max"] /
    pair_distance_min``: the exact projection is nonexpansive, so no audited
    pair of computed projections is farther apart than that ratio times its
    inputs' distance.
    ``lip_emp`` is the largest ratio the audit measured.
    """

    lip_emp: float
    lip_certified: float
    pair_distance_min: float
    dup_ok: bool
    dup_tv_path: np.ndarray = field(default_factory=lambda: np.array([]))
    projections: dict = field(default_factory=dict)


@dataclass
class ProjectionWarmStart:
    """Solver state carried between related ``project_to_cone`` calls.

    Pass one instance to a sequence of projections of nearby surfaces on the
    same grid and weight (perturbation pairs, descent steps).  It holds the
    last active set, from which the next call starts, and the last trial's
    working set with its Gram band and Cholesky factor, which a later trial
    on the same working set reuses; both belong to one grid and weight
    (``key``).  The active set changes the result by rounding at most, the
    reuse not at all.  The counters are those of
    ``ProjectionCertificates.projections``;
    ``error_max`` is the largest error bound of the sequence's projections.
    """

    key: object = None
    active: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    factor: tuple | None = None
    calls: int = 0
    newton_steps: int = 0
    factor_reuses: int = 0
    safeguard_steps: int = 0
    error_max: float = 0.0

    def counters(self) -> dict:
        return {"calls": self.calls, "newton_steps": self.newton_steps,
                "factor_reuses": self.factor_reuses,
                "safeguard_steps": self.safeguard_steps,
                "error_max": self.error_max}


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
    ``a_i . x = nu_i * (S u)_i``.  Each row touches at most three nodes.
    ``S``, ``|S|``, ``S^T`` and ``|S^T|`` are held as CSR matrices, the one
    storage every product below reads.  Rows are ordered by their first
    node in strike-major order, which makes the Gram matrix ``S S^T``
    banded.
    """

    def __init__(self, grid: Grid2D, omega: np.ndarray):
        nt, nk = grid.shape
        n = nt * nk
        calendar = sp.diags_array([-1.0, 1.0], offsets=[0, 1], shape=(nt - 1, nt))
        A2 = sp.csr_array(_second_difference_matrix(grid.strikes))
        # calendar rows (t, k) -> (t + 1, k), convexity rows across
        # (t, q..q+2) and, since with the calendar rows x >= 0 holds
        # everywhere iff it holds on the first maturity (the smaller set is
        # less degenerate), nonnegativity there; ordered by the strike-major
        # position k * nt + t of each row's first node (t, k)
        A = sp.vstack([sp.kron(calendar, sp.eye_array(nk)), sp.kron(sp.eye_array(nt), A2),
                       sp.eye_array(nk, n)], format="csr")
        t, k = np.arange(nt)[:, None], np.arange(nk)
        first = np.concatenate([(k * nt + t[:-1]).ravel(), (k[:-2] * nt + t).ravel(),
                                k * nt])
        A = A[np.argsort(first, kind="stable")]

        self.m = A.shape[0]
        self.sqrt_omega = np.sqrt(omega.ravel())
        A.data *= (1.0 / self.sqrt_omega)[A.indices]
        self.nu = np.sqrt(np.add.reduceat(A.data**2, A.indptr[:-1]))
        self._floors = {tol: tol / self.nu for tol in (_FEAS_TOL, _ADD_TOL)}
        A.data /= np.repeat(self.nu, np.diff(A.indptr))
        self.S, self.ST = A, A.T.tocsr()
        self.abs_S, self.abs_ST = abs(self.S), abs(self.ST)
        # the lower band of the Gram matrix S S^T row by row: row r meets
        # rows nbr_lower[r] (at or after r) with inner products
        # gval_lower[r]; padding points at the sentinel row m
        G = (self.S @ self.ST).tocsr()
        G.sort_indices()
        row = np.repeat(np.arange(self.m), np.diff(G.indptr))
        keep = G.indices >= row
        r = row[keep]
        counts = np.bincount(r, minlength=self.m)
        slot = np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.nbr_lower = np.full((self.m, counts.max()), self.m)
        self.gval_lower = np.zeros(self.nbr_lower.shape)
        self.nbr_lower[r, slot] = G.indices[keep]
        self.gval_lower[r, slot] = G.data[keep]
        # a direction z strictly inside the cone: 1 + tau + r^2, with r the
        # strike mapped onto [-1, 1], rises in maturity, is convex in strike
        # and positive, so every row of S z is positive; kept as bounds that
        # hold through rounding.  Centring the parabola makes its curvature
        # larger for its size than (K / K_max)^2 would, and the error bounds
        # of the default run 3x smaller
        K, T = np.meshgrid(grid.strikes, grid.maturities)
        k_lo, k_hi = grid.strikes[0], grid.strikes[-1]
        r = (2.0 * K - k_lo - k_hi) / (k_hi - k_lo)
        z = self.scale((1.0 + T + r**2).ravel())
        Sz, spread = self.values(z), _ROUND * self.rounding(z)
        self.interior = Sz + spread
        self.interior_min = float((Sz - spread).min())
        self.interior_norm = float(np.linalg.norm(z)) * (1.0 + _ROUND)
        if not self.interior_min > 0:
            raise ValueError("the grid's cone has no interior direction")
        # each node's magnitude |v_j| + (|S^T| lam)_j is at most terms_i /
        # |S_ij| for every row i that touches it, so the norm of that
        # vector, which bounds ||v|| and ||u||, is at most this factor times
        # the largest rounding term
        self.spread_per_term = float(np.sqrt(n) / self.abs_ST.max(axis=1).toarray().min())

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Scaled coordinates ``sqrt(omega) * x``."""
        return self.sqrt_omega * x

    def values(self, u: np.ndarray) -> np.ndarray:
        """S u: every constraint's value, scaled to a unit normal."""
        return self.S @ u

    def rounding(self, v: np.ndarray) -> np.ndarray:
        """Magnitude of the terms summed into each scaled value of S v, the
        scale of its rounding."""
        return self.abs_S @ np.abs(v)

    def threshold(self, absolute: float, relative: float,
                  terms: np.ndarray) -> np.ndarray:
        """Per-row threshold on the scaled values: ``absolute`` price units
        (``_FEAS_TOL`` or ``_ADD_TOL``, scaled once per cone) in scaled
        units, or ``relative`` times the rounding terms, whichever is
        larger."""
        return np.maximum(self._floors[absolute], relative * terms)

    def combine(self, lam: np.ndarray) -> np.ndarray:
        """``S^T lam``."""
        return self.ST @ lam

    def check(self, v: np.ndarray, lam: np.ndarray):
        """``u = v + S^T lam``, its values ``S u`` and their rounding terms,
        the magnitude of the terms summed into each value.  Rows with
        ``lam = 0`` add exact zeros to all three."""
        u = v + self.combine(lam)
        spread = np.abs(v) + self.abs_ST @ np.abs(lam)
        return u, self.values(u), self.abs_S @ spread

    def gram_band(self, W: np.ndarray) -> np.ndarray:
        """Lower band storage of S[W] S[W]^T for increasing row indices W.

        The band holds as many diagonals as the coupling of W's rows needs;
        in this row order that is far fewer than W has rows.
        """
        nbr = self.nbr_lower[W]
        # position of each row within W, -1 if absent
        where = np.full(self.m + 1, -1)
        where[W] = np.arange(W.size)
        d = where[nbr] - np.arange(W.size)[:, None]
        i, j = (d >= 0).nonzero()
        ab = np.zeros((int(d.max()) + 1, W.size), order="F")
        ab[d[i, j], i] = self.gval_lower[W[i], j]
        return ab


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


def _newton(cone: _Cone, b: np.ndarray, W: np.ndarray,
            warm: ProjectionWarmStart):
    """One banded Newton solve ``G_WW lam = -b_W`` on the increasing rows W.

    The solve uses a banded Cholesky factor of the ridged Gram matrix, or
    ``warm``'s kept one if it was made for W; refinement recovers the
    unridged solution on the range of ``G_WW``, where the projection is
    determined.  On a linearly dependent W the ridge keeps the solution's
    null-space part, which the projection does not see, near zero.  With
    ``b = S v`` and W the working set this is the active-set trial's
    multipliers; with ``b = S u`` at the current point and W the free rows
    it is the safeguard's Newton step.

    Returns the solution on W, or None if the factorisation failed.
    """
    if W.size == 0:
        return np.zeros(0)
    if warm.factor is not None and np.array_equal(warm.factor[0], W):
        warm.factor_reuses += 1
        _, ab, factor = warm.factor
    else:
        ab = cone.gram_band(W)
        factor, info = _factor(ab)
        if info != 0:
            return None
        warm.factor = (W, ab, factor)
    return _refined_solve(ab, factor, -b[W])


def _breached(cone: _Cone, s: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The constraints breached beyond the working-set threshold."""
    return s < -cone.threshold(_ADD_TOL, _ADD_REL, terms)


def _safeguard(cone: _Cone, v: np.ndarray, lam: np.ndarray,
               warm: ProjectionWarmStart):
    """One descent step of the dual from the multipliers ``lam >= 0``.

    The step solves Newton's equations (``_newton``) on the free rows: the
    positive multipliers and the breached rows, less every row at zero that
    the solution would push negative, solved again until none is left
    (Lawson and Hanson's rule).  Left with its support only, and stationary
    on it, the step frees the most breached row alone, once; if a
    factorisation fails it keeps its last solution, or takes the projected
    gradient.  The search along the arc ``[lam + alpha d]_+`` (More and
    Toraldo 1991) takes the point of least q among ``_BREAKPOINTS`` of the
    arc's breakpoints (the first of them all), the minimiser of q along the
    line and the arc's end, which lowers q unless ``lam`` is stationary; q's
    change is computed exactly as ``s . D + 1/2 ||S^T D||^2`` for the step
    D.  If no point lowers q the step keeps ``lam``.

    Returns the new multipliers, the ``cone.check`` arrays of their point
    and the next working set: the positive multipliers and breached rows.
    """
    warm.safeguard_steps += 1
    u, s, terms = cone.check(v, lam)
    scale = cone.threshold(_ADD_TOL, _ADD_REL, terms)
    pos, added = lam > 0, False
    free, D = pos | (s < -scale), -s
    # the solves may reuse the factor the trials keep, but leave it as it is
    solves = ProjectionWarmStart(factor=warm.factor)
    while True:
        d = _newton(cone, s, free.nonzero()[0], solves)
        if d is None:
            break
        D = np.zeros(cone.m)
        D[free] = d
        block = free & (D < 0) & ~pos
        if not block.any():
            break
        free &= ~block
        if (free & ~pos).any():
            continue
        breach = s / scale
        if (np.abs(breach[pos]) > 1.0).any():
            continue
        if added or breach.min() >= -1.0:
            break
        added = True
        free[breach.argmin()] = True
    ratio = np.full(cone.m, np.inf)
    down = D < 0
    ratio[down] = lam[down] / -D[down]
    alphas = np.unique(ratio[(ratio > 0) & (ratio < 1)])
    if alphas.size > _BREAKPOINTS:
        pick = np.geomspace(1, alphas.size, _BREAKPOINTS).astype(int) - 1
        alphas = alphas[np.unique(pick)]
    SD = cone.combine(D)
    line = -(s @ D) / (SD @ SD or 1.0)
    alphas = np.unique(np.append(alphas, [min(line, 1.0), 1.0]))
    points = np.maximum(lam + alphas[:, None] * D, 0.0)
    points[ratio <= alphas[:, None]] = 0.0
    # S^T of every candidate's step at once, one column each
    SP = cone.ST @ (points - lam).T
    dq = np.einsum("ik,ik->k", SP, u[:, None] + 0.5 * SP)
    new = points[dq.argmin()] if dq.min() < 0 else lam
    u, s, terms = cone.check(v, new)
    return new, (u, s, terms), (new > 0) | _breached(cone, s, terms)


def _solve_dual(cone: _Cone, v: np.ndarray, b: np.ndarray,
                warm: ProjectionWarmStart):
    """Multipliers of the projection of v (scaled coordinates) onto the
    cone; ``b`` is ``S v``.

    One loop minimises the dual ``q(lam) = 1/2 ||v + S^T lam||^2`` over
    ``lam >= 0``; every iterate it accepts is dual feasible and lowers q
    strictly.  Each step solves the block active-set trial on the working
    set (``_newton``), which starts as ``warm.active``, or the rows breached
    at v when that is empty.  A trial that is nonnegative and breaches
    nothing ends the solve.  Otherwise the clipped trial becomes the iterate
    if it lowers q, and the next working set is the trial's positive
    multipliers and the rows it breaches outside the working set.  A trial
    that does not lower q, after a previous trial that did not either, or
    whose factorisation failed, is followed by a descent step from the
    iterate (``_safeguard``), which sets the next working set and breaks any
    cycle of working sets.  The solve ends if that point meets the KKT
    conditions, or if the step cannot lower q; then the certificate passes
    it or raises.  A solve not ended after ``_NEWTON_STEPS`` steps raises
    ``RuntimeError``.

    Returns the multipliers and the ``cone.check`` arrays of their point
    for the certificate.
    """
    # the iterate, its point u = v + S^T lam and whether the last step
    # accepted no trial
    lam, u, stuck = np.zeros(cone.m), v.copy(), False
    if warm.active.size:
        inW = np.zeros(cone.m, dtype=bool)
        inW[warm.active] = True
    else:
        inW = _breached(cone, b, cone.rounding(v))
    for _ in range(_NEWTON_STEPS):
        warm.newton_steps += 1
        W = inW.nonzero()[0]
        lam_W = _newton(cone, b, W, warm)
        trial = np.zeros(cone.m)
        if lam_W is not None:
            trial[W] = lam_W
        check = cone.check(v, trial)
        breach = _breached(cone, check[1], check[2])
        if not breach.any() and trial.min() >= 0:
            return trial, check
        # the clipped trial P lowers q if s . D + 1/2 ||S^T D||^2 < 0 for
        # D = P - lam, with s . D = u . S^T D
        P = np.maximum(trial, 0.0)
        SD = cone.combine(P - lam)
        rule = (trial > 0) | (breach & ~inW)
        if lam_W is not None and np.einsum("i,i->", SD, u + 0.5 * SD) < 0:
            lam, inW, stuck = P, rule, False
            u += SD
            continue
        if not stuck and lam_W is not None:
            inW, stuck = rule, True
            continue
        stuck = True
        new, check, inW = _safeguard(cone, v, lam, warm)
        # a step that cannot move is stationary up to rounding and ends the
        # solve for the certificate, which passes or raises
        kkt = (new == lam).all()
        lam, u = new, check[0]
        slack = np.where(lam > 0, np.abs(check[1]), 0.0)
        if kkt or not (_breached(cone, check[1], check[2])
                       | _breached(cone, -slack, check[2])).any():
            return lam, check
    raise RuntimeError(
        f"cone projection: the dual solve did not converge in {_NEWTON_STEPS} "
        "steps")


def _error_bound(cone: _Cone, lam: np.ndarray, s: np.ndarray,
                 terms: np.ndarray) -> float:
    """Upper bound e on the Omega-distance from the point u of multipliers
    ``lam >= 0`` (``s`` and ``terms`` are ``S u`` and its rounding terms, as
    ``cone.check`` gives them) to the exact projection of the input v, in
    scaled coordinates.

    ``u + t z`` lies in the cone for the interior direction z and
    ``t = max(0, max(-s_i)) / min(S z)``, rounding allowed for.  The
    objective 1/2 ||y - v||^2 is 1-strongly convex, so the squared distance
    from that point to the exact projection is at most twice the duality
    gap at ``lam`` (Boyd and Vandenberghe 2004, "Convex Optimization",
    5.5), ``lam . s + t lam . S z + 1/2 t^2 ||z||^2``, with each value's
    rounding allowed for.  Hence ``e = sqrt(2 gap) + t ||z||``, plus the
    rounding of u, of the input's scaling and of the returned
    x = u / sqrt(omega): ``_ROUND`` times the norm of ``|v| + |S^T| lam``,
    which ``cone.spread_per_term`` bounds by the largest rounding term.
    The final clip x >= 0 is the Omega-projection onto the nonnegative
    orthant, which contains the cone, so it moves x no farther from the
    feasible point and needs no allowance.
    """
    # the dots run over every row: lam is 0 off the active set, and one dot
    # costs less than gathering the active rows first
    largest = _ROUND * float(terms.max())
    t = (max(0.0, -float(s.min())) + largest) / cone.interior_min
    gap = (float(lam @ s) + t * float(lam @ cone.interior)
           + _ROUND * float(lam @ terms))
    shift = t * cone.interior_norm
    resid = largest * cone.spread_per_term
    return math.sqrt(2.0 * max(gap, 0.0) + (shift + resid)**2) + shift + resid


def _certify(cone: _Cone, lam: np.ndarray, check):
    """The point of multipliers ``lam``, its active set and its error bound
    (``_error_bound``), checked against the KKT certificate; raises
    ``RuntimeError`` if it fails.

    The certificate runs on the very u whose x is returned: the solver's
    last point, ``check`` = (u, S u, rounding terms) as ``cone.check`` gives
    them.
    """
    active = (lam > 0).nonzero()[0]
    u, s, terms = check
    cert = cone.threshold(_FEAS_TOL, _FEAS_REL, terms)
    breach = -float((s / cert).min())
    slack = float((np.abs(s[active]) / cert[active]).max(initial=0.0))
    if not (lam.min() >= 0 and breach <= 1.0 and slack <= 1.0):
        raise RuntimeError(
            "cone projection failed its KKT certificate: largest breach "
            f"{breach:.3g} and largest slack of an active constraint "
            f"{slack:.3g}, in units of the tolerance")
    return u, active, _error_bound(cone, lam, s, terms)


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
    ``warm.error_max`` is raised to the result's bound on its
    Omega-distance from the exact projection.
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
    warm.calls += 1
    x = values.ravel()
    v = cone.scale(x)
    b = cone.values(v)
    terms = cone.rounding(v)
    if (b >= -cone.threshold(_ADD_TOL, _ADD_REL, terms)).all():
        # in the cone up to the working-set threshold: returned unchanged,
        # at most t ||z|| from its projection, the distance to the feasible
        # point v + t z (_error_bound)
        t = ((max(0.0, -float(b.min())) + _ROUND * float(terms.max()))
             / cone.interior_min)
        e = t * cone.interior_norm
    else:
        lam, check = _solve_dual(cone, v, b, warm)
        u, warm.active, e = _certify(cone, lam, check)
        x = u / cone.sqrt_omega
    warm.error_max = max(warm.error_max, e)
    # x is the checked input or passed its certificate, which no non-finite
    # point passes
    return Surface._trusted(np.maximum(x.reshape(values.shape), 0.0), grid)


def projection_certificates(C_raw, w: WeightField,
                            trials: int = 10,
                            rng_seed: int = 0,
                            grid: Grid2D | None = None) -> ProjectionCertificates:
    """Certified Lipschitz ratio, its audit, and the Dupire-TV-nonincrease
    certificate.

    Every projection made here carries an upper bound e on its distance to
    the exact projection (``_error_bound``).  The exact projection is
    nonexpansive, so the certified ratio ``lip_certified = 1 + 2 max(e) /
    delta``, with delta the smallest distance of an audited pair, bounds
    ||P(C+d) - P(C+d')||_w / ||d - d'||_w over the audited pairs; the C3
    gate reads it.  ``lip_emp`` is that ratio as measured over ``trials``
    seeded Gaussian perturbation pairs at 1% of the surface norm, an audit.
    dup_tv_path tracks the Dupire total variation along the proximal
    homotopy from C_raw to its projection, at ``DUP_PATH_STEPS + 1`` equally
    spaced points.

    C_raw is projected first; that projection is the end of the Dupire path.
    Each perturbed surface is then projected on its own, certified by
    ``project_to_cone``, starting from where the base projection ended: its
    active set as the first working set, and its kept factor, which serves
    the first trial when that set is the base's last working set.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(C_raw, Surface):
        grid = C_raw.grid
        base = C_raw.values
    else:
        if grid is None:
            raise ValueError("grid required when C_raw is a raw array")
        base = np.asarray(C_raw, dtype=float)

    warm = ProjectionWarmStart()
    proj = project_to_cone(base, w, grid=grid, warm=warm).values
    start = warm.active, warm.factor
    rng = np.random.default_rng(rng_seed)
    scale = 0.01 * weighted_norm(base, w, grid)
    lip, delta = 0.0, np.inf
    for _ in range(trials):
        d = rng.standard_normal((2,) + base.shape)
        d *= np.array([scale / weighted_norm(x, w, grid) for x in d])[:, None, None]
        p = []
        for x in base + d:
            warm.active, warm.factor = start
            p.append(project_to_cone(x, w, grid=grid, warm=warm).values)
        denom = weighted_norm(d[0] - d[1], w, grid)
        if denom > 0:
            lip = max(lip, weighted_norm(p[0] - p[1], w, grid) / denom)
            delta = min(delta, denom)

    tvs = []
    for t in range(DUP_PATH_STEPS + 1):
        lam = t / DUP_PATH_STEPS
        blend = (1 - lam) * base + lam * proj
        fld = dupire_field(blend, grid)
        tvs.append(dupire_total_variation(fld, w))
    tvs = np.asarray(tvs)
    dup_ok = bool(np.all(np.diff(tvs) <= 1e-9))
    return ProjectionCertificates(
        lip_emp=float(lip), lip_certified=float(1.0 + 2.0 * warm.error_max / delta),
        pair_distance_min=float(delta), dup_ok=dup_ok, dup_tv_path=tvs,
        projections=warm.counters())
