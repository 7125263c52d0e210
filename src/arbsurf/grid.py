"""Strike/maturity mesh, vega-weight measure and the weighted L2 geometry.

Every downstream stage (finite differences, projection, bridge certificates,
risk assembly) measures errors in the single weighted norm defined here:
a 2D trapezoid discretization of ``int f(K,tau)^2 w(K,tau) dK dtau``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid2D",
    "WeightField",
    "Surface",
    "AdmissibilityReport",
    "trapezoid_weights",
    "quadrature_matrix",
    "weighted_norm",
    "weighted_inner",
    "unweighted_norm",
    "vega_bump_weight",
    "uniform_weight",
    "check_mesh_admissibility",
]


# vega proxy: a Gaussian bump whose width is this share of the strike span,
# plus a floor that keeps the wings strictly positive so kappa_W is finite
VEGA_BUMP_WIDTH = 0.25
VEGA_BUMP_FLOOR = 0.05
# mesh check: curvature envelopes are this quantile of local quadratic fits
# on windows of this many nodes
MESH_WINDOW = 5
MESH_QUANTILE = 0.10
# mesh gate: h_K may be at most MESH_C1 times the strike envelope, h_tau at
# most MESH_C2 times the maturity envelope
MESH_C1 = 2000.0
MESH_C2 = 50.0


@dataclass(frozen=True)
class Grid2D:
    """Rectangular (strike, maturity) mesh.

    Maturities index rows, strikes index columns everywhere in this package.

    Parameters
    ----------
    strikes : array_like
        Strictly increasing strike levels, length >= 3.
    maturities : array_like
        Strictly increasing positive times to maturity (years), length >= 3.
    """

    strikes: np.ndarray
    maturities: np.ndarray
    h_K: float = field(init=False)
    h_tau: float = field(init=False)

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        maturities = np.asarray(self.maturities, dtype=float)
        if strikes.ndim != 1 or strikes.size < 3:
            raise ValueError("strikes must be a 1D array with at least 3 points")
        if maturities.ndim != 1 or maturities.size < 3:
            raise ValueError("maturities must be a 1D array with at least 3 points")
        if np.any(np.diff(strikes) <= 0):
            raise ValueError("strikes must be strictly increasing")
        if np.any(np.diff(maturities) <= 0):
            raise ValueError("maturities must be strictly increasing")
        if maturities[0] <= 0:
            raise ValueError("maturities must be positive")
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "maturities", maturities)
        object.__setattr__(self, "h_K", float(np.max(np.diff(strikes))))
        object.__setattr__(self, "h_tau", float(np.max(np.diff(maturities))))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.maturities.size, self.strikes.size)

    @cached_property
    def _quadrature(self) -> np.ndarray:
        q = np.outer(trapezoid_weights(self.maturities),
                     trapezoid_weights(self.strikes))
        q.flags.writeable = False
        return q

    @cached_property
    def _stencils(self) -> dict:
        """Stencil matrices of this grid, read-only: ``fd``'s by window pair,
        ``check_mesh_admissibility``'s by axis and window."""
        return {}


@dataclass(frozen=True)
class WeightField:
    """Positive per-node weight density, scaled to unit mean over the grid."""

    w: np.ndarray
    w_min: float = field(init=False)
    w_max: float = field(init=False)
    kappa_W: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and strictly positive")
        if abs(w.mean() - 1.0) > 1e-12:
            raise ValueError("weights must have unit mean over the grid")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_min", float(w.min()))
        object.__setattr__(self, "w_max", float(w.max()))
        object.__setattr__(self, "kappa_W", float(np.sqrt(w.max() / w.min())))


@dataclass
class Surface:
    """Call-price values (or any scalar field) on a Grid2D, maturities as rows."""

    values: np.ndarray
    grid: Grid2D
    is_price: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("surface values must be finite")
        if self.is_price and np.any(values < 0):
            raise ValueError("price surface values must be nonnegative")
        self.values = values

    @classmethod
    def _trusted(cls, values: np.ndarray, grid: Grid2D) -> "Surface":
        """A price surface of values its maker already holds to be a finite,
        nonnegative float array of the grid's shape, built without checking
        them again."""
        surface = cls.__new__(cls)
        surface.values, surface.grid, surface.is_price = values, grid, True
        return surface


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Composite trapezoid quadrature weights for nodes ``x``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    d = np.diff(x)
    out[:-1] += d / 2.0
    out[1:] += d / 2.0
    return out


def quadrature_matrix(grid: Grid2D) -> np.ndarray:
    """Tensor trapezoid weights T_i * S_j on the 2D grid (maturity rows).

    Computed once per grid; the array is read-only.
    """
    return grid._quadrature


def _as_values(f) -> np.ndarray:
    if isinstance(f, Surface):
        return f.values
    return np.asarray(f, dtype=float)


def weighted_inner(f, g, w: WeightField, grid: Grid2D) -> float:
    """Weighted L2 inner product <f, g>_w by 2D trapezoid quadrature."""
    fv, gv = _as_values(f), _as_values(g)
    if fv.shape != grid.shape or gv.shape != grid.shape:
        raise ValueError("field shape does not match grid shape")
    if w.w.shape != grid.shape:
        raise ValueError("weight shape does not match grid shape")
    return float(np.sum(fv * gv * w.w * quadrature_matrix(grid)))


def weighted_norm(f, w: WeightField, grid: Grid2D) -> float:
    """Weighted L2 norm ||f||_w; the single yardstick used by all stages."""
    return float(np.sqrt(max(weighted_inner(f, f, w, grid), 0.0)))


def unweighted_norm(f, grid: Grid2D) -> float:
    fv = _as_values(f)
    if fv.shape != grid.shape:
        raise ValueError("field shape does not match grid shape")
    return float(np.sqrt(np.sum(fv**2 * quadrature_matrix(grid))))


def uniform_weight(grid: Grid2D) -> WeightField:
    return WeightField(np.ones(grid.shape))


def vega_bump_weight(grid: Grid2D, spot: float) -> WeightField:
    """Gaussian-bump vega proxy centered at the money, unit mean, of width
    ``VEGA_BUMP_WIDTH`` of the strike span over a ``VEGA_BUMP_FLOOR``."""
    K = grid.strikes
    width = VEGA_BUMP_WIDTH * (K[-1] - K[0])
    bump = np.exp(-((K - spot) / width) ** 2) + VEGA_BUMP_FLOOR
    w = np.tile(bump, (grid.maturities.size, 1))
    return WeightField(w / w.mean())


@dataclass
class AdmissibilityReport:
    """Mesh fineness check against robust local-curvature envelopes."""

    passed: bool
    envelope_K: float
    envelope_tau: float
    bound_K: float
    bound_tau: float
    h_K: float
    h_tau: float
    reason: str = ""


def _ls_derivative_row(t: np.ndarray, degree: int, order: int) -> np.ndarray:
    """Stencil row: ``order``-th derivative at t=0 of the degree-LS fit."""
    V = np.vander(t, degree + 1, increasing=True)
    P = np.linalg.pinv(V)
    if order == 1:
        return P[1]
    if order == 2:
        return 2.0 * P[2]
    raise ValueError("order must be 1 or 2")


def _curvature_stencil(grid: Grid2D, axis: str, window: int) -> np.ndarray:
    """Row operator of the second derivative of a quadratic LS fit on each
    node's ``window`` nodes along ``axis`` ("strikes" or "maturities"), the
    window shifted inward at the edges; built once per grid, read-only."""
    x = getattr(grid, axis)
    n = x.size
    window = min(window, n)
    if window < 3:
        raise ValueError("need at least 3 nodes per axis for local quadratic fits")
    S = grid._stencils.get((axis, window))
    if S is None:
        S = np.zeros((n, n))
        for i in range(n):
            lo = min(max(i - window // 2, 0), n - window)
            S[i, lo:lo + window] = _ls_derivative_row(x[lo:lo + window] - x[i], 2, 2)
        S.flags.writeable = False
        grid._stencils[(axis, window)] = S
    return S


def check_mesh_admissibility(C: Surface, grid: Grid2D) -> AdmissibilityReport:
    """Check h_K and h_tau against robust lower envelopes of local curvature.

    The strike envelope is the ``MESH_QUANTILE`` of per-node local quadratic
    curvature estimates in K on ``MESH_WINDOW`` nodes; the maturity envelope
    likewise for the term-structure second differences in tau.  The bounds
    are ``MESH_C1`` and ``MESH_C2`` times the envelopes.  A FAIL is
    reported, never raised.
    """
    values = _as_values(C)
    if values.shape != grid.shape:
        raise ValueError("surface shape does not match grid shape")
    n_tau, n_K = grid.shape
    if n_K < 3 or n_tau < 3:
        raise ValueError("too few nodes for local quadratic fits")

    curv_K = values @ _curvature_stencil(grid, "strikes", MESH_WINDOW).T
    curv_tau = _curvature_stencil(
        grid, "maturities",
        min(MESH_WINDOW, n_tau if n_tau % 2 else n_tau - 1)) @ values

    env_K = float(np.quantile(np.abs(curv_K), MESH_QUANTILE))
    env_tau = float(np.quantile(np.abs(curv_tau), MESH_QUANTILE))
    bound_K = MESH_C1 * env_K
    bound_tau = MESH_C2 * env_tau

    reason = ""
    tiny = 1e-12 * (1.0 + float(np.max(np.abs(values))))
    if env_K <= tiny or env_tau <= tiny:
        passed = False
        reason = "degenerate surface: curvature envelope is zero"
    else:
        passed = grid.h_K <= bound_K and grid.h_tau <= bound_tau
        if not passed:
            parts = []
            if grid.h_K > bound_K:
                parts.append(f"h_K={grid.h_K:.4g} > c1*envelope_K={bound_K:.4g}")
            if grid.h_tau > bound_tau:
                parts.append(f"h_tau={grid.h_tau:.4g} > c2*envelope_tau={bound_tau:.4g}")
            reason = "; ".join(parts)

    return AdmissibilityReport(
        passed=passed,
        envelope_K=env_K,
        envelope_tau=env_tau,
        bound_K=bound_K,
        bound_tau=bound_tau,
        h_K=grid.h_K,
        h_tau=grid.h_tau,
        reason=reason,
    )
