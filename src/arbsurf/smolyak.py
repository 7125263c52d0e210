"""Anisotropic sparse-grid CPWL interpolation and its error frontier.

The interpolant is the classical combination-technique sum of tensor bilinear
interpolants over a slanted dyadic index set.  It is materialized as a single
CPWL function on the overlay tensor mesh of the activated dyadic axes, which
keeps the anisotropic convergence rate of the abstract operator (a Delaunay
re-interpolation between sparse nodes alone would degrade it to first order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cpwl import CpwlFunction, compile_to_relu, triangulate_tensor_grid
from .grid import trapezoid_weights

__all__ = [
    "AnisotropyConfig",
    "build_index_set",
    "combination_coefficients",
    "smolyak_fit",
    "error_frontier",
]

# the error frontier measures each level on a dense grid of this many
# (x, y) points
HELDOUT_SHAPE = (97, 89)


@dataclass(frozen=True)
class AnisotropyConfig:
    """Mixed-smoothness orders and the slanted index-set geometry."""

    beta_K: int = 1
    beta_tau: int = 1
    level_L: int = 0
    # the index-set slopes beta_bar / beta, set from the orders
    a_K: float = field(init=False)
    a_tau: float = field(init=False)

    def __post_init__(self):
        if self.beta_K < 1 or self.beta_tau < 1:
            raise ValueError("smoothness orders must be positive integers")
        if self.level_L < 0:
            raise ValueError("level_L must be nonnegative")
        object.__setattr__(self, "a_K", self.beta_bar / self.beta_K)
        object.__setattr__(self, "a_tau", self.beta_bar / self.beta_tau)

    @property
    def beta_bar(self) -> int:
        return min(self.beta_K, self.beta_tau)


def build_index_set(cfg: AnisotropyConfig) -> list[tuple[int, int]]:
    """All lattice pairs (i, j) with a_K*i + a_tau*j <= L, lex-sorted."""
    L = cfg.level_L
    out = []
    i = 0
    while cfg.a_K * i <= L + 1e-12:
        j = 0
        while cfg.a_K * i + cfg.a_tau * j <= L + 1e-12:
            out.append((i, j))
            j += 1
        i += 1
    return out


def combination_coefficients(index_set) -> dict[tuple[int, int], int]:
    """Inclusion-exclusion coefficients of the sparse-grid combination."""
    members = set(index_set)
    coeffs = {}
    for (i, j) in members:
        c = 0
        for e1 in (0, 1):
            for e2 in (0, 1):
                if (i + e1, j + e2) in members:
                    c += (-1) ** (e1 + e2)
        if c != 0:
            coeffs[(i, j)] = c
    return coeffs


def _axis_points(level: int, lo: float, hi: float) -> np.ndarray:
    return np.linspace(lo, hi, 2**level + 1)


def _bilinear_eval(xs, ys, vals, px, py):
    """Bilinear tensor interpolation on axes of at least 2 points; exact at
    the grid nodes."""
    ix = np.clip(np.searchsorted(xs, px, side="right") - 1, 0, xs.size - 2)
    fx = (px - xs[ix]) / (xs[ix + 1] - xs[ix])
    iy = np.clip(np.searchsorted(ys, py, side="right") - 1, 0, ys.size - 2)
    fy = (py - ys[iy]) / (ys[iy + 1] - ys[iy])
    v00 = vals[iy, ix]
    v10 = vals[iy, ix + 1]
    v01 = vals[iy + 1, ix]
    v11 = vals[iy + 1, ix + 1]
    return ((1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10
            + (1 - fx) * fy * v01 + fx * fy * v11)


class _Combination:
    """Evaluable Smolyak combination over sampled dyadic tensor grids."""

    def __init__(self, target, cfg: AnisotropyConfig, domain):
        (x0, x1), (y0, y1) = domain
        self.terms = []
        coeffs = combination_coefficients(build_index_set(cfg))
        for (i, j), c in sorted(coeffs.items()):
            xs = _axis_points(i, x0, x1)
            ys = _axis_points(j, y0, y1)
            XX, YY = np.meshgrid(xs, ys)
            vals = np.asarray(target(XX, YY), dtype=float)
            if vals.shape != XX.shape:
                vals = np.broadcast_to(vals, XX.shape).astype(float)
            if not np.all(np.isfinite(vals)):
                raise ValueError("target evaluated to a non-finite value at a grid node")
            self.terms.append((c, xs, ys, vals))

    def __call__(self, px, py):
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        out = np.zeros(np.broadcast(px, py).shape)
        for c, xs, ys, vals in self.terms:
            out += c * _bilinear_eval(xs, ys, vals, px, py)
        return out


def smolyak_fit(target, cfg: AnisotropyConfig, domain) -> CpwlFunction:
    """Sparse-grid CPWL interpolant of ``target`` on a rectangle.

    Parameters
    ----------
    target : callable(X, Y) -> array
        Vectorized target function.
    cfg : AnisotropyConfig
    domain : ((x_min, x_max), (y_min, y_max))

    Returns
    -------
    CpwlFunction on the overlay tensor mesh; interpolates the target exactly
    at every activated sparse-grid node.
    """
    (x0, x1), (y0, y1) = domain
    if not (np.isfinite([x0, x1, y0, y1]).all() and x0 < x1 and y0 < y1):
        raise ValueError("domain must be a nondegenerate finite rectangle")
    index_set = build_index_set(cfg)
    comb = _Combination(target, cfg, domain)
    i_max = max(i for i, _ in index_set)
    j_max = max(j for _, j in index_set)
    xs = _axis_points(i_max, x0, x1)
    ys = _axis_points(j_max, y0, y1)
    XX, YY = np.meshgrid(xs, ys)
    return triangulate_tensor_grid(xs, ys, comb(XX, YY))


def error_frontier(target, levels, cfg: AnisotropyConfig, domain,
                   compile_nets: bool = True,
                   fits: dict | None = None) -> list[dict]:
    """Error/parameter/time frontier across levels.

    One row per level: level, node_count (CPWL vertices), param_count (of
    the compiled ReLU net, None without ``compile_nets``), weighted_error
    (the trapezoid L2 error on a held-out ``HELDOUT_SHAPE`` grid),
    wall_seconds.  ``fits`` maps a level to an interpolant already built
    from the same target and config; that level reuses it, and its
    wall_seconds then counts only the work done here.
    """
    levels = list(levels)
    if not levels or sorted(levels) != levels:
        raise ValueError("levels must be a nonempty ascending list")
    (x0, x1), (y0, y1) = domain
    hx = np.linspace(x0, x1, HELDOUT_SHAPE[0])
    hy = np.linspace(y0, y1, HELDOUT_SHAPE[1])
    HX, HY = np.meshgrid(hx, hy)
    ref = np.asarray(target(HX, HY), dtype=float)
    wq = np.outer(trapezoid_weights(hy), trapezoid_weights(hx))
    pts = np.column_stack([HX.ravel(), HY.ravel()])

    rows = []
    for L in levels:
        t0 = time.perf_counter()
        fit = (fits[L] if fits and L in fits
               else smolyak_fit(target, replace(cfg, level_L=L), domain))
        param_count = compile_to_relu(fit).param_count if compile_nets else None
        wall = time.perf_counter() - t0
        approx = fit.evaluate(pts).reshape(ref.shape)
        err = float(np.sqrt(np.sum((approx - ref) ** 2 * wq)))
        rows.append({
            "level": L,
            "node_count": fit.n_vertices,
            "param_count": param_count,
            "weighted_error": err,
            "wall_seconds": wall,
        })
    errs = np.array([r["weighted_error"] for r in rows])
    env = np.minimum.accumulate(errs)
    for r, e in zip(rows, env):
        r["error_envelope"] = float(e)
    return rows
