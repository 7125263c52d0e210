"""Windowed local-polynomial finite differences and the clipped Dupire field.

Strike curvature C_KK comes from quadratic least-squares fits on sliding
windows (cubic at the one-sided boundary windows, which keeps the O(h_K^2)
truncation order there).  The calendar derivative C_tau uses linear fits on
backward-shifted windows and is genuinely first order in h_tau.  Both
operators are linear maps and are exposed as explicit stencil matrices;
``fd_derivatives`` builds them once per grid and window pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid2D, WeightField, _as_values, _ls_derivative_row

__all__ = [
    "FdConfig",
    "DupireField",
    "fd_derivatives",
    "dupire_field",
    "dupire_total_variation",
    "dkk_matrix",
    "dtau_matrix",
]


@dataclass(frozen=True)
class FdConfig:
    window_K: int = 5
    window_tau: int = 3
    clip_lo: float = 1e-6
    clip_hi: float = 4.0
    denom_floor: float = 1e-8

    def __post_init__(self):
        if self.window_K < 3 or self.window_K % 2 == 0:
            raise ValueError("window_K must be an odd integer >= 3")
        if self.window_tau < 3 or self.window_tau % 2 == 0:
            raise ValueError("window_tau must be an odd integer >= 3")
        if not (0 < self.clip_lo < self.clip_hi):
            raise ValueError("need 0 < clip_lo < clip_hi")
        if self.denom_floor <= 0:
            raise ValueError("denom_floor must be positive")


@dataclass
class DupireField:
    """Clipped local-variance field with activation masks."""

    sigma2: np.ndarray
    clipped_mask: np.ndarray
    floored_mask: np.ndarray
    grid: Grid2D


def dkk_matrix(strikes: np.ndarray, window: int = 5) -> np.ndarray:
    """Row-operator matrix for the second strike derivative.

    Interior nodes use a centered quadratic LS window; shifted boundary
    windows use a cubic fit so the truncation order stays at h_K^2.
    """
    x = np.asarray(strikes, dtype=float)
    n = x.size
    if window > n:
        raise ValueError(f"window_K={window} larger than strike axis length {n}")
    half = window // 2
    S = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - half, 0), n - window)
        sl = slice(lo, lo + window)
        t = x[sl] - x[i]
        centered = lo == i - half
        degree = 2 if centered else min(3, window - 1)
        S[i, sl] = _ls_derivative_row(t, degree, 2)
    return S


def dtau_matrix(maturities: np.ndarray, window: int = 3) -> np.ndarray:
    """Column-operator matrix for the first maturity derivative.

    Linear LS on a backward window ending at each node (shifted forward at
    the short end), a genuinely first-order scheme.
    """
    x = np.asarray(maturities, dtype=float)
    n = x.size
    if window > n:
        raise ValueError(f"window_tau={window} larger than maturity axis length {n}")
    S = np.zeros((n, n))
    for i in range(n):
        lo = max(i - window + 1, 0)
        sl = slice(lo, lo + window)
        t = x[sl] - x[i]
        S[i, sl] = _ls_derivative_row(t, 1, 1)
    return S


def _stencils(grid: Grid2D, cfg: FdConfig) -> tuple[np.ndarray, np.ndarray]:
    """``dkk_matrix`` and ``dtau_matrix`` of the grid at cfg's windows, built
    once per grid and window pair; the arrays are read-only."""
    key = (cfg.window_K, cfg.window_tau)
    pair = grid._stencils.get(key)
    if pair is None:
        pair = (dkk_matrix(grid.strikes, cfg.window_K),
                dtau_matrix(grid.maturities, cfg.window_tau))
        for S in pair:
            S.flags.writeable = False
        grid._stencils[key] = pair
    return pair


def fd_derivatives(C, grid: Grid2D, cfg: FdConfig = FdConfig()):
    """Return (C_KK, C_tau) fields on the grid."""
    values = _as_values(C)
    if values.shape != grid.shape:
        raise ValueError("surface shape does not match grid shape")
    SK, ST = _stencils(grid, cfg)
    c_kk = values @ SK.T
    c_tau = ST @ values
    return c_kk, c_tau


def dupire_field(C, grid: Grid2D) -> DupireField:
    """Local variance 2*C_tau / (K^2 * C_KK) with the denominator floor and
    clipping of ``FdConfig()``."""
    cfg = FdConfig()
    c_kk, c_tau = fd_derivatives(C, grid, cfg)
    denom = grid.strikes[None, :] ** 2 * c_kk
    floored = denom < cfg.denom_floor
    denom = np.maximum(denom, cfg.denom_floor)
    raw = 2.0 * c_tau / denom
    sigma2 = np.clip(raw, cfg.clip_lo, cfg.clip_hi)
    clipped = (raw < cfg.clip_lo) | (raw > cfg.clip_hi)
    return DupireField(sigma2=sigma2, clipped_mask=clipped, floored_mask=floored,
                       grid=grid)


def dupire_total_variation(field: DupireField, w: WeightField) -> float:
    """Weighted discrete total variation of the local-variance field.

    Sum of |first difference| along both axes, each edge weighted by the mean
    of its two node weights.
    """
    s = field.sigma2
    ww = w.w
    dk = np.abs(np.diff(s, axis=1)) * 0.5 * (ww[:, :-1] + ww[:, 1:])
    dt = np.abs(np.diff(s, axis=0)) * 0.5 * (ww[:-1, :] + ww[1:, :])
    return float(dk.sum() + dt.sum())
