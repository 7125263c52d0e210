"""Arbitrage-free synthetic market generator and extraction utilities.

Closed-form call surfaces under a constant or smile implied-vol descriptor,
vega-scaled Gaussian noise, Breeden-Litzenberger density extraction for the
bridge marginals, per-maturity sample clouds for the chain statistics, and
the discrete 30-day variance replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .fd import FdConfig, fd_derivatives
from .grid import Grid2D, Surface

__all__ = [
    "MarketParams",
    "bs_price",
    "bs_vega",
    "generate_surface",
    "extract_density",
    "sample_clouds",
    "vix2_replication",
]


@dataclass(frozen=True)
class MarketParams:
    spot: float = 100.0
    rate: float = 0.0
    dividend: float = 0.0
    vol_kind: str = "constant"       # "constant" | "smile"
    vol_level: float = 0.2           # constant sigma, or smile base a
    smile_curvature: float = 0.0     # smile b: sigma = a + b*((K-spot)/spot)^2
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.spot <= 0:
            raise ValueError("spot must be positive")
        if self.vol_kind not in ("constant", "smile"):
            raise ValueError("vol_kind must be 'constant' or 'smile'")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    def sigma(self, K, tau=None):
        K = np.asarray(K, dtype=float)
        if self.vol_kind == "constant":
            return np.broadcast_to(self.vol_level, K.shape).astype(float)
        moneyness = (K - self.spot) / self.spot
        sig = self.vol_level + self.smile_curvature * moneyness**2
        if np.any(sig <= 0):
            raise ValueError("vol descriptor produced a nonpositive volatility")
        return sig


def bs_price(spot, strike, tau, sigma, rate=0.0, dividend=0.0):
    """Black-Scholes call price, vectorized."""
    strike = np.asarray(strike, dtype=float)
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    st = sigma * np.sqrt(tau)
    d1 = (np.log(spot / strike) + (rate - dividend + sigma**2 / 2) * tau) / st
    d2 = d1 - st
    return (spot * np.exp(-dividend * tau) * ndtr(d1)
            - strike * np.exp(-rate * tau) * ndtr(d2))


def _norm_pdf(x):
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def bs_vega(spot, strike, tau, sigma, rate=0.0, dividend=0.0):
    strike = np.asarray(strike, dtype=float)
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    st = sigma * np.sqrt(tau)
    d1 = (np.log(spot / strike) + (rate - dividend + sigma**2 / 2) * tau) / st
    return spot * np.exp(-dividend * tau) * _norm_pdf(d1) * np.sqrt(tau)


def generate_surface(params: MarketParams, grid: Grid2D):
    """(clean, noisy) call-price surfaces; the clean one is feasible by
    construction and the noise is vega-scaled iid Gaussian, seeded."""
    K, T = np.meshgrid(grid.strikes, grid.maturities)
    sig = params.sigma(K, T)
    clean = bs_price(params.spot, K, T, sig, params.rate, params.dividend)
    from .projection import feasibility_violation
    viol = feasibility_violation(clean, grid)
    if viol > 1e-9:
        raise ValueError(
            f"vol descriptor produced an infeasible clean surface (violation {viol:.2e})")
    if params.noise_sigma > 0:
        rng = np.random.default_rng(params.seed)
        scale = bs_vega(params.spot, K, T, sig, params.rate, params.dividend)
        scale = scale / scale.max()
        noisy = clean + params.noise_sigma * scale * rng.standard_normal(grid.shape)
        noisy = np.maximum(noisy, 0.0)
    else:
        noisy = clean.copy()
    return (Surface(clean, grid), Surface(noisy, grid, is_price=True))


def extract_density(C, grid: Grid2D, tau_index: int,
                    fd: FdConfig = FdConfig(), clip: float = 1e-12):
    """Risk-neutral strike density at one maturity from price curvature.

    Trapezoid node masses of the curvature row, tiny negatives clipped,
    renormalized to sum 1.  Returns (density, renormalization_factor).
    """
    from .grid import _as_values, trapezoid_weights
    values = _as_values(C)
    c_kk, _ = fd_derivatives(values, grid, fd)
    row = c_kk[tau_index]
    mass = row * trapezoid_weights(grid.strikes)
    mass = np.where(mass > clip, mass, 0.0)
    total = mass.sum()
    if total <= 0:
        raise ValueError("degenerate density: no positive curvature mass")
    return mass / total, float(total)


def sample_clouds(density: np.ndarray, x: np.ndarray, sizes, seed: int = 0,
                  jitter: float = 0.0):
    """Seeded iid draws from a discrete strike density, one cloud per size."""
    density = np.asarray(density, dtype=float)
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    clouds = []
    for n in sizes:
        draw = rng.choice(x, size=int(n), p=density)
        if jitter > 0:
            draw = draw + jitter * rng.standard_normal(draw.shape)
        clouds.append(draw)
    return clouds


def vix2_replication(put_prices, call_prices, strikes, spot, rate, tau) -> float:
    """Discrete 30-day-style variance replication by the trapezoid rule.

    OTM selector: puts strictly below spot, calls at or above.
    """
    K = np.asarray(strikes, dtype=float)
    P = np.asarray(put_prices, dtype=float)
    Cc = np.asarray(call_prices, dtype=float)
    if np.any(K <= 0):
        raise ValueError("strikes must be positive")
    if np.any(np.diff(K) <= 0):
        raise ValueError("strikes must be strictly increasing")
    if tau <= 0:
        raise ValueError("tau must be positive")
    otm = np.where(K < spot, P, Cc)
    integrand = otm / K**2
    dK = np.diff(K)
    total = float(np.sum(0.5 * dK * (integrand[:-1] + integrand[1:])))
    return float(2.0 * np.exp(rate * tau) / tau * total)
