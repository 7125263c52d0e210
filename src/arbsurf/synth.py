"""Arbitrage-free synthetic market generator and extraction utilities.

Closed-form call surfaces under a constant or smile implied-vol descriptor,
vega-scaled Gaussian noise, Breeden-Litzenberger density extraction for the
bridge marginals, and per-maturity sample clouds for the chain statistics.

The normal CDF is Cephes' ``ndtr`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), the code ``scipy.special.ndtr`` ships, ported
so that importing this package does not load ``scipy.special``.  It runs one
element at a time on Python floats: ``math.exp`` is libm's ``exp``, as in the
compiled original, whereas ``np.exp`` differs from it in the last bit on
about 5% of arguments.  The port returns the same bits as scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fd import FdConfig, fd_derivatives
from .grid import Grid2D, Surface, _as_values, trapezoid_weights
from .projection import feasibility_violation

__all__ = [
    "MarketParams",
    "bs_price",
    "bs_vega",
    "generate_surface",
    "extract_density",
    "sample_clouds",
]

# curvature masses at or below this are dropped from an extracted density
DENSITY_CLIP = 1e-12


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


# Cephes ndtr.c: erfc = exp(-x^2) P(x)/Q(x) on [1, 8), R(x)/S(x) from 8 on;
# erf = x T(x^2)/U(x^2) on |x| < 1.  Q, S and U are monic (leading 1 left out).
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_NDTR_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
           2.23200534594684319226e3, 7.00332514112805075473e3,
           5.55923013010394962768e4)
_NDTR_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
           4.59432382970980127987e3, 2.26290000613890934246e4,
           4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996732e2   # log(DBL_MAX), Cephes' underflow cutoff


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes erf for |x| < 1, where ndtr calls it (the form is odd in x)."""
    z = x * x
    return x * _polevl(z, _NDTR_T) / _p1evl(z, _NDTR_U)


def _erfc(x: float) -> float:
    """Cephes erfc for x >= 1, where ndtr calls it."""
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    if x < 8.0:
        p, q = _polevl(x, _NDTR_P), _p1evl(x, _NDTR_Q)
    else:
        p, q = _polevl(x, _NDTR_R), _p1evl(x, _NDTR_S)
    return math.exp(z) * p / q


def _ndtr_scalar(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = a * 0.70710678118654752440      # a / sqrt(2)
    if abs(x) < 1.0:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


# standard normal CDF, float64, elementwise; equals scipy.special.ndtr bit for bit
_ndtr = np.vectorize(_ndtr_scalar, otypes=[float])


def bs_price(spot, strike, tau, sigma, rate=0.0, dividend=0.0):
    """Black-Scholes call price, vectorized."""
    strike = np.asarray(strike, dtype=float)
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    st = sigma * np.sqrt(tau)
    d1 = (np.log(spot / strike) + (rate - dividend + sigma**2 / 2) * tau) / st
    d2 = d1 - st
    return (spot * np.exp(-dividend * tau) * _ndtr(d1)
            - strike * np.exp(-rate * tau) * _ndtr(d2))


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
                    fd: FdConfig = FdConfig()):
    """Risk-neutral strike density at one maturity from price curvature.

    Trapezoid node masses of the curvature row, those at or below
    ``DENSITY_CLIP`` set to 0, renormalized to sum 1.  Returns (density,
    renormalization_factor).
    """
    values = _as_values(C)
    c_kk, _ = fd_derivatives(values, grid, fd)
    row = c_kk[tau_index]
    mass = row * trapezoid_weights(grid.strikes)
    mass = np.where(mass > DENSITY_CLIP, mass, 0.0)
    total = mass.sum()
    if total <= 0:
        raise ValueError("degenerate density: no positive curvature mass")
    return mass / total, float(total)


def sample_clouds(density: np.ndarray, x: np.ndarray, sizes, seed: int = 0):
    """Seeded iid draws from a discrete strike density, one cloud per size."""
    density = np.asarray(density, dtype=float)
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    return [rng.choice(x, size=int(n), p=density) for n in sizes]
