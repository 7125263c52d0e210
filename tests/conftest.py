"""Shared fixtures and closed-form oracles used across the test suite."""

import numpy as np
import pytest
from scipy.stats import norm

from arbsurf.grid import Grid2D, vega_bump_weight


def bs_call(spot, K, tau, sigma, r=0.0, q=0.0):
    st = sigma * np.sqrt(tau)
    d1 = (np.log(spot / K) + (r - q + sigma**2 / 2) * tau) / st
    d2 = d1 - st
    return spot * np.exp(-q * tau) * norm.cdf(d1) - K * np.exp(-r * tau) * norm.cdf(d2)


def bs_gamma_K(spot, K, tau, sigma, r=0.0, q=0.0):
    """Analytic d^2C/dK^2."""
    st = sigma * np.sqrt(tau)
    d2 = (np.log(spot / K) + (r - q - sigma**2 / 2) * tau) / st
    return np.exp(-r * tau) * norm.pdf(d2) / (K * st)


def bs_theta_tau(spot, K, tau, sigma, r=0.0, q=0.0):
    """Analytic dC/dtau (maturity derivative)."""
    st = sigma * np.sqrt(tau)
    d1 = (np.log(spot / K) + (r - q + sigma**2 / 2) * tau) / st
    d2 = d1 - st
    return (spot * np.exp(-q * tau) * norm.pdf(d1) * sigma / (2 * np.sqrt(tau))
            - q * spot * np.exp(-q * tau) * norm.cdf(d1)
            + r * K * np.exp(-r * tau) * norm.cdf(d2))


@pytest.fixture
def grid21x11():
    return Grid2D(np.linspace(80.0, 120.0, 21), np.linspace(0.1, 1.1, 11))


@pytest.fixture
def weight21x11(grid21x11):
    return vega_bump_weight(grid21x11, 100.0)


@pytest.fixture
def bs_surface_21x11(grid21x11):
    K, T = np.meshgrid(grid21x11.strikes, grid21x11.maturities)
    return bs_call(100.0, K, T, 0.2)


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced above the start while ``fn`` runs, in a fresh
    tracemalloc session."""
    import tracemalloc
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already traces this process")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
