"""Chain-consistency statistics: mixture-kernel MMD^2 U-statistics, chain
energy on the maturity path, alpha-mixing effective sample size, and the
Gate-V2 decision protocol (monotone envelope, degree-5 FIR smoothing,
tail-median slope, trapezoidal area drop, concentration tolerance bands).

The pipeline's chain gate computes the median bandwidth and the unbiased
MMD^2 exactly from atom counts, for clouds drawn from a finite set of atoms.
The pairwise forms over sample arrays (``median_bandwidth_mixture``,
``mmd2``, ``chain_energy``) are the reference that the count forms are
tested against, and the benchmark harness calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelMixture",
    "ChainSeries",
    "GateDecision",
    "median_bandwidth_mixture",
    "mmd2",
    "chain_energy",
    "atom_counts",
    "median_bandwidth_counts",
    "mmd2_counts",
    "chain_energy_counts",
    "n_eff",
    "bartlett_alphas",
    "pav_isotonic",
    "fir_smoother",
    "tail_diagnostics",
    "tolerance_band",
    "gate_v2",
]

SLOPE_PASS = 0.12        # 5! * 10^-3
AREA_PASS = -0.02
FIR_L1_BOUND = 120.0     # 5!
FIR_HALFWIDTH = 6        # the smoother's stencil spans 2 * 6 + 1 sizes
TAIL_FRACTION = 0.1      # share of the series the tail slope and area read
BAND_DELTA = 0.05        # tolerance bands hold with probability 1 - delta
# alpha-mixing coefficients enter n_eff as alpha^(gamma / (2 + gamma)), at
# moment order gamma = 1
MIXING_EXPONENT = 1.0 / 3.0

# median-heuristic mixture: Gaussians at sigma * 2^l, l in OCTAVES, plus one
# inverse multiquadric of shape IMQ_SHAPE at sigma
OCTAVES = (-1, 0, 1)
IMQ_SHAPE = 0.5


@dataclass(frozen=True)
class KernelMixture:
    """Convex mixture of bounded Gaussian / inverse-multiquadric kernels."""

    components: tuple     # ((kind, scale, shape), ...)
    weights: tuple
    fallback: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        for kind, scale, shape in self.components:
            if kind not in ("gaussian", "imq"):
                raise ValueError(f"unknown kernel kind {kind!r}")
            if scale <= 0:
                raise ValueError("kernel scales must be positive")

    def __call__(self, sq_dists: np.ndarray) -> np.ndarray:
        out = np.zeros_like(sq_dists, dtype=float)
        for (kind, scale, shape), wt in zip(self.components, self.weights):
            if kind == "gaussian":
                with np.errstate(over="ignore"):
                    out += wt * np.exp(-sq_dists / (2.0 * scale**2))
            else:
                out += wt * (1.0 + sq_dists / scale**2) ** (-shape)
        return out


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    d = X[:, None, :] - Y[None, :, :]
    return np.sum(d * d, axis=-1)


def _as_samples(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _mixture_at(sigma: float) -> KernelMixture:
    """Gaussians at sigma*2^l plus one IMQ at sigma, equally weighted;
    sigma <= 0 falls back to 1 and is flagged."""
    fallback = False
    if sigma <= 0:
        sigma = 1.0
        fallback = True
    comps = tuple(("gaussian", sigma * 2.0**l, 0.0) for l in OCTAVES)
    comps = comps + (("imq", sigma, IMQ_SHAPE),)
    n = len(comps)
    return KernelMixture(components=comps, weights=(1.0 / n,) * n,
                         fallback=fallback)


def median_bandwidth_mixture(X, Y) -> KernelMixture:
    """Median-heuristic mixture: Gaussians at sigma*2^l plus one IMQ at sigma."""
    X, Y = _as_samples(X), _as_samples(Y)
    if X.size == 0 or Y.size == 0:
        raise ValueError("both samples must be nonempty")
    d = np.sqrt(_sq_dists(X, Y))
    return _mixture_at(float(np.median(d)))


def mmd2(X, Y, kernel: KernelMixture) -> float:
    """Unbiased squared maximum mean discrepancy between two samples; the
    within-sample sums exclude diagonal pairs exactly."""
    X, Y = _as_samples(X), _as_samples(Y)
    n, m = X.shape[0], Y.shape[0]
    if n < 2 or m < 2:
        raise ValueError("MMD^2 needs at least 2 samples on each side")
    Kxx = kernel(_sq_dists(X, X))
    Kyy = kernel(_sq_dists(Y, Y))
    Kxy = kernel(_sq_dists(X, Y))
    t_xx = (Kxx.sum() - np.trace(Kxx)) / (n * (n - 1))
    t_yy = (Kyy.sum() - np.trace(Kyy)) / (m * (m - 1))
    t_xy = 2.0 * Kxy.mean()
    return float(t_xx + t_yy - t_xy)


def _edge_weights(n_slices: int, edge_weights) -> np.ndarray:
    if n_slices < 2:
        raise ValueError("need at least 2 maturity slices")
    w = np.asarray(edge_weights, dtype=float)
    if w.shape != (n_slices - 1,):
        raise ValueError("edge_weights length must be number of edges")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("edge weights must be nonnegative and sum to 1")
    return w


def chain_energy(slices, edge_weights):
    """Weighted sum of adjacent-pair MMD^2 along the maturity path, with the
    median-heuristic mixture per pair; returns the total, the per-edge MMD^2
    and the per-edge mixtures."""
    slices = [_as_samples(s) for s in slices]
    w = _edge_weights(len(slices), edge_weights)
    pairs = list(zip(slices[:-1], slices[1:]))
    kernels = [median_bandwidth_mixture(a, b) for a, b in pairs]
    per_edge = np.asarray([mmd2(a, b, k) for (a, b), k in zip(pairs, kernels)])
    return float(w @ per_edge), per_edge, kernels


# ---------------------------------------------------------------------------
# atom-count form: samples drawn from a fixed finite set of atoms
# ---------------------------------------------------------------------------
#
# A cloud drawn from A atoms is fully described by its count vector c, so
# the pairwise statistics above reduce to A x A sums weighted by counts
# (Gretton et al., JMLR 2012, with every sample pair mapped to its atom
# pair).  The distances are built as in the pairwise path, so the median
# bandwidth is bit-identical; the MMD^2 sums are regrouped and agree to
# rounding.

def atom_counts(cloud, atoms) -> np.ndarray:
    """Multiplicity of each atom in ``cloud``.

    ``atoms`` is strictly increasing and 1-D; every sample must equal one of
    them exactly (a cloud with noise added raises ``ValueError``).
    """
    atoms = np.asarray(atoms, dtype=float)
    cloud = np.asarray(cloud, dtype=float)
    if atoms.ndim != 1 or atoms.size == 0 or np.any(np.diff(atoms) <= 0):
        raise ValueError("atoms must be a nonempty strictly increasing 1-D array")
    if cloud.ndim != 1:
        raise ValueError("cloud must be 1-D")
    idx = np.minimum(np.searchsorted(atoms, cloud), atoms.size - 1)
    if np.any(atoms[idx] != cloud):
        raise ValueError("cloud holds samples that are not atoms")
    return np.bincount(idx, minlength=atoms.size)


def _as_counts(c, n_atoms: int) -> np.ndarray:
    c = np.asarray(c)
    if c.shape != (n_atoms,):
        raise ValueError("counts must have one entry per atom")
    if np.any(c < 0) or np.any(c != np.round(c)):
        raise ValueError("counts must be nonnegative integers")
    return c.astype(np.int64)


def _atom_sq_dists(atoms) -> np.ndarray:
    A = _as_samples(atoms)
    return _sq_dists(A, A)


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """np.median of the multiset holding values[k] weights[k] times."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(weights[order])
    total = int(cum[-1])

    def at(rank):
        return v[np.searchsorted(cum, rank, side="right")]

    if total % 2:
        return float(at(total // 2))
    return float((at(total // 2 - 1) + at(total // 2)) / 2.0)


def _median_bandwidth(dists: np.ndarray, c_x, c_y) -> KernelMixture:
    """``median_bandwidth_counts`` given the atoms' distance matrix."""
    c_x, c_y = _as_counts(c_x, dists.shape[0]), _as_counts(c_y, dists.shape[0])
    if c_x.sum() == 0 or c_y.sum() == 0:
        raise ValueError("both samples must be nonempty")
    sigma = _weighted_median(dists.ravel(), np.outer(c_x, c_y).ravel())
    return _mixture_at(sigma)


def _mmd2(sq: np.ndarray, c_x, c_y, kernel: KernelMixture) -> float:
    """``mmd2_counts`` given the atoms' squared distance matrix."""
    K = kernel(sq)
    c_x = _as_counts(c_x, K.shape[0]).astype(float)
    c_y = _as_counts(c_y, K.shape[0]).astype(float)
    n, m = c_x.sum(), c_y.sum()
    if n < 2 or m < 2:
        raise ValueError("MMD^2 needs at least 2 samples on each side")
    k0 = float(kernel(np.zeros(1))[0])
    t_xx = (c_x @ K @ c_x - n * k0) / (n * (n - 1))
    t_yy = (c_y @ K @ c_y - m * k0) / (m * (m - 1))
    t_xy = 2.0 * (c_x @ K @ c_y) / (n * m)
    return float(t_xx + t_yy - t_xy)


def median_bandwidth_counts(c_x, c_y, atoms) -> KernelMixture:
    """``median_bandwidth_mixture`` of two clouds given as atom counts."""
    return _median_bandwidth(np.sqrt(_atom_sq_dists(atoms)), c_x, c_y)


def mmd2_counts(c_x, c_y, atoms, kernel: KernelMixture) -> float:
    """The unbiased MMD^2 of ``mmd2`` from atom counts."""
    return _mmd2(_atom_sq_dists(atoms), c_x, c_y, kernel)


def chain_energy_counts(counts, atoms, edge_weights):
    """``chain_energy`` for slices given as count vectors over the same
    atoms; returns the total, the per-edge MMD^2 and the per-edge mixtures.
    The atoms' distance matrix is built once for all edges."""
    w = _edge_weights(len(counts), edge_weights)
    sq = _atom_sq_dists(atoms)
    dists = np.sqrt(sq)
    pairs = list(zip(counts[:-1], counts[1:]))
    kernels = [_median_bandwidth(dists, a, b) for a, b in pairs]
    per_edge = np.asarray([_mmd2(sq, a, b, k)
                           for (a, b), k in zip(pairs, kernels)])
    return float(w @ per_edge), per_edge, kernels


def n_eff(n: int, alpha_coeffs) -> float:
    """Effective sample size under alpha-mixing, Newey-West style:
    n / (1 + 2 sum_k (1 - k/n) alpha_k^(1/3))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = np.zeros(max(n - 1, 0))
    coeffs = np.asarray(alpha_coeffs, dtype=float)
    take = min(coeffs.size, a.size)
    a[:take] = coeffs[:take]
    if np.any(a < 0):
        raise ValueError("alpha coefficients must be nonnegative")
    k = np.arange(1, n)
    denom = 1.0 + 2.0 * np.sum((1.0 - k / n) * a**MIXING_EXPONENT)
    return float(n / denom)


def bartlett_alphas(series) -> np.ndarray:
    """Bartlett-windowed absolute autocorrelations; a plug-in mixing proxy,
    up to the lag floor(4 (n/100)^(2/9)) (at least 1)."""
    z = np.asarray(series, dtype=float)
    z = z - z.mean()
    n = z.size
    max_lag = max(1, int(np.floor(4 * (n / 100.0) ** (2.0 / 9.0))))
    denom = float(z @ z)
    if denom <= 0:
        return np.zeros(max_lag)
    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        out[k - 1] = abs(float(z[k:] @ z[:-k])) / denom * (1.0 - k / (max_lag + 1.0))
    return out


@dataclass
class ChainSeries:
    """Chain diagnostic tracked across sample sizes."""

    sizes: np.ndarray
    values: np.ndarray
    neff: np.ndarray

    def __post_init__(self):
        self.sizes = np.asarray(self.sizes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.neff = np.asarray(self.neff, dtype=float)
        if np.any(np.diff(self.sizes) <= 0):
            raise ValueError("sizes must be strictly increasing")
        if not (self.sizes.shape == self.values.shape == self.neff.shape):
            raise ValueError("sizes, values and neff must share a length")


@dataclass
class GateDecision:
    slope_tail: float
    area_drop: float
    band_slope: float
    band_area: float
    passed: bool
    tail_indices: tuple
    envelope_direction: str = "nonincreasing"
    fir_l1: float = 0.0


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


def fir_smoother() -> np.ndarray:
    """Symmetric FIR stencil of half-width ``FIR_HALFWIDTH`` reproducing
    polynomials up to degree 5.

    Least-norm solution of the moment conditions; by symmetry the odd moments
    vanish automatically, leaving r in {0, 2, 4}.
    """
    j = np.arange(-FIR_HALFWIDTH, FIR_HALFWIDTH + 1)
    rows = [j**0, j**2, j**4]
    Vm = np.asarray(rows, dtype=float)
    target = np.array([1.0, 0.0, 0.0])
    h = np.linalg.pinv(Vm) @ target
    sym = 0.5 * (h + h[::-1])
    return sym


def _apply_fir(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Interior convolution with identity passthrough at the edges."""
    q = (h.size - 1) // 2
    out = y.copy()
    if y.size >= h.size:
        interior = np.convolve(y, h[::-1], mode="valid")
        out[q:y.size - q] = interior
    return out


def tail_diagnostics(series: ChainSeries,
                     envelope_direction: str = "nonincreasing"):
    """Monotone envelope -> FIR smooth -> tail median slope and area drop.

    The tail is the last ``TAIL_FRACTION`` of the S sizes (at least the
    slope window); the slope is the median of least-squares slopes over
    sliding windows of max(2, floor(TAIL_FRACTION * S)) sizes.
    Returns (slope_tail, area_drop, smoothed, tail_indices, fir_l1).
    """
    S = series.sizes.size
    if S < 4:
        raise ValueError("series too short for tail diagnostics")
    window = max(2, int(np.floor(TAIL_FRACTION * S)))
    env = pav_isotonic(series.values, np.ones(S), direction=envelope_direction)
    h = fir_smoother()
    fir_l1 = float(np.abs(h).sum())
    if fir_l1 > FIR_L1_BOUND:
        raise AssertionError("FIR amplification bound exceeded")
    smooth = _apply_fir(env, h)

    n_tail = max(window, int(np.ceil(TAIL_FRACTION * S)))
    tail = np.arange(S - n_tail, S)
    x = series.sizes
    slopes = []
    for s0 in range(tail[0], tail[-1] - window + 2):
        xs = x[s0:s0 + window]
        ys = smooth[s0:s0 + window]
        xc = xs - xs.mean()
        slopes.append(float(xc @ ys / (xc @ xc)))
    slope_tail = float(np.median(slopes))

    xt = x[tail]
    yt = smooth[tail]
    raw_area = float(np.trapezoid(yt, xt))
    baseline = float(yt[0] * (xt[-1] - xt[0]))
    if abs(baseline) < 1e-300:
        area_drop = 0.0
    else:
        area_drop = (baseline - raw_area) / abs(baseline)
    return slope_tail, area_drop, smooth, (int(tail[0]), int(tail[-1])), fir_l1


def tolerance_band(S: int, delta: float, neff_tail, x_tail=None):
    """Concentration bands: per-point sqrt(log(2S/delta) / n_eff), and the
    slope and area bands from its maximum and the tail geometry."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    neff_tail = np.asarray(neff_tail, dtype=float)
    if np.any(neff_tail <= 0):
        raise ValueError("neff values must be positive")
    per_point = np.sqrt(np.log(2.0 * S / delta) / neff_tail)
    eps_max = float(per_point.max())
    if x_tail is None:
        x_tail = np.arange(1.0, neff_tail.size + 1)
    x_tail = np.asarray(x_tail, dtype=float)
    sigma_x = float(np.std(x_tail))
    if sigma_x <= 0:
        sigma_x = 1.0
    band_slope = eps_max / sigma_x
    band_area = eps_max * float(np.sum(np.abs(np.diff(x_tail))))
    return per_point, float(band_slope), float(band_area)


def gate_v2(series: ChainSeries,
            envelope_direction: str = "nonincreasing") -> GateDecision:
    """PASS iff |tail slope| <= ``SLOPE_PASS`` and area drop >= ``AREA_PASS``.

    The tail diagnostics are ``tail_diagnostics``'s; the reported bands are
    ``tolerance_band``'s at delta = ``BAND_DELTA`` over the tail.
    """
    slope_tail, area_drop, smooth, tail_idx, fir_l1 = tail_diagnostics(
        series, envelope_direction=envelope_direction)
    lo, hi = tail_idx
    _, band_slope, band_area = tolerance_band(
        series.sizes.size, BAND_DELTA, series.neff[lo:hi + 1],
        x_tail=series.sizes[lo:hi + 1])
    passed = abs(slope_tail) <= SLOPE_PASS and area_drop >= AREA_PASS
    return GateDecision(slope_tail=slope_tail, area_drop=area_drop,
                        band_slope=band_slope, band_area=band_area,
                        passed=bool(passed), tail_indices=tail_idx,
                        envelope_direction=envelope_direction, fir_l1=fir_l1)
