"""Chain-consistency statistics and the Gate-V2 decision.

Tracks the chain MMD^2 across growing sample sizes for identically
distributed maturity slices and prints the gate verdict with its bands.
As in the pipeline's chain gate, each slice is a cloud of strike atoms
drawn from one discrete density, and the MMD^2 is computed exactly from
the atom counts.
"""

import numpy as np

from arbsurf import ChainSeries, gate_v2, sample_clouds
from arbsurf.chainstats import (atom_counts, chain_energy_counts,
                                median_bandwidth_counts, mmd2_counts)

atoms = np.linspace(0.8, 1.2, 31)
density = np.exp(-0.5 * ((atoms - 1.0) / 0.06) ** 2)
density /= density.sum()

sizes = np.unique(np.round(np.geomspace(50, 1500, 16)).astype(int))
values = []
for s_i, n in enumerate(sizes):
    clouds = sample_clouds(density, atoms, [n] * 4, seed=s_i)
    counts = [atom_counts(cloud, atoms) for cloud in clouds]
    total, _, _ = chain_energy_counts(counts, atoms, np.full(3, 1 / 3))
    values.append(total)

series = ChainSeries(sizes.astype(float), np.asarray(values), sizes.astype(float))
print("size   chain MMD^2")
for n, v in zip(sizes, values):
    print(f"{n:>5}  {v:+.5e}")

# the chain MMD^2 is the edge-weighted mean of one MMD^2 per adjacent pair,
# each at that pair's median bandwidth
print(f"\nedges of the n={sizes[-1]} chain:")
for e, (c_x, c_y) in enumerate(zip(counts[:-1], counts[1:])):
    kernel = median_bandwidth_counts(c_x, c_y, atoms)
    print(f"  {e}-{e + 1}: sigma {kernel.components[-1][1]:.4f}  "
          f"MMD^2 {mmd2_counts(c_x, c_y, atoms, kernel):+.5e}")

decision = gate_v2(series)
print(f"\ntail slope (median of sliding OLS): {decision.slope_tail:+.3e}  "
      f"(threshold |.| <= 0.12, band {decision.band_slope:.2e})")
print(f"area drop: {decision.area_drop:+.4f}  (threshold >= -0.02)")
print(f"FIR smoother l1 mass: {decision.fir_l1:.3f}  (bound 120)")
print(f"Gate-V2 verdict: {'PASS' if decision.passed else 'FAIL'}")
