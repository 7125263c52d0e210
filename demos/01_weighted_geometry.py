"""The vega-weighted L2 geometry every stage shares.

Builds a strike/maturity mesh, attaches a unit-mean vega-bump weight, and
shows the norm equivalence and the mesh-admissibility report.
"""

import numpy as np

from arbsurf import (Grid2D, Surface, check_mesh_admissibility, unweighted_norm,
                     vega_bump_weight, weighted_norm)
from arbsurf.synth import MarketParams, generate_surface

grid = Grid2D(np.linspace(80, 120, 31), np.linspace(0.1, 1.1, 11))
weight = vega_bump_weight(grid, spot=100.0)
print(f"grid: {grid.shape[1]} strikes x {grid.shape[0]} maturities, "
      f"h_K={grid.h_K:.3f}, h_tau={grid.h_tau:.3f}")
print(f"weight: unit mean, kappa_W={weight.kappa_W:.3f}")

clean, noisy = generate_surface(MarketParams(noise_sigma=0.25, seed=7), grid)
resid = noisy.values - clean.values
print(f"\nnoise field:  ||.||_w = {weighted_norm(resid, weight, grid):.4f}   "
      f"||.||_2 = {unweighted_norm(resid, grid):.4f}")
print("norm equivalence band: "
      f"[{unweighted_norm(resid, grid) / weight.kappa_W:.4f}, "
      f"{unweighted_norm(resid, grid) * weight.kappa_W:.4f}]")

report = check_mesh_admissibility(clean, grid)
print(f"\nmesh admissibility: {'PASS' if report.passed else 'FAIL'}")
print(f"  curvature envelope (K):   {report.envelope_K:.5f}  "
      f"(h_K={report.h_K:.3f} vs bound {report.bound_K:.3f})")
print(f"  curvature envelope (tau): {report.envelope_tau:.5f}  "
      f"(h_tau={report.h_tau:.3f} vs bound {report.bound_tau:.3f})")
