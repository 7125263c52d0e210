"""Martingale-constrained entropic bridge across three adjacent maturities.

Solves the annealed log-domain problem on extracted strike densities and
prints the three audit certificates against their pass bands.
"""

import numpy as np

from arbsurf import Grid2D, TriMarginalProblem, extract_density, tri_sinkhorn
from arbsurf.bridge import KKT_PASS, MUHAT_BAND, RGEO_PASS, build_bridge
from arbsurf.synth import MarketParams, generate_surface

grid = Grid2D(np.linspace(80, 120, 31), np.linspace(0.1, 1.1, 11))
clean, _ = generate_surface(MarketParams(), grid)
m1, _ = extract_density(clean, grid, 4)
m2, _ = extract_density(clean, grid, 5)
m3, _ = extract_density(clean, grid, 6)

problem = TriMarginalProblem(grid.strikes / 100.0, m1, m2, m3,
                             epsilon_schedule=(1.0, 0.3, 0.1, 0.03),
                             feature_kind="nystrom", rank=8)
kernels = build_bridge(problem)
state, certs = tri_sinkhorn(problem, kernels, tol=5e-3)

print(f"annealing path: {problem.epsilon_schedule}")
print(f"iterations: {certs.iterations} "
      f"(per stage {[len(trace) for trace in state.stage_traces]}), "
      f"converged: {certs.converged}")
print(f"\ncertificates:")
print(f"  KKT residual   {certs.kkt:.3e}   (pass band <= {KKT_PASS})  "
      f"{'PASS' if certs.pass_kkt else 'FAIL'}")
print(f"  r_geo          {certs.r_geo:.4f}      (pass band <= {RGEO_PASS})  "
      f"{'PASS' if certs.pass_rgeo else 'FAIL'}")
print(f"  mu_hat         {certs.mu_hat:.3e}   (pass band {MUHAT_BAND})  "
      f"{'PASS' if certs.pass_muhat else 'FAIL'}")
print(f"  components (marginals, martingale): "
      f"{[f'{c:.1e}' for c in certs.kkt_components]}")
print(f"  shadow price eta = {state.eta:.4f}")
