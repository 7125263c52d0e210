"""Projected stochastic descent: chain-energy decay.

Shows the spectral-gap control: the fitted per-step contraction of the mean
chain energy grows with lambda2 of the maturity path graph.
"""

import numpy as np

from arbsurf import DescentConfig, path_laplacian, projected_descent

print("lambda2   fitted contraction   terminal mean energy")
for scale in (0.5, 1.0, 2.0):
    graph = path_laplacian(3, [scale, scale])
    curves = []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x0 = rng.standard_normal(3)
        cfg = DescentConfig(lambda_chain=1.0, noise_sigma=0.01, steps=500,
                            eta0=0.05)
        traj, _ = projected_descent(x0, None, graph, None, cfg, seed=seed)
        curves.append([r["chain_energy"] for r in traj])
    mean_curve = np.mean(curves, axis=0)
    contraction = -np.polyfit(np.arange(60), np.log(mean_curve[:60]), 1)[0]
    print(f"{graph.lambda2:>7.3f}   {contraction:>18.5f}   {mean_curve[-1]:.3e}")

graph = path_laplacian(3, [1.0, 1.0])
traj, _ = projected_descent(np.array([2.0, -1.0, 0.5]), None, graph, None,
                            DescentConfig(noise_sigma=0.0, steps=300, eta0=0.2),
                            seed=0)
es = [r["chain_energy"] for r in traj]
print(f"\nnoiseless run: energy {es[0]:.3f} -> {es[-1]:.2e}, "
      f"monotone every step: {all(b <= a for a, b in zip(es, es[1:]))}")
