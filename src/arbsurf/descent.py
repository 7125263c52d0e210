"""Path-graph Laplacian, Dirichlet chain energy, and the projected stochastic
descent harness with trust-region rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PathGraph",
    "DescentConfig",
    "path_laplacian",
    "chain_dirichlet_energy",
    "projected_descent",
]


def _laplacian(w: np.ndarray) -> np.ndarray:
    L = np.zeros((w.size + 1, w.size + 1))
    for t, wt in enumerate(w):
        L[t, t] += wt
        L[t + 1, t + 1] += wt
        L[t, t + 1] -= wt
        L[t + 1, t] -= wt
    return L


@dataclass
class PathGraph:
    """Weighted path graph on T nodes.

    The trace form tr(Psi^T L Psi) equals the edge sum
    sum_t w_t ||psi_t - psi_{t+1}||^2 for every state chain Psi exactly when
    L is the Laplacian of the edge weights, which construction checks once.
    """

    T: int
    edge_weights: np.ndarray
    laplacian: np.ndarray
    lambda2: float
    eigenvalues: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        w = np.asarray(self.edge_weights, dtype=float)
        L = np.asarray(self.laplacian, dtype=float)
        if w.shape != (self.T - 1,) or L.shape != (self.T, self.T):
            raise ValueError("a path graph on T nodes needs T - 1 edge "
                             "weights and a T x T Laplacian")
        L_w = _laplacian(w)
        if np.max(np.abs(L - L_w)) > 1e-10 * (1.0 + np.max(np.abs(L_w))):
            raise ValueError("edge-sum and trace Dirichlet forms disagree: "
                             "the Laplacian is not that of the edge weights")


def path_laplacian(T: int, edge_weights) -> PathGraph:
    """Weighted path-graph Laplacian with its spectral gap."""
    if T < 2:
        raise ValueError("a path graph needs at least 2 nodes")
    w = np.asarray(edge_weights, dtype=float)
    if w.shape != (T - 1,):
        raise ValueError("edge_weights must have length T - 1")
    if np.any(w <= 0):
        raise ValueError("edge weights must be positive")
    L = _laplacian(w)
    eig = np.linalg.eigvalsh(L)
    return PathGraph(T=T, edge_weights=w, laplacian=L, lambda2=float(eig[1]),
                     eigenvalues=eig)


def _stack_states(states) -> np.ndarray:
    arr = np.asarray(states, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr.reshape(arr.shape[0], -1)


def chain_dirichlet_energy(states, graph: PathGraph) -> float:
    """Dirichlet energy of the state chain, as the edge sum; ``PathGraph``
    guarantees that it equals the trace form."""
    Psi = _stack_states(states)
    if Psi.shape[0] != graph.T:
        raise ValueError("number of states must equal the graph size")
    diffs = np.diff(Psi, axis=0)
    return float(np.sum(graph.edge_weights * np.sum(diffs**2, axis=1)))


@dataclass(frozen=True)
class DescentConfig:
    eta0: float = 0.05
    noise_sigma: float = 0.0
    lambda_chain: float = 1.0
    steps: int = 200
    trust_region_rel: float = 1e-6

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.noise_sigma < 0 or self.lambda_chain < 0 or self.eta0 <= 0:
            raise ValueError("invalid descent parameters")

    def step_size(self, t: int) -> float:
        return self.eta0 / (t + 1.0)


def projected_descent(initial_states, targets, graph: PathGraph,
                      projector, cfg: DescentConfig, seed: int = 0):
    """Noisy projected gradient descent on data fit + chain energy.

    Each step: gradient of (0.5*||x - target||^2 + lambda_chain * Dirichlet)
    plus seeded Gaussian noise, Robbins-Monro step sizes eta0/(t+1), then the
    projection x <- P(x_try).  Steps that increase the chain energy beyond
    the relative trust tolerance are rejected.

    Returns a trajectory list of dicts (step, chain_energy, data_fit,
    accepted) plus the final states, as (trajectory, states).
    """
    x = _stack_states(initial_states).copy()
    shape0 = np.asarray(initial_states, dtype=float).shape
    if x.shape[0] != graph.T:
        raise ValueError("number of states must equal the graph size")
    has_data = targets is not None
    tgt = _stack_states(targets) if has_data else None
    if has_data and tgt.shape != x.shape:
        raise ValueError("targets must match the state stack shape")
    if projector is None:
        projector = lambda z: z
    rng = np.random.default_rng(seed)

    def data_fit(z):
        return 0.5 * float(np.sum((z - tgt) ** 2)) if has_data else 0.0

    traj = [{"step": 0, "chain_energy": chain_dirichlet_energy(x, graph),
             "data_fit": data_fit(x), "accepted": True}]
    for t in range(cfg.steps):
        eta = cfg.step_size(t)
        grad = 2.0 * cfg.lambda_chain * (graph.laplacian @ x)
        if has_data:
            grad = grad + (x - tgt)
        noise = (cfg.noise_sigma * rng.standard_normal(x.shape)
                 if cfg.noise_sigma > 0 else 0.0)
        x_try = x - eta * (grad + noise)
        x_new = _apply_projector(projector, x_try, shape0)
        e_new = chain_dirichlet_energy(x_new, graph)
        e_old = traj[-1]["chain_energy"]
        accepted = e_new <= e_old * (1.0 + cfg.trust_region_rel) + 1e-300
        if accepted:
            x = x_new
        traj.append({"step": t + 1, "chain_energy": e_new if accepted else e_old,
                     "data_fit": data_fit(x), "accepted": bool(accepted)})
    return traj, x.reshape(shape0)


def _apply_projector(projector, stacked, shape0):
    out = projector(stacked.reshape(shape0))
    return _stack_states(out)
