"""Shared brute-force oracles for the projection, ReLU-compiler and
sparse-grid tests."""

import numpy as np
from scipy import sparse
from scipy.optimize import nnls

from arbsurf import cpwl
from arbsurf.grid import quadrature_matrix
from arbsurf.projection import _second_difference_matrix
from arbsurf.smolyak import build_index_set


def full_cone_matrix(grid, nonneg=True):
    n_tau, n_K = grid.shape
    rows = []
    for j in range(n_K):
        for i in range(n_tau - 1):
            r = np.zeros((n_tau, n_K))
            r[i + 1, j] = 1.0
            r[i, j] = -1.0
            rows.append(r.ravel())
    A2 = _second_difference_matrix(grid.strikes)
    for i in range(n_tau):
        for q in range(A2.shape[0]):
            r = np.zeros((n_tau, n_K))
            r[i, :] = A2[q]
            rows.append(r.ravel())
    if nonneg:
        rows.extend(np.eye(n_tau * n_K))
    return np.asarray(rows)


def _nnls_dual(y, grid, w, nonneg=True):
    """The dual NNLS solve: the cone matrix, the metric's diagonal, the
    multipliers and the point ``y + Omega^-1 A^T mu``, flattened."""
    omega = (w.w * quadrature_matrix(grid)).ravel()
    A = full_cone_matrix(grid, nonneg)
    B = A.T / np.sqrt(omega)[:, None]
    mu, _ = nnls(B, -np.sqrt(omega) * np.asarray(y, float).ravel(),
                 maxiter=50 * A.shape[0])
    out = np.asarray(y, float).ravel() + (A.T @ mu) / omega
    # NNLS can return a wrong dual on degenerate problems; refuse to hand
    # an infeasible point out as a reference value
    breach = -np.min(A @ out, initial=0.0)
    assert breach <= 1e-9 * (1.0 + np.max(np.abs(y))), \
        f"NNLS oracle returned an infeasible point (breach {breach:.3g})"
    return A, omega, mu, out


def nnls_cone_projection_full(y, grid, w, nonneg=True):
    """Exact weighted projection onto the full arbitrage cone by dual NNLS.

    The output's feasibility is asserted, so a failed NNLS solve raises.
    """
    return _nnls_dual(y, grid, w, nonneg)[3].reshape(np.shape(y))


def nnls_projection_accuracy(y, grid, w):
    """The NNLS oracle's projection of y and the distance, in the weighted
    norm, that its own duality gap allows between it and the exact
    projection, in dense arithmetic with rounding not counted.

    The output is pushed into the cone along 1 + tau + r^2 (r the strike
    mapped onto [-1, 1]) by its largest breach per row; the objective is
    1-strongly convex, so that point is within sqrt(2 gap) of the exact
    projection.
    """
    A, omega, mu, out = _nnls_dual(y, grid, w)
    K, T = np.meshgrid(grid.strikes, grid.maturities)
    r = (2.0 * K - grid.strikes[0] - grid.strikes[-1]) / np.ptp(grid.strikes)
    z = (1.0 + T + r**2).ravel()
    t = max(0.0, np.max(-(A @ out) / (A @ z)))
    pushed = out + t * z
    resid = pushed - np.asarray(y, float).ravel() - (A.T @ mu) / omega
    gap = mu @ (A @ pushed) + 0.5 * np.sum(omega * resid**2)
    shift = t * np.sqrt(np.sum(omega * z**2))
    return out.reshape(np.shape(y)), np.sqrt(2.0 * max(gap, 0.0)) + shift


def dict_compile_to_relu(f, d_max=8, c3=2.0):
    """``cpwl.compile_to_relu`` as first written: every virtual value of the
    comparator rounds is a dict {unit: coefficient}, and each unit is
    emitted by a closure.  The reference for the array-built compiler.
    """
    V = f.n_vertices
    tris = f.triangles
    flat = tris.ravel()
    max_deg = int(np.bincount(flat, minlength=V).max())
    if max_deg > d_max:
        raise ValueError(
            f"vertex valence {max_deg} exceeds d_max={d_max}; refine the mesh first")

    # Layer 1: all barycentric affine forms, grouped per vertex in increasing
    # triangle order.  Form (a, b, c) of vertex v in triangle t solves
    # a*x + b*y + c = 1 at v and 0 at t's other two vertices (in t's order).
    order = np.argsort(flat, kind="stable")
    vert = flat[order]
    t, k = np.divmod(order, 3)
    others = tris[t[:, None], cpwl._OTHER_CORNERS[k]]
    A = np.ones((order.size, 3, 3))
    A[:, 0, :2] = f.vertices[vert]
    A[:, 1:, :2] = f.vertices[others]
    sol = np.linalg.solve(A, np.array([1.0, 0.0, 0.0]))
    # vertex v's forms are rows bounds[v] to bounds[v + 1] - 1
    bounds = np.searchsorted(vert, np.arange(V + 1)).tolist()
    W1 = sparse.csr_matrix(sol[:, :2])
    layers = [cpwl._Layer(W1, sol[:, 2].copy(), np.zeros(order.size, dtype=bool))]

    # Comparator rounds: each virtual value is a sparse combo of current units.
    # min(u, v) = u - relu(u - v); the subtraction is deferred to the next
    # layer's affine rows so each round stays a single affine+relu block.
    virtual = [[{j: 1.0} for j in range(bounds[v], bounds[v + 1])]
               for v in range(V)]
    n_rounds = max(1, int(np.ceil(np.log2(max_deg)))) if max_deg > 1 else 0
    for _ in range(n_rounds):
        coo_r, coo_c, coo_v, bias, relu = [], [], [], [], []
        new_virtual = []

        def emit(combo, is_relu):
            idx = len(bias)
            for c, w in combo.items():
                coo_r.append(idx)
                coo_c.append(c)
                coo_v.append(w)
            bias.append(0.0)
            relu.append(is_relu)
            return idx

        for v in range(V):
            vals = virtual[v]
            nxt = []
            for k in range(0, len(vals) - 1, 2):
                u_c, v_c = vals[k], vals[k + 1]
                diff = dict(u_c)
                for c, w in v_c.items():
                    diff[c] = diff.get(c, 0.0) - w
                d_id = emit(diff, True)
                c_id = emit(u_c, False)
                nxt.append({c_id: 1.0, d_id: -1.0})
            if len(vals) % 2 == 1:
                w_id = emit(vals[-1], False)
                nxt.append({w_id: 1.0})
            new_virtual.append(nxt)
        n_prev = layers[-1].W.shape[0]
        W = sparse.csr_matrix((coo_v, (coo_r, coo_c)), shape=(len(bias), n_prev))
        layers.append(cpwl._Layer(W, np.asarray(bias), np.asarray(relu, dtype=bool)))
        virtual = new_virtual

    # Hat layer: phi_v = relu(m_v); the zero comparison is this last level.
    coo_r, coo_c, coo_v = [], [], []
    for v in range(V):
        assert len(virtual[v]) == 1
        for c, w in virtual[v][0].items():
            coo_r.append(v)
            coo_c.append(c)
            coo_v.append(w)
    n_prev = layers[-1].W.shape[0]
    W_hat = sparse.csr_matrix((coo_v, (coo_r, coo_c)), shape=(V, n_prev))
    layers.append(cpwl._Layer(W_hat, np.zeros(V), np.ones(V, dtype=bool)))

    # Affine readout.
    W_out = sparse.csr_matrix(f.nodal_values[None, :])
    layers.append(cpwl._Layer(W_out, np.zeros(1), np.zeros(1, dtype=bool)))

    depth = sum(1 for layer in layers if layer.relu.any())
    param_count = int(sum(layer.W.nnz + np.count_nonzero(layer.b)
                          for layer in layers))
    M = f.n_triangles
    c1, c2 = 4.0, 30.0
    constants = {
        "V": V, "M": M, "c1": c1, "c2": c2, "c3": c3,
        "param_bound": c1 * V + c2 * M,
        "max_valence": max_deg,
    }
    if param_count > constants["param_bound"]:
        raise AssertionError("parameter count exceeded the compile-time bound")
    return cpwl.ReluNet(layers=layers, depth=depth, param_count=param_count,
                   constants=constants)


def activated_nodes(cfg, domain):
    """Union of the hierarchical-increment tensor nodes over the index set,
    the points a sparse-grid interpolant must reproduce exactly."""
    (x0, x1), (y0, y1) = domain
    seen = set()
    pts = []
    for (i, j) in build_index_set(cfg):
        for x in np.linspace(x0, x1, 2**i + 1):
            for y in np.linspace(y0, y1, 2**j + 1):
                key = (round(float(x), 14), round(float(y), 14))
                if key not in seen:
                    seen.add(key)
                    pts.append((x, y))
    return np.asarray(pts)
