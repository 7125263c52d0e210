"""Continuous piecewise-linear functions on simplicial meshes and their exact
compilation to shallow ReLU networks.

The compiler realizes every nodal hat as ``relu(min of barycentric forms)``
over the vertex star, the min via a balanced comparator tree, and the final
truncation folded into the last rectifier level, so the network equals the
CPWL everywhere up to floating-point roundoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "CpwlFunction",
    "ReluNet",
    "triangulate_tensor_grid",
    "compile_to_relu",
]

# C1 gate: the largest |ReLU net - CPWL interpolant| on the audit sample;
# the compilation is exact, so only roundoff may remain
RELU_MAXABS_PASS = 1e-8
# the compiler's comparator tree is sized for vertex stars of at most this
# many triangles; structured tensor meshes have at most 6
MAX_VALENCE = 8


@dataclass
class CpwlFunction:
    """CPWL interpolant: nodal values on a triangulated vertex set."""

    vertices: np.ndarray          # (V, 2)
    triangles: np.ndarray         # (M, 3) int
    nodal_values: np.ndarray      # (V,)
    axes: tuple[np.ndarray, np.ndarray] | None = None  # tensor-grid fast path

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.nodal_values = np.asarray(self.nodal_values, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (M, 3)")
        if self.nodal_values.shape != (self.vertices.shape[0],):
            raise ValueError("nodal_values must have one entry per vertex")
        _validate_mesh(self.vertices, self.triangles)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)

    def evaluate(self, points) -> np.ndarray:
        """Barycentric evaluation at (N, 2) points (or a single (2,) point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.axes is not None:
            out = _evaluate_tensor(self.axes, self.nodal_values, pts)
        else:
            out = _evaluate_generic(self.vertices, self.triangles,
                                    self.nodal_values, pts)
        return out if np.asarray(points).ndim > 1 else out[0]

    def lipschitz_constant(self) -> float:
        """Max gradient norm over triangles (exact CPWL Lipschitz constant)."""
        g = _triangle_gradients(self.vertices, self.triangles, self.nodal_values)
        return float(np.sqrt((g**2).sum(axis=1)).max())


def _validate_mesh(vertices: np.ndarray, triangles: np.ndarray) -> None:
    V = vertices.shape[0]
    if triangles.size and (triangles.min() < 0 or triangles.max() >= V):
        raise ValueError("triangle indices out of range")
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(np.abs(area2) < 1e-14):
        raise ValueError("non-simplicial mesh: degenerate triangle")
    # each edge as one key min*V + max, counted over all triangles
    edges = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, first, counts = np.unique(edges[:, 0] * V + edges[:, 1],
                                    return_index=True, return_counts=True)
    if counts.max(initial=0) > 2:
        k = np.argmin(np.where(counts > 2, first, edges.shape[0]))
        e = divmod(keys[k], V)
        raise ValueError(f"non-simplicial mesh: edge {e} shared by {counts[k]} triangles")


def _triangle_gradients(vertices, triangles, values) -> np.ndarray:
    p = vertices[triangles]
    v = values[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    gx = (d1 * e2[:, 1] - d2 * e1[:, 1]) / det
    gy = (d2 * e1[:, 0] - d1 * e2[:, 0]) / det
    return np.stack([gx, gy], axis=1)


def _evaluate_generic(vertices, triangles, values, pts) -> np.ndarray:
    """Point location by barycentric membership, first containing triangle."""
    out = np.full(pts.shape[0], np.nan)
    best = np.full(pts.shape[0], -np.inf)
    p0 = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - p0
    e2 = vertices[triangles[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    for t in range(triangles.shape[0]):
        d = pts - p0[t]
        l1 = (d[:, 0] * e2[t, 1] - d[:, 1] * e2[t, 0]) / det[t]
        l2 = (e1[t, 0] * d[:, 1] - e1[t, 1] * d[:, 0]) / det[t]
        l0 = 1.0 - l1 - l2
        m = np.minimum(np.minimum(l0, l1), l2)
        take = m > best
        if np.any(take):
            vt = values[triangles[t]]
            out[take] = l0[take] * vt[0] + l1[take] * vt[1] + l2[take] * vt[2]
            best[take] = m[take]
    if np.any(best < -1e-9):
        raise ValueError("evaluation point outside the mesh")
    return out


def _evaluate_tensor(axes, values, pts) -> np.ndarray:
    """Fast CPWL evaluation on a tensor grid split along ll->ur diagonals."""
    xs, ys = axes
    nx = xs.size
    vals = values.reshape(ys.size, nx)
    ix = np.clip(np.searchsorted(xs, pts[:, 0], side="right") - 1, 0, nx - 2)
    iy = np.clip(np.searchsorted(ys, pts[:, 1], side="right") - 1, 0, ys.size - 2)
    s = (pts[:, 0] - xs[ix]) / (xs[ix + 1] - xs[ix])
    t = (pts[:, 1] - ys[iy]) / (ys[iy + 1] - ys[iy])
    f00 = vals[iy, ix]
    f10 = vals[iy, ix + 1]
    f01 = vals[iy + 1, ix]
    f11 = vals[iy + 1, ix + 1]
    lower = s >= t
    out = np.where(lower,
                   f00 + s * (f10 - f00) + t * (f11 - f10),
                   f00 + s * (f11 - f01) + t * (f01 - f00))
    return out


def triangulate_tensor_grid(xs: np.ndarray, ys: np.ndarray,
                            values: np.ndarray) -> CpwlFunction:
    """CPWL from values on a tensor grid (rows indexed by ys), ll->ur diagonals."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (ys.size, xs.size):
        raise ValueError("values shape must be (len(ys), len(xs))")
    nx, ny = xs.size, ys.size
    XX, YY = np.meshgrid(xs, ys)
    vertices = np.column_stack([XX.ravel(), YY.ravel()])

    # cell (i, j) has lower-left vertex j*nx + i and splits into two triangles
    v00 = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    v10, v01 = v00 + 1, v00 + nx
    v11 = v01 + 1
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return CpwlFunction(vertices, tris, values.ravel(), axes=(xs, ys))


# ---------------------------------------------------------------------------
# ReLU compilation
# ---------------------------------------------------------------------------

# Points per block in ReluNet.evaluate.  A block's activations are
# width × block × 8 B, 0.6 MB over the layers of the default run's net
# (widths 1536, 1536, 799, 514, 289, 1) at 16 points and 2.4 MB at 64.
# Whether glibc reuses freed blocks or trims them and faults them in again
# depends on what the rest of the run left on the heap.  Per call on the
# 2000-point audit (2-core Xeon, glibc malloc defaults, then trimming off):
# 64 points 51-54 ms and 21k minor faults, 23 ms; 32 points 27-54 ms and up
# to 18k faults, 27 ms; 16 points 30 ms and no faults in both layouts
# measured, 30 ms; 8 points 46-50 ms, 46-49 ms.  In the layout that faults
# at 32, 24 and 28 points do not; 16 keeps a wide margin below that onset.
EVAL_BLOCK_ROWS = 16

@dataclass
class _Layer:
    W: sparse.csr_matrix
    b: np.ndarray
    relu: np.ndarray  # bool per output unit


@dataclass
class ReluNet:
    """Feedforward net with per-unit rectifier flags; exact CPWL compile target."""

    layers: list
    depth: int
    param_count: int
    constants: dict = field(default_factory=dict)

    def evaluate(self, points) -> np.ndarray:
        """Net output at (N, 2) points, or at one (2,) point.

        The layers run over blocks of at most ``EVAL_BLOCK_ROWS`` points, so
        the dense hidden activations are width × block rather than width × N
        (for the pipeline's 2000-point audit of a 1536-unit layer, 0.2 MB
        instead of 25 MB).  A sparse-times-dense product computes each
        point's column on its own, so the result equals a one-shot pass bit
        for bit.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], EVAL_BLOCK_ROWS):
            z = np.ascontiguousarray(pts[start:start + EVAL_BLOCK_ROWS].T)
            for layer in self.layers:
                z = layer.W @ z
                z += layer.b[:, None]
                np.maximum(z, 0.0, out=z, where=layer.relu[:, None])
            out[start:start + z.shape[1]] = z[0]
        return out if np.asarray(points).ndim > 1 else out[0]

    def __call__(self, points):
        return self.evaluate(points)

    def to_json(self) -> str:
        layers = []
        for layer in self.layers:
            W = layer.W.tocoo()
            layers.append({
                "shape": list(W.shape),
                "weights": {"rows": W.row.tolist(), "cols": W.col.tolist(),
                            "vals": W.data.tolist()},
                "bias": layer.b.tolist(),
                "relu": layer.relu.astype(bool).tolist(),
            })
        return json.dumps({"layers": layers, "depth": self.depth,
                           "param_count": self.param_count,
                           "constants": self.constants}, sort_keys=True)


# the corners of a triangle other than corner k, in the triangle's order
_OTHER_CORNERS = np.array([[1, 2], [0, 2], [0, 1]])


def _interleave(a: np.ndarray, b: np.ndarray, with_b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ... with b[i] only where with_b[i]."""
    keep = np.column_stack([np.ones(a.size, dtype=bool), with_b]).ravel()
    return np.column_stack([a, b]).ravel()[keep]


def compile_to_relu(f: CpwlFunction) -> ReluNet:
    """Exact depth-<=4 ReLU realization of a CPWL function.

    Every vertex star must have valence <= ``MAX_VALENCE`` (raise otherwise);
    structured tensor meshes always satisfy this with valence <= 6.
    """
    V = f.n_vertices
    tris = f.triangles
    flat = tris.ravel()
    max_deg = int(np.bincount(flat, minlength=V).max())
    if max_deg > MAX_VALENCE:
        raise ValueError(f"vertex valence {max_deg} exceeds {MAX_VALENCE}; "
                         "refine the mesh first")

    # Layer 1: all barycentric affine forms, grouped per vertex in increasing
    # triangle order.  Form (a, b, c) of vertex v in triangle t solves
    # a*x + b*y + c = 1 at v and 0 at t's other two vertices (in t's order).
    order = np.argsort(flat, kind="stable")
    vert = flat[order]
    t, k = np.divmod(order, 3)
    others = tris[t[:, None], _OTHER_CORNERS[k]]
    A = np.ones((order.size, 3, 3))
    A[:, 0, :2] = f.vertices[vert]
    A[:, 1:, :2] = f.vertices[others]
    sol = np.linalg.solve(A, np.array([1.0, 0.0, 0.0]))
    # vertex v's forms are rows bounds[v] to bounds[v + 1] - 1
    bounds = np.searchsorted(vert, np.arange(V + 1))
    W1 = sparse.csr_matrix(sol[:, :2])
    layers = [_Layer(W1, sol[:, 2].copy(), np.zeros(order.size, dtype=bool))]

    # Comparator rounds.  Each virtual value is a combination of the current
    # layer's units, held as a slice of two flat arrays: value i is the sum
    # of coef[j] * unit[j] over j in ptr[i]:ptr[i + 1], and vertex v's values
    # are vstart[v] to vstart[v + 1] - 1.  min(a, b) = a - relu(a - b); the
    # subtraction is deferred to the next layer's affine rows so each round
    # stays a single affine+relu block.  A round emits one unit per value:
    # a pair (i, i + 1) of one vertex gives unit i = relu(value i - value
    # i + 1) and unit i + 1 = value i, whose next value is unit i + 1 - unit
    # i; a vertex's odd last value i is copied to unit i, the next value.
    n = order.size
    unit, coef, ptr = np.arange(n), np.ones(n), np.arange(n + 1)
    vstart = bounds
    n_rounds = max(1, int(np.ceil(np.log2(max_deg)))) if max_deg > 1 else 0
    for _ in range(n_rounds):
        idx = np.arange(n)
        count = np.diff(vstart)
        local = idx - np.repeat(vstart[:-1], count)
        odd = local % 2 == 1
        opens = ~odd & (local + 1 < np.repeat(count, count))
        # unit i: value i (value i - 1 for a pair's second), minus value
        # i + 1 for a pair's first
        src = _interleave(idx - odd, idx + 1, opens)
        sign = _interleave(np.ones(n), -np.ones(n), opens)
        # the terms of those values, slice after slice
        lens = ptr[src + 1] - ptr[src]
        terms = np.repeat(ptr[src] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
        rows = np.repeat(np.repeat(idx, 1 + opens), lens)
        W = sparse.csr_matrix((coef[terms] * np.repeat(sign, lens), (rows, unit[terms])),
                              shape=(n, layers[-1].W.shape[0]))
        layers.append(_Layer(W, np.zeros(n), opens))
        first, pair = idx[~odd], opens[~odd]
        unit = _interleave(first + pair, first, pair)
        coef = _interleave(np.ones(first.size), -np.ones(first.size), pair)
        ptr = np.concatenate([[0], np.cumsum(1 + pair)])
        vstart = np.concatenate([[0], np.cumsum((count + 1) // 2)])
        n = first.size

    # Hat layer: phi_v = relu(m_v); the zero comparison is this last level.
    assert np.array_equal(vstart, np.arange(V + 1))
    rows = np.repeat(np.arange(V), np.diff(ptr))
    W_hat = sparse.csr_matrix((coef, (rows, unit)), shape=(V, layers[-1].W.shape[0]))
    layers.append(_Layer(W_hat, np.zeros(V), np.ones(V, dtype=bool)))

    # Affine readout.
    W_out = sparse.csr_matrix(f.nodal_values[None, :])
    layers.append(_Layer(W_out, np.zeros(1), np.zeros(1, dtype=bool)))

    depth = sum(1 for layer in layers if layer.relu.any())
    param_count = int(sum(layer.W.nnz + np.count_nonzero(layer.b)
                          for layer in layers))
    M = f.n_triangles
    c1, c2, c3 = 4.0, 30.0, 2.0
    constants = {
        "V": V, "M": M, "c1": c1, "c2": c2, "c3": c3,
        "param_bound": c1 * V + c2 * M,
        "max_valence": max_deg,
    }
    if param_count > constants["param_bound"]:
        raise AssertionError("parameter count exceeded the compile-time bound")
    return ReluNet(layers=layers, depth=depth, param_count=param_count,
                   constants=constants)
