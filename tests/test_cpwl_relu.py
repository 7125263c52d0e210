import json

import numpy as np
import pytest

from scipy import sparse

from arbsurf.cpwl import (EVAL_BLOCK_ROWS, CpwlFunction, ReluNet, _Layer,
                          compile_to_relu, triangulate_tensor_grid)
from conftest import traced_peak
from tests_oracle_helpers import dict_compile_to_relu


def _random_grid_cpwl(n, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    xs = np.linspace(lo, hi, n)
    ys = np.linspace(lo, hi, n)
    return triangulate_tensor_grid(xs, ys, rng.standard_normal((n, n))), rng


def test_mesh_validation_errors():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        CpwlFunction(verts, np.array([[0, 1, 2]]), np.zeros(3))
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        CpwlFunction(verts, np.array([[0, 1, 3]]), np.zeros(3))
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                      [1.0, 1.0]])
    with pytest.raises(ValueError, match=r"edge \(.+\) shared by 3 triangles"):
        CpwlFunction(verts, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]),
                     np.zeros(5))


def test_mesh_and_first_layer_match_their_loop_reference():
    # the triangle order and the barycentric forms, against the per-cell and
    # per-form loops: the same arithmetic, so the same bits
    rng = np.random.default_rng(5)
    nx, ny = 7, 5
    xs, ys = np.sort(rng.uniform(0, 3, nx)), np.sort(rng.uniform(0, 1, ny))
    f = triangulate_tensor_grid(xs, ys, rng.standard_normal((ny, nx)))
    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            v00, v01 = j * nx + i, (j + 1) * nx + i
            tris += [(v00, v00 + 1, v01 + 1), (v00, v01 + 1, v01)]
    assert np.array_equal(f.triangles, tris)
    forms = []
    for v in range(f.n_vertices):
        for tri in f.triangles:
            if v in tri:
                p, q, r = (f.vertices[u] for u in (v, *(u for u in tri if u != v)))
                A = np.array([[*p, 1.0], [*q, 1.0], [*r, 1.0]])
                forms.append(np.linalg.solve(A, np.array([1.0, 0.0, 0.0])))
    forms = np.array(forms)
    first = compile_to_relu(f).layers[0]
    assert np.array_equal(first.W.toarray(), forms[:, :2])
    assert np.array_equal(first.b, forms[:, 2])


def test_evaluation_continuous_across_edges():
    f, rng = _random_grid_cpwl(4, seed=1)
    # points on interior shared edges: barycentric evaluation from either
    # side must agree
    xs = f.axes[0]
    for x_edge in xs[1:-1]:
        ts = rng.random(50)
        pts = np.column_stack([np.full(50, x_edge), ts])
        left = f.evaluate(pts - np.array([1e-12, 0.0]))
        right = f.evaluate(pts + np.array([1e-12, 0.0]))
        np.testing.assert_allclose(left, right, atol=1e-9)


def test_generic_and_structured_eval_agree():
    f, rng = _random_grid_cpwl(5, seed=2)
    g = CpwlFunction(f.vertices, f.triangles, f.nodal_values)  # no axes hint
    pts = rng.random((500, 2))
    np.testing.assert_allclose(f.evaluate(pts), g.evaluate(pts), atol=1e-12)


def test_single_triangle_affine_exact():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vals = np.array([1.0, 3.0, -2.0])   # affine: 1 + 2x - 3y
    f = CpwlFunction(verts, np.array([[0, 1, 2]]), vals)
    net = compile_to_relu(f)
    rng = np.random.default_rng(3)
    b = rng.random((1000, 2))
    inside = b[b.sum(axis=1) <= 1.0]
    got = net.evaluate(inside)
    expect = 1.0 + 2.0 * inside[:, 0] - 3.0 * inside[:, 1]
    assert np.max(np.abs(got - expect)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_random_mesh_compiles_exactly(n):
    f, rng = _random_grid_cpwl(n, seed=n)
    net = compile_to_relu(f)
    pts = rng.random((10_000, 2))
    err = np.max(np.abs(net.evaluate(pts) - f.evaluate(pts)))
    assert err <= 1e-8
    assert net.depth <= 4
    c = net.constants
    assert net.param_count <= c["c1"] * c["V"] + c["c2"] * c["M"]


def test_kinks_only_on_mesh_edges():
    # sample strictly inside each triangle: the net must agree with the CPWL
    # there, so every kink line lies on a mesh edge
    f, _ = _random_grid_cpwl(5, seed=9)
    net = compile_to_relu(f)
    rng = np.random.default_rng(10)
    for tri in f.triangles:
        p = f.vertices[tri]
        bary = rng.dirichlet((2.0, 2.0, 2.0), size=20)  # interior points
        pts = bary @ p
        vals = f.nodal_values[tri] @ bary.T
        np.testing.assert_allclose(net.evaluate(pts), vals, atol=1e-9)


def test_lipschitz_audit():
    f, _ = _random_grid_cpwl(6, seed=4)
    net = compile_to_relu(f)
    rng = np.random.default_rng(5)
    a = rng.random((4000, 2))
    b = rng.random((4000, 2))
    keep = np.linalg.norm(a - b, axis=1) > 1e-9
    a, b = a[keep], b[keep]
    quot = np.abs(net.evaluate(a) - net.evaluate(b)) / np.linalg.norm(a - b, axis=1)
    lip_emp = float(quot.max())
    c3 = net.constants["c3"]
    A_norm = 1.0                      # unit square, identity rescaling
    assert lip_emp <= c3 * A_norm * f.lipschitz_constant() + 1e-9


def _one_shot(net, pts):
    """All points through each layer at once: the unblocked reference pass."""
    z = np.atleast_2d(pts)
    for layer in net.layers:
        z = np.asarray((layer.W @ z.T).T) + layer.b
        if layer.relu.any():
            z[:, layer.relu] = np.maximum(z[:, layer.relu], 0.0)
    return z[:, 0]


@pytest.mark.parametrize("n", sorted({1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS,
                                      EVAL_BLOCK_ROWS + 1, 255, 256, 257, 2000}))
def test_blocked_evaluate_equals_one_shot_pass(n):
    f, rng = _random_grid_cpwl(9, seed=8)
    net = compile_to_relu(f)
    pts = rng.random((n, 2))
    got = net.evaluate(pts)
    assert got.shape == (n,)
    assert np.array_equal(got, _one_shot(net, pts))


def test_single_point_evaluate_equals_one_shot_pass():
    f, _ = _random_grid_cpwl(9, seed=8)
    net = compile_to_relu(f)
    point = np.array([0.3, 0.7])
    got = net.evaluate(point)
    assert np.ndim(got) == 0
    assert got == _one_shot(net, point)[0]


def _hand_built_net(rng):
    """Widths 5, 4, 3, 1: a first layer with a bias and mixed rectifier
    flags, a hidden layer with a bias whose units are all rectified, a
    layer with mixed flags and no bias, and an affine readout."""
    shapes = [(5, 2), (4, 5), (3, 4), (1, 3)]
    biases = [rng.standard_normal(5), rng.standard_normal(4), np.zeros(3),
              np.zeros(1)]
    relus = [np.array([True, False, True, False, False]), np.ones(4, bool),
             np.array([False, True, False]), np.zeros(1, bool)]
    layers = [_Layer(sparse.csr_matrix(rng.standard_normal(shape)), b, r)
              for shape, b, r in zip(shapes, biases, relus)]
    return ReluNet(layers=layers, depth=3, param_count=0)


@pytest.mark.parametrize("n", [1, 16, 17, 2000])
def test_hand_built_net_evaluates_equal_to_one_shot_pass(n):
    # every case of a layer's bias and rectifier flags that evaluate tells
    # apart, on one block, a block and one point, and many blocks
    rng = np.random.default_rng(5)
    net = _hand_built_net(rng)
    pts = rng.standard_normal((n, 2))
    got = net.evaluate(pts)
    assert got.shape == (n,)
    assert np.array_equal(got, _one_shot(net, pts))
    # the pass-through units of the first layer go negative and stay so
    first = net.layers[0]
    z = pts @ first.W.toarray().T + first.b
    assert (z[:, ~first.relu] < 0).any()


def test_valence_above_dmax_raises():
    # a fan of 9 triangles around one hub exceeds MAX_VALENCE = 8
    hub = np.array([[0.0, 0.0]])
    spokes = np.array([[np.cos(t), np.sin(t)]
                       for t in np.linspace(0, 1.8 * np.pi, 10)])
    verts = np.vstack([hub, spokes])
    tris = np.array([[0, i, i + 1] for i in range(1, 10)])
    f = CpwlFunction(verts, tris, np.zeros(verts.shape[0]))
    with pytest.raises(ValueError):
        compile_to_relu(f)


def test_relu_net_json_roundtrip():
    f, _ = _random_grid_cpwl(4, seed=6)
    net = compile_to_relu(f)
    doc = json.loads(net.to_json())
    assert doc["depth"] == net.depth
    assert doc["param_count"] == net.param_count
    assert len(doc["layers"]) == len(net.layers)
    for layer in doc["layers"]:
        assert {"shape", "weights", "bias", "relu"} <= set(layer)


def _fan(k, seed):
    # a hub of valence k inside a ring of k spokes, random nodal values
    angles = np.linspace(0, 2 * np.pi, k, endpoint=False)
    verts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
    tris = np.array([[0, 1 + i, 1 + (i + 1) % k] for i in range(k)])
    return CpwlFunction(verts, tris, np.random.default_rng(seed).standard_normal(k + 1))


def _tensor(nx, ny, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0, 3, nx)) if seed % 2 else np.linspace(80, 120, nx)
    ys = np.sort(rng.uniform(0, 1, ny)) if seed % 2 else np.linspace(0.1, 1.1, ny)
    return triangulate_tensor_grid(xs, ys, rng.standard_normal((ny, nx)))


_REFERENCE_MESHES = {
    **{f"{nx}x{ny}": (lambda nx=nx, ny=ny: _tensor(nx, ny, 0))
       for nx, ny in [(31, 11), (61, 11), (5, 7), (17, 17)]},
    **{f"random {seed}": (lambda seed=seed: _tensor(*np.random.default_rng(seed).integers(
        2, 24, 2), 2 * seed + 1)) for seed in range(4)},
    **{f"fan {k}": (lambda k=k: _fan(k, k)) for k in range(3, 9)},
    "one triangle": lambda: CpwlFunction(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                                         np.array([[0, 1, 2]]), np.array([1.0, -2.0, 3.0])),
}


@pytest.mark.parametrize("mesh", sorted(_REFERENCE_MESHES))
def test_compiler_matches_its_dict_reference(mesh):
    # the array-built comparator rounds and hat layer against the per-unit
    # dict compiler they replace: the same CSR arrays (entry order and index
    # dtype included), biases, relu flags, counts and JSON
    f = _REFERENCE_MESHES[mesh]()
    got, ref = compile_to_relu(f), dict_compile_to_relu(f)
    assert len(got.layers) == len(ref.layers)
    for a, b in zip(got.layers, ref.layers):
        assert a.W.shape == b.W.shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a.W, name), getattr(b.W, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.b, b.b), (a.relu, b.relu)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (got.depth, got.param_count, got.constants) == \
        (ref.depth, ref.param_count, ref.constants)
    assert got.to_json() == ref.to_json()


def test_compile_peak_memory_stays_under_its_guard():
    # the level-4 sparse-grid mesh (17 x 17 nodes, 1536 barycentric forms)
    # peaked at 0.53-0.55 MB (1.10 MB with the per-unit dict compiler)
    f = triangulate_tensor_grid(np.linspace(80, 120, 17), np.linspace(0.1, 1.1, 17),
                                np.random.default_rng(3).standard_normal((17, 17)))
    assert traced_peak(compile_to_relu, f) <= 0.7e6
