import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nondivfem import bisect, build_rect_mesh, build_space, interpolate
from nondivfem.space import (
    _cg_dof_count,
    _sym,
    _edge_points,
    _facet_edges,
    boundary_dofs,
    evaluate,
    facet_quadrature,
    physical_points,
    quadrature,
    reference_element,
    scatter,
)


def exact_monomial_integral(a, b):
    # int over the reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_sym_broadcasts_scalars_and_arrays():
    a, b = np.arange(6.0).reshape(2, 3), np.array([7.0, 8.0, 9.0])
    S = _sym(a, b, 5.0)
    assert S.shape == (2, 3, 2, 2)
    assert np.array_equal(S[..., 0, 0], a)
    assert np.array_equal(S[..., 0, 1], np.broadcast_to(b, (2, 3)))
    assert np.array_equal(S, np.swapaxes(S, -1, -2))
    assert np.all(S[..., 1, 1] == 5.0)


def test_degree_two_integrates_xy():
    q = quadrature(2)
    val = float(np.sum(q.weights * q.points[:, 0] * q.points[:, 1]))
    assert np.isclose(val, 1 / 24, atol=1e-15)


@pytest.mark.parametrize("degree", range(1, 21))
def test_rules_positive_and_exact(degree):
    q = quadrature(degree)
    # the collapsed Gauss rule: n x n points, n = ceil((degree + 2) / 2)
    assert len(q.weights) == math.ceil((degree + 2) / 2) ** 2
    assert (q.weights > 0).all()
    assert np.isclose(q.weights.sum(), 0.5, atol=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = float(np.sum(q.weights * q.points[:, 0] ** a * q.points[:, 1] ** b))
            exact = exact_monomial_integral(a, b)
            assert abs(val - exact) < 1e-12 * max(1.0, exact)


def test_facet_rule_exactness():
    t, w = facet_quadrature(7)
    for k in range(8):
        assert np.isclose(np.sum(w * t**k), 1.0 / (k + 1), atol=1e-14)


@pytest.mark.parametrize("rule", [quadrature, facet_quadrature])
def test_quadrature_rules_are_built_once_and_read_only(rule):
    first = rule(6)
    assert rule(6) is first
    points, weights = (first.points, first.weights) if rule is quadrature else first
    for a in (points, weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_quadrature_rejects_degree_zero():
    with pytest.raises(ValueError):
        quadrature(0)


def test_dof_counts_two_cells():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    assert build_space(m, 2, "CG").n_dofs == 9
    assert build_space(m, 2, "DG").n_dofs == 12


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_cg_dof_count_matches_the_dof_map(p):
    mesh = bisect(build_rect_mesh(0, 1, 0, 1, 2, 2), [0, 3, 5])
    V = build_space(mesh, p, "CG")
    # the dof map numbers every dof once, contiguously from 0
    assert _cg_dof_count(mesh, p) == V.n_dofs == np.unique(V.dof_map).size == V.dof_map.max() + 1


def test_dg_counts_no_sharing():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for p in (1, 2, 3):
        V = build_space(m, p, "DG")
        ndofs_loc = (p + 1) * (p + 2) // 2
        assert V.n_dofs == m.n_cells * ndofs_loc


def test_boundary_dofs():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    V1 = build_space(m, 1, "CG")
    assert len(boundary_dofs(V1)) == 4 == V1.n_dofs
    V2 = build_space(m, 2, "CG")
    bd = boundary_dofs(V2)
    assert len(bd) == 8 and V2.n_dofs == 9
    # the interior dof sits at the square's center
    free = np.setdiff1d(np.arange(9), bd)
    assert np.allclose(V2.node_coords[free[0]], [0.5, 0.5])
    # a geometric oracle that does not depend on the numbering: on a
    # bisected rectangle, the boundary dofs are exactly the dofs whose
    # nodes lie on one of its four sides
    x0, x1, y0, y1 = -1.0, 2.0, 0.5, 1.25
    m = build_rect_mesh(x0, x1, y0, y1, 3, 2)
    rng = np.random.default_rng(0)
    for _ in range(3):
        m = bisect(m, rng.choice(m.n_cells, m.n_cells // 3, replace=False))
    for p in (1, 2, 3, 4):
        V = build_space(m, p, "CG")
        x, y = V.node_coords.T
        on_side = np.isclose(x, x0) | np.isclose(x, x1) | np.isclose(y, y0) | np.isclose(y, y1)
        bd = boundary_dofs(V)
        assert bd.dtype == np.int64
        assert np.array_equal(bd, np.flatnonzero(on_side)), p


def test_boundary_dofs_rejects_dg():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        boundary_dofs(build_space(m, 1, "DG"))


def test_build_space_validation():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        build_space(m, 0, "CG")
    with pytest.raises(ValueError):
        build_space(m, 1, "XXX")


@pytest.mark.parametrize("p", [2.9, 1.5, True, np.True_, np.nan, np.inf])
def test_build_space_refuses_a_degree_that_is_not_an_integer(p):
    # truncated, 2.9 would build a P2 space and True a P1 space
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="degree must be an integer"):
        build_space(m, p, "CG")


@pytest.mark.parametrize("p", [2.0, np.int64(2), np.float64(2.0)])
def test_build_space_takes_an_integral_degree_of_any_number_type(p):
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(m, p, "CG")
    assert V.n_dofs == build_space(m, 2, "CG").n_dofs == 25


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_cg_interpolation_single_valued(p):
    # interpolating a global polynomial must give identical values from
    # both sides of every interior facet (dof sharing is consistent)
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(m, p, "CG")

    def f(x):
        return (1.0 + x[:, 0]) ** p - 0.5 * x[:, 1] ** min(p, 2)

    u = interpolate(V, f)
    q = quadrature(2 * p + 2)
    vals, _, _ = evaluate(u, q)
    pts = physical_points(m, q.points)
    exact = (1.0 + pts[..., 0]) ** p - 0.5 * pts[..., 1] ** min(p, 2)
    assert np.abs(vals - exact).max() < 1e-11


def test_p1_reference_mass_matrix():
    ref = reference_element(1)
    q = quadrature(2)
    phi = ref.tabulate(q.points)
    M = np.einsum("q,qi,qj->ij", q.weights, phi, phi)
    area = 0.5
    expect = (area / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(M, expect, atol=1e-15)


def test_evaluate_derivatives_of_cubic():
    m = build_rect_mesh(0, 2, 0, 1, 2, 2)
    V = build_space(m, 3, "CG")
    u = interpolate(V, lambda x: x[:, 0] ** 3 - 3 * x[:, 0] * x[:, 1] ** 2)
    q = quadrature(6)
    vals, grads, hess = evaluate(u, q)
    pts = physical_points(m, q.points)
    X, Y = pts[..., 0], pts[..., 1]
    assert np.abs(vals - (X**3 - 3 * X * Y**2)).max() < 1e-11
    assert np.abs(grads[..., 0] - (3 * X**2 - 3 * Y**2)).max() < 1e-10
    assert np.abs(grads[..., 1] + 6 * X * Y).max() < 1e-10
    assert np.abs(hess[..., 0, 0] - 6 * X).max() < 1e-9
    assert np.abs(hess[..., 0, 1] + 6 * Y).max() < 1e-9
    assert np.abs(hess[..., 1, 1] + 6 * X).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=3, max_size=3),
)
def test_interpolation_reproduces_polynomials(p, coeffs):
    # nodal interpolation of any polynomial of degree <= p is exact
    a, b, c = coeffs
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(m, p, "CG")

    def f(x):
        return a + b * x[:, 0] ** p + c * x[:, 1] * x[:, 0] ** (p - 1)

    u = interpolate(V, f)
    q = quadrature(2 * p)
    vals, _, _ = evaluate(u, q)
    pts = physical_points(m, q.points)
    exact = a + b * pts[..., 0] ** p + c * pts[..., 1] * pts[..., 0] ** (p - 1)
    assert np.abs(vals - exact).max() < 1e-10 * max(1.0, abs(a) + abs(b) + abs(c))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
def test_physical_points_map_one_rule_onto_every_cell(seed, p):
    # every point set the library maps (the assembly rule 2p + 2, the
    # a posteriori rule 2p + 4 and the Lagrange nodes) lands where each
    # cell's own affine map v0 + J xi puts it, point by point
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(-1, 1, -1, 1, 2, 2)
    for _ in range(4):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=max(1, mesh.n_cells // 3), replace=False))
    v0 = mesh.vertices[mesh.cells[:, 0]]
    for ref_pts in (quadrature(2 * p + 2).points, quadrature(2 * p + 4).points,
                    reference_element(p).nodes):
        pts = physical_points(mesh, ref_pts)
        assert pts.shape == (mesh.n_cells, len(ref_pts), 2) and pts.flags.c_contiguous
        for k, xi in enumerate(ref_pts):
            assert np.abs(pts[:, k] - (v0 + mesh.cell_jacobians @ xi)).max() <= 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_facet_trace_points_lie_on_the_facet(seed, p):
    # the facet kernel pairs the two cells' traces point by point, so both
    # sides must put parameter t at va + t (vb - va), va the first vertex
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for _ in range(3):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=max(1, mesh.n_cells // 3), replace=False))
    t, _ = facet_quadrature(2 * p + 2)
    va, vb = mesh.vertices[mesh.facets[:, 0]], mesh.vertices[mesh.facets[:, 1]]
    target = va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]
    for side, facets in ((0, np.arange(mesh.n_facets)), (1, mesh.interior_facets())):
        cells, rows = _facet_edges(mesh, facets, side)
        v0 = mesh.vertices[mesh.cells[cells, 0]]
        pts = v0[:, None, :] + np.einsum("fij,ftj->fti", mesh.cell_jacobians[cells], _edge_points(t)[rows])
        assert np.abs(pts - target[facets]).max() <= 1e-14


def _coo_sum(block, rows, cols, shape):
    """One block summed by SciPy's COO-to-CSR conversion."""
    r = np.repeat(rows, cols.shape[1], axis=1).ravel()
    c = np.tile(cols, (1, rows.shape[1])).ravel()
    return sp.coo_matrix((block.ravel(), (r, c)), shape=shape).tocsr()


def _leaves(nested):
    return [m for x in nested for m in _leaves(x)] if isinstance(nested, list) else [nested]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([(), (3,), (2, 2)]),
)
def test_scatter_sums_every_block_like_its_own_coo_matrix(seed, n, lead):
    # every block is the COO sum of its own data bit for bit, with sorted
    # indices, and owns its index arrays
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
    rows = rng.integers(0, shape[0], size=(n, 3))
    cols = rng.integers(0, shape[1], size=(n, 2))
    blocks = rng.standard_normal(lead + (n, 3, 2))
    out = scatter(blocks, rows, cols, shape)
    if not lead:
        assert isinstance(out, sp.csr_matrix)
    matrices = _leaves(out)
    assert len(matrices) == math.prod(lead)
    flat = blocks.reshape((len(matrices), n, 3, 2))
    oracles = [_coo_sum(b, rows, cols, shape) for b in flat]

    def check(m, ref):
        assert m.shape == shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(m, name), getattr(ref, name))

    for m, ref in zip(matrices, oracles):
        check(m, ref)

    # pruning one matrix in place leaves the others as they were
    for a in range(len(matrices)):
        for b in range(a + 1, len(matrices)):
            for name in ("indices", "indptr", "data"):
                assert not np.shares_memory(getattr(matrices[a], name),
                                            getattr(matrices[b], name))
    if matrices[0].nnz:
        matrices[0].data[::2] = 0.0
        matrices[0].eliminate_zeros()
        for m, ref in zip(matrices[1:], oracles[1:]):
            check(m, ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_scatter_stores_no_position_whose_entries_are_all_zero(seed, n):
    # half the local entries are exactly zero; a position is stored exactly
    # when some entry summed into it is not, with the COO sum as its value
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
    rows = rng.integers(0, shape[0], size=(n, 3))
    cols = rng.integers(0, shape[1], size=(n, 2))
    blocks = np.where(rng.random((2, n, 3, 2)) < 0.5, 0.0, rng.standard_normal((2, n, 3, 2)))
    for m, b in zip(scatter(blocks, rows, cols, shape), blocks):
        touched = _coo_sum((b != 0.0).astype(np.float64), rows, cols, shape)
        touched.eliminate_zeros()
        assert np.array_equal(m.indptr, touched.indptr)
        assert np.array_equal(m.indices, touched.indices)
        assert np.array_equal(m.toarray(), _coo_sum(b, rows, cols, shape).toarray())


@pytest.mark.parametrize("assembler", ["stabilization", "C_DG"])
def test_scatter_peaks_at_most_3_5_times_its_blocks(assembler, monkeypatch):
    # coordinates are built once for all blocks and every block converts on
    # its own, so the working set beyond the blocks is about one block's COO
    from nondivfem import hessian, operator

    calls = []
    for module in (hessian, operator):
        monkeypatch.setattr(module, "scatter", lambda *args: calls.append(args) or scatter(*args))
    mesh = build_rect_mesh(0, 1, 0, 1, 32, 32)
    V = build_space(mesh, 2, "CG")
    if assembler == "stabilization":
        operator.assemble_stabilization(V, 1.0)
    else:
        hessian.assemble_C(V, build_space(mesh, 2, "DG"))
    # DG C scatters its cell blocks and its interior-facet blocks apart
    assert len(calls) == (1 if assembler == "stabilization" else 2)
    for args in calls:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scatter(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * args[0].nbytes


def test_scatter_takes_int64_coordinates_beyond_int32():
    # a column index of 2**31 + 3 does not fit int32 coordinates
    shape = (2, 2**31 + 4)
    rows = np.array([[0, 1], [1, 1]])
    cols = np.array([[2**31 + 3], [5]])
    blocks = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    out = scatter(blocks, rows, cols, shape)
    assert out.shape == shape
    assert out.indices.dtype == np.int64
    assert out.nnz == 3
    assert out[0, 2**31 + 3] == 1.0 and out[1, 2**31 + 3] == 2.0 and out[1, 5] == 7.0
