import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fe_oracle import reference_bisect, reference_dof_map, reference_facets
from nondivfem import bisect, build_rect_mesh, build_space
from nondivfem.mesh import Mesh


def test_unit_square_two_cells():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert m.n_facets == 5
    assert len(m.boundary_facets()) == 4
    assert len(m.interior_facets()) == 1
    assert np.isclose(m.cell_areas.sum(), 1.0)


def test_two_by_two_counts():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    assert m.n_vertices == 9
    assert m.n_cells == 8
    assert m.n_facets == 16
    assert len(m.interior_facets()) == 8


def test_area_biunit_square():
    m = build_rect_mesh(-1, 1, -1, 1, 4, 4)
    assert np.isclose(m.cell_areas.sum(), 4.0, atol=1e-12)


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (4, 4), (5, 2)])
def test_facet_count_identity(nx, ny):
    m = build_rect_mesh(0, 1, 0, 1, nx, ny)
    assert 3 * m.n_cells == 2 * len(m.interior_facets()) + len(m.boundary_facets())


def test_positive_orientation_and_normals():
    m = build_rect_mesh(0, 2, -1, 1, 3, 3)
    assert (m.cell_det > 0).all()
    assert np.allclose(np.linalg.norm(m.facet_normals, axis=1), 1.0)
    # boundary normals point out of the domain: a small step along the
    # normal from the facet midpoint leaves the bounding box
    for f in m.boundary_facets():
        mid = m.vertices[m.facets[f]].mean(axis=0)
        out = mid + 1e-6 * m.facet_normals[f]
        inside = (0 <= out[0] <= 2) and (-1 <= out[1] <= 1)
        assert not inside


def test_interior_normal_points_from_minus_to_plus():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for f in m.interior_facets():
        plus, minus = m.facet_cells[f]
        cp = m.vertices[m.cells[plus]].mean(axis=0)
        cm = m.vertices[m.cells[minus]].mean(axis=0)
        assert np.dot(m.facet_normals[f], cp - cm) > 0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_rect_mesh(1, 0, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1, 0, 1, 0, 1)
    # int() alone would truncate a fractional count, 2.5 to the 2 x 2 mesh
    # and a bool is no count: True would build the 1 x 1 mesh
    for nx, ny in ((2.5, 2), (2, 2.5), (np.nan, 2), (np.inf, 2), (True, True), (2, np.True_)):
        with pytest.raises(ValueError, match="integers"):
            build_rect_mesh(0, 1, 0, 1, nx, ny)
    assert build_rect_mesh(0, 1, 0, 1, 2.0, np.int64(2)).n_cells == 8
    with pytest.raises(ValueError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    # clockwise cell: negative signed area
    with pytest.raises(ValueError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 2, 1]]))
    # a NaN vertex would pass the area check (nan <= 0 is False)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="vertex 2 has non-finite"):
            Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]]), np.array([[0, 1, 2]]))
    # finite vertices whose signed area overflows: inf - inf is nan, which
    # would pass a `<= 0` check, and a plain inf has no inverse Jacobian
    for far in ([[0, 0], [1e200, 1e200], [1e200, 2e200]], [[0, 0], [1e200, 0], [0, 1e200]]):
        with pytest.raises(ValueError, match="cell 0 has signed area"):
            Mesh(np.array(far, dtype=float), np.array([[0, 1, 2]]))


def test_edge_of_three_cells_is_rejected():
    # [0, 1] is an edge of a cell below it and of two overlapping cells above
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="more than two cells"):
        Mesh(vertices, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_facets_and_orientation_match_the_reference(nx, ny, rounds, seed):
    rng = np.random.default_rng(seed)
    m = build_rect_mesh(0, 2, 0, 1, nx, ny)
    for _ in range(rounds):
        m = bisect(m, rng.choice(m.n_cells, size=rng.integers(1, m.n_cells + 1), replace=False))
    # the closed-form 2x2 determinant and inverse agree with LAPACK's
    det, inv = np.linalg.det(m.cell_jacobians), np.linalg.inv(m.cell_jacobians)
    assert np.all(np.abs(m.cell_det - det) <= 1e-14 * np.abs(det))
    scale = np.abs(inv).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(m.cell_inv_jacobians - inv) <= 1e-14 * scale)
    ref = reference_facets(m)
    for name in ("facets", "cell_facets", "facet_cells", "facet_local", "boundary_flags",
                 "facet_normals"):
        assert np.array_equal(getattr(m, name), getattr(ref, name)), name
    for p in (1, 2, 3, 4):
        for continuity in ("CG", "DG"):
            assert np.array_equal(build_space(m, p, continuity).dof_map,
                                  reference_dof_map(m, p, continuity))
    # the two cells of an interior facet run it in opposite directions
    f = m.interior_facets()
    flipped = m.cell_edge_flipped[m.facet_cells[f], m.facet_local[f]]
    assert np.all(flipped[:, 0] != flipped[:, 1])


def test_bisect_all_cells():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    m2 = bisect(m, [0, 1])
    assert m2.n_cells == 4
    assert np.isclose(m2.cell_areas.sum(), 1.0)


def test_bisect_single_cell_closure_conforming():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    m2 = bisect(m, [0])
    # the neighbor sharing the refinement edge is split as well
    assert m2.n_cells == 4
    assert 3 * m2.n_cells == 2 * len(m2.interior_facets()) + len(m2.boundary_facets())


def test_bisect_bad_ids():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    with pytest.raises(IndexError):
        bisect(m, [5])


def test_bisect_refuses_ids_that_are_not_integers():
    # a cast to int64 would turn a boolean mask of cell 5 into the ids
    # [0, 1], and [5.7] into [5]
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    mask = np.zeros(m.n_cells, dtype=bool)
    mask[5] = True
    for marked in (mask, [True], [5.7], np.array([5.0])):
        with pytest.raises(TypeError, match="integers"):
            bisect(m, marked)
    for empty in ([], np.array([], dtype=np.int64)):
        assert np.array_equal(bisect(m, empty).cells, m.cells)
    assert np.array_equal(bisect(m, np.array([5], dtype=np.int32)).cells, bisect(m, [5]).cells)


@pytest.mark.parametrize("cells, edges", [
    ([[0, 1.7, 2]], None),                      # truncated to [0, 1, 2]
    (np.array([[0.0, 1.0, 2.0]]), None),        # integral floats too
    (np.array([[True, False, True]]), None),
    ([[0, 1, 2]], [1.9]),                       # truncated to edge 1
    ([[0, 1, 2]], np.array([1.0])),
    ([[0, 1, 2]], [True]),                      # would be edge 1
], ids=["fractional-cell", "float-cell", "bool-cell", "fractional-edge", "float-edge", "bool-edge"])
def test_mesh_refuses_vertex_ids_and_refinement_edges_that_are_not_integers(cells, edges):
    v = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(TypeError, match="integers"):
        Mesh(v, cells, refinement_edges=edges)
    m = Mesh(v, np.array([[0, 1, 2]], dtype=np.int32), refinement_edges=np.array([1], dtype=np.uint8))
    assert m.cells.dtype == m.refinement_edges.dtype == np.int64
    assert m.refinement_edges.tolist() == [1]


def _max_aspect_ratio(mesh):
    """Largest h_T / rho_T, rho_T the diameter of the inscribed circle."""
    v = mesh.vertices[mesh.cells]
    e = np.linalg.norm(v - np.roll(v, 1, axis=1), axis=2)
    rho = 4.0 * mesh.cell_areas / e.sum(axis=1)         # 2 area / half perimeter
    return float((e.max(axis=1) / rho).max())


def test_mesh_quality_right_isoceles():
    tri = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    # inscribed-circle diameter of the legs-1 right triangle is 2 - sqrt(2)
    rho = 2.0 - np.sqrt(2.0)
    v = tri.vertices[tri.cells[0]]
    assert np.isclose(np.linalg.norm(v - np.roll(v, 1, axis=0), axis=1).max(), np.sqrt(2.0))
    assert np.isclose(_max_aspect_ratio(tri), np.sqrt(2.0) / rho)


def test_equilateral_minimizes_aspect():
    eq = Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]), np.array([[0, 1, 2]])
    )
    sc = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.25]]), np.array([[0, 1, 2]]))
    assert _max_aspect_ratio(eq) < _max_aspect_ratio(sc)


def test_aspect_ratio_bounded_over_uniform_rounds():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    a0 = _max_aspect_ratio(m)
    for _ in range(5):
        m = bisect(m, np.arange(m.n_cells))
    a5 = _max_aspect_ratio(m)
    assert a5 <= 2.0 * a0 + 1e-12


def test_uniform_refine_matches_structured():
    # two sweeps of bisection over every cell halve h on a structured mesh
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for _ in range(2):
        m = bisect(m, np.arange(m.n_cells))
    ref = build_rect_mesh(0, 1, 0, 1, 4, 4)
    assert (m.n_vertices, m.n_cells, m.n_facets) == (ref.n_vertices, ref.n_cells, ref.n_facets)
    assert np.isclose(m.h_max, ref.h_max)


# a cell line holds three vertex ids and the refinement edge; the second cell
# of the unit square is "0 3 2 2", and -1 would wrap to vertex 3
@pytest.mark.parametrize("line", ["0 -1 2 2", "0 3 4 2", "0 3 2 -1", "0 3 2 3"])
def test_read_mesh_rejects_out_of_range_indices(line):
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    rows = np.column_stack([m.cells, m.refinement_edges])
    assert rows[-1].tolist() == [0, 3, 2, 2]
    rows[-1] = [int(w) for w in line.split()]
    with pytest.raises(ValueError):
        Mesh(m.vertices, rows[:, :3], rows[:, 3])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=3))
def test_bisect_random_marks_conforming(raw_marks, rounds):
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for _ in range(rounds + 1):
        marked = sorted({v % m.n_cells for v in raw_marks})
        m = bisect(m, marked)
        assert (m.cell_det > 0).all()
        assert np.isclose(m.cell_areas.sum(), 1.0, atol=1e-12)
        assert 3 * m.n_cells == 2 * len(m.interior_facets()) + len(m.boundary_facets())
        assert m.n_vertices - m.n_facets + m.n_cells == 1  # Euler
        # hanging edges would show up as facets with one neighbor strictly
        # inside the domain
        bmid = m.vertices[m.facets[m.boundary_facets()]].mean(axis=1)
        on_rect = (
            np.isclose(bmid[:, 0], 0.0) | np.isclose(bmid[:, 0], 1.0)
            | np.isclose(bmid[:, 1], 0.0) | np.isclose(bmid[:, 1], 1.0)
        )
        assert on_rect.all()


def _cells_by_refinement_edge(mesh):
    """Each cell as (its refinement edge's endpoints, its opposite vertex), by coordinates."""
    rows = np.arange(mesh.n_cells)
    k = mesh.refinement_edges
    a, b, c = (mesh.vertices[mesh.cells[rows, (k + s) % 3]] for s in (1, 2, 0))
    return {(frozenset([tuple(p), tuple(q)]), tuple(r)) for p, q, r in zip(a, b, c)}


def _edges21_mesh():
    r = build_rect_mesh(0, 2, 0, 1, 1, 1)
    return Mesh(r.vertices, r.cells, refinement_edges=[2, 1])


_START_MESHES = {
    "2x2": lambda: build_rect_mesh(0, 1, 0, 1, 2, 2),
    "4x4": lambda: build_rect_mesh(0, 1, 0, 1, 4, 4),
    "2x1, edges [2, 1]": _edges21_mesh,
}


def _arrays(m):
    return m.vertices, m.cells, m.refinement_edges, m.facets, m.cell_facets


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_START_MESHES)), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
@example("4x4", 3, 13)   # its third round needs two closure passes
def test_bisect_makes_the_cells_of_the_reference(start, rounds, seed):
    rng = np.random.default_rng(seed)
    m = _START_MESHES[start]()
    for _ in range(rounds):
        marked = rng.choice(m.n_cells, size=rng.integers(1, max(2, m.n_cells // 3)), replace=False)
        before = [a.copy() for a in _arrays(m)]
        new, ref = bisect(m, marked), reference_bisect(m, marked)
        assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(m)))
        assert (new.n_vertices, new.n_cells) == (ref.n_vertices, ref.n_cells)
        assert set(map(tuple, new.vertices)) == set(map(tuple, ref.vertices))
        assert _cells_by_refinement_edge(new) == _cells_by_refinement_edge(ref)
        m = new
