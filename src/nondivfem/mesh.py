"""Conforming triangular meshes with facet topology and bisection refinement.

Meshes are immutable after construction: `bisect` returns a new mesh and
never mutates its input.  Facets are the (unique) edges of the triangulation,
stored as sorted global vertex pairs together with their cell adjacency.

Orientation conventions
-----------------------
* Cells are positively oriented (counterclockwise vertex order).
* Every facet has a "plus" cell; interior facets also have a "minus" cell
  (the one with the smaller cell id).  The facet normal ``n_F`` is the
  outward normal of the minus cell on interior facets (it points into the
  plus cell) and the outward domain normal on boundary facets.
* Local edge ``k`` of cell ``(v0, v1, v2)`` is the edge opposite vertex
  ``k``, i.e. edge 0 = (v1, v2), edge 1 = (v2, v0), edge 2 = (v0, v1).

Newest-vertex bisection
-----------------------
Every cell carries a refinement edge.  `bisect` works on the facet arrays
(edge marking in the style of Funken, Praetorius & Wissgott, CMAM 2011,
and of Chen's iFEM):

1. mark the refinement facet of every marked cell;
2. repeat until nothing changes: a cell with a marked facet also marks its
   refinement facet (marks only grow, so this ends within ``n_facets``
   passes);
3. add one midpoint per marked facet, numbered ``n_vertices + rank`` in
   facet-id order;
4. split every cell at once: with ``(a, b, c) = (v[k+1], v[k+2], v[k])``
   for refinement edge ``k`` and midpoint ``m``, the children are
   ``[a, m, c]`` (refinement edge 1) and ``[m, b, c]`` (edge 0), and a
   child whose refinement edge is marked is split again by the same rule,
   so a cell stays whole or becomes 2, 3 or 4 cells.

The result has the same cells as bisecting the marked cells one at a time,
each together with its neighbour across the refinement edge, once that
neighbour has been refined until the edge is its refinement edge too.  The
cells are listed parent by parent: an unrefined cell as itself, a refined
one as its first child (or that child's two children), then its second.
"""

import numpy as np

__all__ = ["Mesh", "build_rect_mesh", "bisect", "uniform_refine", "write_mesh", "read_mesh"]


class Mesh:
    """Conforming 2D triangulation.

    Parameters
    ----------
    vertices : (n_vertices, 2) float array
    cells : (n_cells, 3) int array
        Vertex index triples, positively oriented.
    refinement_edges : (n_cells,) int array, optional
        Local index of each cell's newest-vertex bisection edge.  When not
        given, each cell is assigned its longest edge (ties: first local
        index attaining the maximum).
    """

    def __init__(self, vertices, cells, refinement_edges=None, validate=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (n, 3) array")
        if np.any((self.cells < 0) | (self.cells >= self.n_vertices)):
            raise ValueError("cell vertex indices must lie in [0, %d)" % self.n_vertices)

        v = self.vertices[self.cells]
        # signed areas; positive orientation is part of the data contract
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        self._signed_areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if validate and np.any(self._signed_areas <= 0.0):
            bad = int(np.argmin(self._signed_areas))
            raise ValueError(
                "cell %d has non-positive signed area %g" % (bad, self._signed_areas[bad])
            )

        if refinement_edges is None:
            refinement_edges = np.argmax(self._edge_lengths(), axis=1)
        self.refinement_edges = np.ascontiguousarray(refinement_edges, dtype=np.int64)
        if self.refinement_edges.shape != (self.n_cells,):
            raise ValueError("refinement_edges must have one entry per cell")
        if np.any((self.refinement_edges < 0) | (self.refinement_edges > 2)):
            raise ValueError("refinement edges must be local edge indices 0, 1 or 2")

        self._build_topology()
        self._build_geometry()

    # ------------------------------------------------------------------
    # basic counts
    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def n_facets(self):
        return self.facets.shape[0]

    def _edge_lengths(self):
        """(n_cells, 3) lengths of the local edges; edge k is opposite vertex k."""
        v = self.vertices[self.cells]
        return np.linalg.norm(v[:, [2, 0, 1]] - v[:, [1, 2, 0]], axis=2)

    # ------------------------------------------------------------------
    def _build_topology(self):
        """Build unique facets plus cell adjacency via sort/unique."""
        local = np.array([[1, 2], [2, 0], [0, 1]])
        pairs = self.cells[:, local]                       # (M, 3, 2)
        flat = np.sort(pairs.reshape(-1, 2), axis=1)       # (3M, 2), sorted pairs
        facets, inv = np.unique(flat, axis=0, return_inverse=True)
        inv = inv.ravel()
        self.facets = facets
        self.cell_facets = inv.reshape(self.n_cells, 3)

        flat_cell = np.repeat(np.arange(self.n_cells), 3)
        flat_loc = np.tile(np.arange(3), self.n_cells)

        # first and last occurrence of each facet in flattened (cell, local) order
        first_f, ix_first = np.unique(inv, return_index=True)
        last_f, ix_last_rev = np.unique(inv[::-1], return_index=True)
        ix_last = inv.shape[0] - 1 - ix_last_rev
        if np.any(first_f != np.arange(facets.shape[0])):
            raise RuntimeError("facet enumeration is not contiguous")

        cell_a, loc_a = flat_cell[ix_first], flat_loc[ix_first]
        cell_b, loc_b = flat_cell[ix_last], flat_loc[ix_last]
        boundary = cell_a == cell_b
        counts = np.bincount(inv, minlength=facets.shape[0])
        if np.any(counts > 2):
            raise ValueError("facet shared by more than two cells")

        # interior: cell_a < cell_b, minus = cell_a; boundary: plus = cell_a
        plus = np.where(boundary, cell_a, cell_b)
        minus = np.where(boundary, -1, cell_a)
        loc_plus = np.where(boundary, loc_a, loc_b)
        loc_minus = np.where(boundary, -1, loc_a)

        self.facet_cells = np.stack([plus, minus], axis=1)      # (K, 2)
        self.facet_local = np.stack([loc_plus, loc_minus], axis=1)
        self.boundary_flags = boundary

    def _build_geometry(self):
        va = self.vertices[self.facets[:, 0]]
        vb = self.vertices[self.facets[:, 1]]
        tang = vb - va
        self.facet_lengths = np.linalg.norm(tang, axis=1)
        normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        normals /= self.facet_lengths[:, None]

        # orient outward w.r.t. the owner cell (minus if interior, plus if boundary)
        owner = np.where(self.boundary_flags, self.facet_cells[:, 0], self.facet_cells[:, 1])
        centroids = self.vertices[self.cells].mean(axis=1)
        midpts = 0.5 * (va + vb)
        flip = np.einsum("fi,fi->f", normals, midpts - centroids[owner]) < 0.0
        normals[flip] *= -1.0
        self.facet_normals = normals

        # affine cell maps x = v0 + J xi
        v = self.vertices[self.cells]
        J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)  # (M, 2, 2)
        self.cell_jacobians = J
        self.cell_det = np.linalg.det(J)                  # = 2 |T| > 0
        self.cell_inv_jacobians = np.linalg.inv(J)
        self.cell_areas = 0.5 * self.cell_det

    # ------------------------------------------------------------------
    def interior_facets(self):
        return np.nonzero(~self.boundary_flags)[0]

    def boundary_facets(self):
        return np.nonzero(self.boundary_flags)[0]

    def boundary_vertices(self):
        return np.unique(self.facets[self.boundary_flags])

    def cell_diameters(self):
        return self._edge_lengths().max(axis=1)

    @property
    def h_max(self):
        return float(self.cell_diameters().max())


def build_rect_mesh(x0, x1, y0, y1, nx, ny):
    """Structured triangulation of the rectangle (x0, x1) x (y0, y1).

    Each of the nx*ny grid squares is split into two triangles along the
    bottom-left to top-right diagonal.
    """
    if not (x1 > x0 and y1 > y0):
        raise ValueError("invalid rectangle bounds")
    if nx < 1 or ny < 1:
        raise ValueError("subdivision counts must be >= 1")
    nx, ny = int(nx), int(ny)

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

    def vid(i, j):
        return j * (nx + 1) + i

    cells = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append([a, b, c])   # lower-right triangle, diagonal a-c
            cells.append([a, c, d])   # upper-left triangle
    return Mesh(vertices, np.array(cells, dtype=np.int64))


def bisect(mesh, marked):
    """Newest-vertex bisection of the marked cells with conforming closure.

    Every marked cell is bisected at least once, and the result is
    conforming; its cells are listed parent by parent (module docstring).
    """
    marked = np.asarray(marked, dtype=np.int64)
    if np.any((marked < 0) | (marked >= mesh.n_cells)):
        raise IndexError("marked cell id out of range")

    rows = np.arange(mesh.n_cells)
    k = mesh.refinement_edges
    a, b, c = (mesh.cells[rows, (k + s) % 3] for s in (1, 2, 0))
    # facets of the refinement edge (a, b) and of the edges (c, a) and (b, c)
    f0, f1, f2 = (mesh.cell_facets[rows, (k + s) % 3] for s in (0, 2, 1))
    split = np.zeros(mesh.n_facets, dtype=bool)
    split[f0[marked]] = True
    # closure: a cell with a split edge has its refinement edge split too
    while True:
        pending = (split[f1] | split[f2]) & ~split[f0]
        if not pending.any():
            break
        split[f0[pending]] = True

    mid = np.full(mesh.n_facets, -1, dtype=np.int64)
    mid[split] = mesh.n_vertices + np.arange(np.count_nonzero(split))
    ends = mesh.vertices[mesh.facets[split]]
    vertices = np.concatenate([mesh.vertices, 0.5 * (ends[:, 0] + ends[:, 1])])

    # a cell split at the midpoint m of its refinement edge has the children
    # [a, m, c] and [m, b, c], whose refinement edges 1 and 0 lie opposite the
    # newest vertex m; a child whose refinement edge, (c, a) or (b, c), is
    # split as well is halved by the same rule, at m1 or m2
    m, m1, m2 = mid[f0], mid[f1], mid[f2]
    s0, s1, s2 = split[f0], split[f1], split[f2]
    slots = np.array([
        np.where(s0, np.where(s1, [c, m1, m], [a, m, c]), mesh.cells.T),
        [m1, a, m],
        np.where(s2, [b, m2, m], [m, b, c]),
        [m2, c, m],
    ]).transpose(2, 0, 1)
    edges = np.array([np.where(s0, 1, k), 0 * k, s2, 0 * k]).T
    keep = np.array([np.ones_like(s0), s1, s0, s2]).T
    return Mesh(vertices, slots[keep], refinement_edges=edges[keep])


def uniform_refine(mesh, sweeps=2):
    """Bisect every cell `sweeps` times; two sweeps halve h on structured meshes."""
    for _ in range(sweeps):
        mesh = bisect(mesh, range(mesh.n_cells))
    return mesh


def write_mesh(mesh, path):
    """Plain-text dump: `vertices N cells M`, N coordinate lines, M cell lines.

    A cell line holds the three vertex indices and the local index of the
    cell's refinement edge, so a mesh read back bisects as the original.
    """
    with open(path, "w") as fh:
        fh.write("vertices %d cells %d\n" % (mesh.n_vertices, mesh.n_cells))
        for x, y in mesh.vertices:
            fh.write("%r %r\n" % (float(x), float(y)))
        for (i, j, k), e in zip(mesh.cells, mesh.refinement_edges):
            fh.write("%d %d %d %d\n" % (i, j, k, e))


def read_mesh(path):
    """Read a mesh written by `write_mesh`, refinement edges included."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "vertices" or header[2] != "cells":
            raise ValueError("malformed mesh header")
        n, m = int(header[1]), int(header[3])
        vertices = np.array(
            [[float(w) for w in fh.readline().split()] for _ in range(n)]
        )
        cells = np.array(
            [[int(w) for w in fh.readline().split()] for _ in range(m)], dtype=np.int64
        )
    if cells.shape != (m, 4):
        raise ValueError("cell lines must hold three vertex indices and a refinement edge")
    return Mesh(vertices, cells[:, :3], cells[:, 3])
