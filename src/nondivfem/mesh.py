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

    Every marked cell is bisected at least once.  A cell is only ever split
    across its refinement edge, together with the neighbor sharing that edge
    (the neighbor is refined first if its own refinement edge differs), so
    the mesh stays conforming at every step.
    """
    marked = sorted(set(int(t) for t in marked))
    if any(t < 0 or t >= mesh.n_cells for t in marked):
        raise IndexError("marked cell id out of range")

    verts = [tuple(p) for p in mesh.vertices]
    cells = [list(c) for c in mesh.cells]
    ref = list(mesh.refinement_edges)
    alive = [True] * len(cells)

    edge2cells = {}
    for t, c in enumerate(cells):
        for k in range(3):
            a, b = c[(k + 1) % 3], c[(k + 2) % 3]
            key = (a, b) if a < b else (b, a)
            edge2cells.setdefault(key, set()).add(t)

    def ref_edge(t):
        k = ref[t]
        c = cells[t]
        a, b = c[(k + 1) % 3], c[(k + 2) % 3]
        return (a, b) if a < b else (b, a)

    def detach(t):
        c = cells[t]
        for k in range(3):
            a, b = c[(k + 1) % 3], c[(k + 2) % 3]
            key = (a, b) if a < b else (b, a)
            edge2cells[key].discard(t)
        alive[t] = False

    def attach(c, r):
        t = len(cells)
        cells.append(c)
        ref.append(r)
        alive.append(True)
        for k in range(3):
            a, b = c[(k + 1) % 3], c[(k + 2) % 3]
            key = (a, b) if a < b else (b, a)
            edge2cells.setdefault(key, set()).add(t)
        return t

    midpoints = {}

    def split(t, m):
        """Bisect cell t across its refinement edge with existing midpoint m."""
        k = ref[t]
        c = cells[t]
        a0, b0, c0 = c[(k + 1) % 3], c[(k + 2) % 3], c[k]
        detach(t)
        # children inherit positive orientation; the new vertex m is the
        # newest vertex, so each child's refinement edge lies opposite m
        attach([a0, m, c0], 1)
        attach([m, b0, c0], 0)

    guard = 0
    guard_limit = 100 * (len(cells) + len(marked)) + 10_000

    def ensure_bisected(t0):
        nonlocal guard
        stack = [t0]
        while stack:
            guard += 1
            if guard > guard_limit:
                raise RuntimeError("bisection closure did not terminate")
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            e = ref_edge(t)
            others = edge2cells[e] - {t}
            nb = next(iter(others)) if others else None
            if nb is not None and ref_edge(nb) != e:
                stack.append(nb)
                continue
            if e not in midpoints:
                pa, pb = verts[e[0]], verts[e[1]]
                midpoints[e] = len(verts)
                verts.append((0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1])))
            m = midpoints[e]
            split(t, m)
            if nb is not None:
                split(nb, m)
            stack.pop()

    for t in marked:
        if alive[t]:
            ensure_bisected(t)

    keep = [t for t, a in enumerate(alive) if a]
    new_cells = np.array([cells[t] for t in keep], dtype=np.int64)
    new_ref = np.array([ref[t] for t in keep], dtype=np.int64)
    return Mesh(np.array(verts), new_cells, refinement_edges=new_ref)


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
