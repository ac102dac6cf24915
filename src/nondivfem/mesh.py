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
  ``k``, i.e. edge 0 = (v1, v2), edge 1 = (v2, v0), edge 2 = (v0, v1); the
  cell runs it from ``v[k+1]`` to ``v[k+2]``.
* A facet is stored as ``(lo, hi)``, its smaller vertex id first.
  ``Mesh.cell_edge_flipped[c, k]`` is true when cell ``c`` runs its local
  edge ``k`` against the facet, from ``hi`` to ``lo``.  This one array
  decides every orientation: the facet normal is ``(t_y, -t_x) / |t|``
  for ``t = x_hi - x_lo``, negated where the owner cell (minus if interior,
  plus if boundary) runs the facet backwards, and the edge dofs of a CG
  space and the facet traces run backwards through the flipped edges.

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

__all__ = ["Mesh", "build_rect_mesh", "bisect"]


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

    `cells` and `refinement_edges` must hold integers: float or bool arrays
    raise TypeError rather than being truncated.
    """

    def __init__(self, vertices, cells, refinement_edges=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.cells = _ids(cells, "cell vertex indices")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError("vertex %d has non-finite coordinates %s" % (bad, self.vertices[bad]))
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (n, 3) array")
        if np.any((self.cells < 0) | (self.cells >= self.n_vertices)):
            raise ValueError("cell vertex indices must lie in [0, %d)" % self.n_vertices)

        # affine cell maps x = v0 + J xi; a finite det J = 2 |T| > 0 is part
        # of the data contract (positive orientation); finite vertices far
        # apart can still overflow it to inf or nan
        v = self.vertices[self.cells]
        J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)  # (M, 2, 2)
        self.cell_jacobians = J
        with np.errstate(over="ignore", invalid="ignore"):
            self.cell_det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        ok = (self.cell_det > 0.0) & (self.cell_det < np.inf)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise ValueError("cell %d has signed area %g, not finite and positive"
                             % (bad, 0.5 * self.cell_det[bad]))
        adj = np.stack([J[:, 1, 1], -J[:, 0, 1], -J[:, 1, 0], J[:, 0, 0]], axis=1)
        self.cell_inv_jacobians = (adj / self.cell_det[:, None]).reshape(-1, 2, 2)
        self.cell_areas = 0.5 * self.cell_det

        if refinement_edges is None:
            refinement_edges = np.argmax(self._edge_lengths(), axis=1)
        self.refinement_edges = _ids(refinement_edges, "refinement edges")
        if self.refinement_edges.shape != (self.n_cells,):
            raise ValueError("refinement_edges must have one entry per cell")
        if np.any((self.refinement_edges < 0) | (self.refinement_edges > 2)):
            raise ValueError("refinement edges must be local edge indices 0, 1 or 2")

        self._build_facets()

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
    def _build_facets(self):
        """Facets, their cell adjacency and normals from one sort of edge keys."""
        start = self.cells[:, [1, 2, 0]]                   # local edge k runs
        end = self.cells[:, [2, 0, 1]]                     # v[k+1] -> v[k+2]
        self.cell_edge_flipped = start > end
        lo = np.minimum(start, end).ravel()
        hi = np.maximum(start, end).ravel()
        # (lo, hi) -> lo n + hi sorts like the rows (lo, hi); the stable sort
        # lists each facet's (cell, local edge) slots in increasing cell order
        key = lo * self.n_vertices + hi
        order = np.argsort(key, kind="stable")
        new = np.diff(key[order], prepend=-1) != 0         # first slot of a facet
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], key.size)
        if np.any(ends - starts > 2):
            raise ValueError("facet shared by more than two cells")
        first, last = order[starts], order[ends - 1]

        self.facets = np.stack([lo[first], hi[first]], axis=1)
        cell_facets = np.empty(key.size, dtype=np.int64)
        cell_facets[order] = np.cumsum(new) - 1
        self.cell_facets = cell_facets.reshape(self.n_cells, 3)

        # interior: plus = the larger cell id, minus = the smaller; boundary:
        # plus = the only cell, minus = -1
        boundary = first == last
        cell_a, loc_a = np.divmod(first, 3)
        cell_b, loc_b = np.divmod(last, 3)
        self.facet_cells = np.stack([cell_b, np.where(boundary, -1, cell_a)], axis=1)
        self.facet_local = np.stack([loc_b, np.where(boundary, -1, loc_a)], axis=1)
        self.boundary_flags = boundary

        # (t_y, -t_x) is outward for a cell running the facet lo -> hi; the
        # owner cell (minus if interior, plus if boundary) is the first slot
        tang = self.vertices[self.facets[:, 1]] - self.vertices[self.facets[:, 0]]
        self.facet_lengths = np.linalg.norm(tang, axis=1)
        normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        normals /= self.facet_lengths[:, None]
        normals[self.cell_edge_flipped.ravel()[first]] *= -1.0
        self.facet_normals = normals

    # ------------------------------------------------------------------
    def interior_facets(self):
        return np.nonzero(~self.boundary_flags)[0]

    def boundary_facets(self):
        return np.nonzero(self.boundary_flags)[0]

    @property
    def h_max(self):
        return float(self._edge_lengths().max())


def _ids(a, what):
    """`a` as a contiguous int64 array.  An array of another kind, float or
    bool, raises TypeError instead of being truncated; an empty one is
    accepted."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError("%s must be integers, not %s" % (what, a.dtype))
    return np.ascontiguousarray(a, dtype=np.int64)


def _is_count(n):
    """Whether n is an integral number >= 1 and not a bool; 2.0 and numpy
    integers are."""
    return not isinstance(n, (bool, np.bool_)) and float(n).is_integer() and n >= 1


def build_rect_mesh(x0, x1, y0, y1, nx, ny):
    """Structured triangulation of the rectangle (x0, x1) x (y0, y1).

    Each of the nx*ny grid squares is split into two triangles along the
    bottom-left to top-right diagonal.  The counts must be integers >= 1
    (an integral float such as 2.0 is accepted, a bool is not).
    """
    if not (x1 > x0 and y1 > y0):
        raise ValueError("invalid rectangle bounds")
    if not (_is_count(nx) and _is_count(ny)):
        raise ValueError("subdivision counts must be integers >= 1, not %r, %r" % (nx, ny))
    nx, ny = int(nx), int(ny)

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

    # square (i, j) has the corners a, b = a + 1 (bottom), c = a + nx + 2,
    # d = a + nx + 1 (top); it becomes the lower-right triangle [a, b, c]
    # and the upper-left one [a, c, d], in row-major order of the squares
    j, i = np.divmod(np.arange(nx * ny), nx)
    a = j * (nx + 1) + i
    cells = np.stack([a, a + 1, a + nx + 2, a, a + nx + 2, a + nx + 1], axis=1)
    return Mesh(vertices, cells.reshape(-1, 3))


def bisect(mesh, marked):
    """Newest-vertex bisection of the marked cells with conforming closure.

    Every marked cell is bisected at least once, and the result is
    conforming; its cells are listed parent by parent (module docstring).
    `marked` holds cell ids of an integer type; a boolean mask or float ids
    raise TypeError, an empty list is accepted.
    """
    marked = _ids(marked, "marked cell ids")
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

