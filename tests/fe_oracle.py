"""Reference implementations for the tests' brute-force oracles.

The package evaluates basis functions only at fixed reference rules; the
oracles locate arbitrary physical points cell by cell instead.
`reference_bisect` is newest-vertex bisection one cell at a time, the
oracle of the array implementation `nondivfem.bisect`; `reference_facets`
and `reference_dof_map` derive the facet topology, the facet normals and
the dof maps the way `Mesh` and `build_space` did before `Mesh` decided
edge orientation once: facets by `np.unique` over vertex pairs, normals by
a centroid test, edge-dof direction by comparing vertex ids.
"""

from types import SimpleNamespace

import numpy as np

from nondivfem.mesh import Mesh


def tabulate_at(space, cells, ref_pts):
    """Physical basis values and gradients at per-cell reference points.

    Parameters
    ----------
    cells : (n,) cell ids
    ref_pts : (n, q, 2) reference coordinates, one set per cell

    Returns
    -------
    vals (n, q, n_loc) and grads (n, q, n_loc, 2) in physical coordinates.
    """
    vals = space.ref.tabulate(ref_pts)
    g = space.ref.tabulate_grad(ref_pts)
    Jinv = space.mesh.cell_inv_jacobians[cells]        # (n, 2, 2)
    grads = np.einsum("nji,nqlj->nqli", Jinv, g, optimize=True)
    return vals, grads


def pullback_points(mesh, cells, phys_pts):
    """Inverse affine map: physical points (n, q, 2) to reference coordinates."""
    v0 = mesh.vertices[mesh.cells[cells, 0]]
    Jinv = mesh.cell_inv_jacobians[cells]
    return np.einsum("nij,nqj->nqi", Jinv, phys_pts - v0[:, None, :], optimize=True)


def reference_bisect(mesh, marked):
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


def reference_facets(mesh):
    """Facets, cell adjacency and facet normals of `mesh`, built by sort/unique."""
    self = SimpleNamespace(n_cells=mesh.n_cells)
    local = np.array([[1, 2], [2, 0], [0, 1]])
    pairs = mesh.cells[:, local]                       # (M, 3, 2)
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

    va = mesh.vertices[self.facets[:, 0]]
    vb = mesh.vertices[self.facets[:, 1]]
    tang = vb - va
    self.facet_lengths = np.linalg.norm(tang, axis=1)
    normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    normals /= self.facet_lengths[:, None]

    # orient outward w.r.t. the owner cell (minus if interior, plus if boundary)
    owner = np.where(self.boundary_flags, self.facet_cells[:, 0], self.facet_cells[:, 1])
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    midpts = 0.5 * (va + vb)
    flip = np.einsum("fi,fi->f", normals, midpts - centroids[owner]) < 0.0
    normals[flip] *= -1.0
    self.facet_normals = normals
    return self


def reference_dof_map(mesh, p, continuity):
    """Cell-to-dof map of the degree-p space on `mesh`: vertices, then p-1
    dofs per facet of `reference_facets` running from its smaller vertex id
    to its larger, then the cell interiors (CG); consecutive per cell (DG)."""
    n_loc = (p + 1) * (p + 2) // 2
    if continuity == "DG":
        return np.arange(mesh.n_cells * n_loc, dtype=np.int64).reshape(mesh.n_cells, n_loc)
    topo = reference_facets(mesh)
    ne, ni = p - 1, (p - 1) * (p - 2) // 2
    dof_map = np.empty((mesh.n_cells, n_loc), dtype=np.int64)
    dof_map[:, 0:3] = mesh.cells
    for k in range(3):
        base = mesh.n_vertices + topo.cell_facets[:, k, None] * ne
        va = mesh.cells[:, (k + 1) % 3]
        vb = mesh.cells[:, (k + 2) % 3]
        fw = base + np.arange(ne)[None, :]
        bw = base + np.arange(ne - 1, -1, -1)[None, :]
        dof_map[:, 3 + k * ne + np.arange(ne)] = np.where((va < vb)[:, None], fw, bw)
    offset = mesh.n_vertices + len(topo.facets) * ne
    dof_map[:, 3 + 3 * ne:] = offset + np.arange(mesh.n_cells)[:, None] * ni + np.arange(ni)
    return dof_map
