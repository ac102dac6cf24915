"""Reference implementations for the tests' brute-force oracles.

The package evaluates basis functions only at fixed reference rules; the
oracles locate arbitrary physical points cell by cell instead.
`reference_bisect` is newest-vertex bisection one cell at a time, the
oracle of the array implementation `nondivfem.bisect`.
"""

import numpy as np

from nondivfem import Mesh


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
