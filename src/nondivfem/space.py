"""Lagrange finite element spaces: quadrature, reference basis, dof maps,
and the two assembly steps every module shares: basis traces on facets and
the scatter of local blocks into a sparse matrix.

The reference triangle has vertices (0,0), (1,0), (0,1).  Cell integrals of
every degree use one rule family, the collapsed (Duffy) Gauss rule; facet
integrals use Gauss-Legendre on [0, 1].  Basis functions are nodal
(equispaced Lagrange nodes) and represented in the monomial basis through an
inverted Vandermonde matrix, which is well conditioned for the moderate
degrees used here (p <= 4 in all experiments).
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy.sparse as sp

from .mesh import _is_count

__all__ = [
    "QuadratureRule",
    "quadrature",
    "facet_quadrature",
    "ReferenceElement",
    "FunctionSpace",
    "FEFunction",
    "build_space",
    "boundary_dofs",
    "interpolate",
    "evaluate",
    "facet_traces",
    "normal_jumps",
    "scatter",
]


# ----------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Points (reference coordinates) and positive weights summing to 1/2."""

    points: np.ndarray
    weights: np.ndarray


def _gauss01(n):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@cache
def quadrature(degree):
    """Collapsed Gauss rule exact to `degree` on the reference triangle,
    built once per degree with read-only arrays.

    The n x n Gauss-Legendre rule on the square (u, v) in [0,1]^2 maps onto
    the triangle via x = u (1 - v), y = v (Duffy, SIAM J. Numer. Anal.
    1982); the Jacobian (1 - v) raises the polynomial degree by one, so
    n = ceil((degree + 2) / 2).
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError("quadrature degree must be >= 1")
    x, w = _gauss01(int(np.ceil((degree + 2) / 2)))
    U, V = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w) * (1.0 - V)
    pts = np.stack([(U * (1.0 - V)).ravel(), V.ravel()], axis=1)
    return QuadratureRule(*_read_only(pts, W.ravel()))


@cache
def facet_quadrature(degree):
    """Gauss-Legendre rule on [0, 1] exact to `degree` (weights sum to 1),
    built once per degree with read-only arrays."""
    return _read_only(*_gauss01(max(1, int(np.ceil((degree + 1) / 2)))))


# ----------------------------------------------------------------------
# reference element


def _monomial_exponents(p):
    return np.array([(a, b) for a in range(p + 1) for b in range(p + 1 - a) ], dtype=np.int64)


def _mono_deriv(exps, pts, dx, dy):
    """Derivative d^(dx+dy)/dx^dx dy^dy of each monomial at pts (..., 2)
    -> (..., n_mono); dx = dy = 0 gives the values."""
    a = exps[:, 0].astype(np.float64)
    b = exps[:, 1].astype(np.float64)
    ca = np.ones_like(a)
    cb = np.ones_like(b)
    for k in range(dx):
        ca *= np.maximum(a - k, 0.0)
    for k in range(dy):
        cb *= np.maximum(b - k, 0.0)
    ea = np.maximum(exps[:, 0] - dx, 0)
    eb = np.maximum(exps[:, 1] - dy, 0)
    x = pts[..., 0][..., None]
    y = pts[..., 1][..., None]
    return (ca * cb) * x ** ea * y ** eb


def _sym(a, b, d):
    """The symmetric field [[a, b], [b, d]] of arrays or scalars that broadcast
    together, shape (..., 2, 2)."""
    S = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(d)) + (2, 2))
    S[..., 0, 0] = a
    S[..., 0, 1] = b
    S[..., 1, 0] = b
    S[..., 1, 1] = d
    return S


def _equispaced_nodes(p):
    """Nodes ordered: 3 vertices, edge 0/1/2 interiors (directed), cell interior.

    Edge k runs from local vertex (k+1)%3 to (k+2)%3; its p-1 interior nodes
    are listed in that direction.  Interior nodes are lexicographic in (i, j).
    """
    vs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nodes = [vs[0], vs[1], vs[2]]
    for k in range(3):
        a, b = vs[(k + 1) % 3], vs[(k + 2) % 3]
        for m in range(1, p):
            nodes.append(a + (m / p) * (b - a))
    for i in range(1, p):
        for j in range(1, p - i):
            nodes.append(np.array([i / p, j / p]))
    return np.array(nodes)


class ReferenceElement:
    """Equispaced Lagrange basis of degree p on the reference triangle."""

    def __init__(self, p):
        if p < 1:
            raise ValueError("degree must be >= 1")
        self.p = int(p)
        self.nodes = _equispaced_nodes(self.p)
        self.exps = _monomial_exponents(self.p)
        self.n_basis = len(self.nodes)
        V = _mono_deriv(self.exps, self.nodes, 0, 0)   # (n_nodes, n_mono)
        self.coeffs = np.linalg.inv(V)                 # column i: basis i
        self.n_edge = self.p - 1
        self.n_interior = (self.p - 1) * (self.p - 2) // 2
        # row k: the p + 1 basis functions whose trace on local edge k does
        # not vanish, the edge's two vertices and then its interior nodes
        ne = self.n_edge
        self.edge_dofs = np.array([[(k + 1) % 3, (k + 2) % 3, *range(3 + k * ne, 3 + (k + 1) * ne)]
                                   for k in range(3)])

    def tabulate(self, pts):
        """Basis values at pts (..., 2) -> (..., n_basis)."""
        return _mono_deriv(self.exps, pts, 0, 0) @ self.coeffs

    def tabulate_grad(self, pts):
        """Reference gradients, shape (..., n_basis, 2)."""
        gx = _mono_deriv(self.exps, pts, 1, 0) @ self.coeffs
        gy = _mono_deriv(self.exps, pts, 0, 1) @ self.coeffs
        return np.stack([gx, gy], axis=-1)

    def tabulate_hess(self, pts):
        """Reference second derivatives, shape (..., n_basis, 2, 2)."""
        hxx = _mono_deriv(self.exps, pts, 2, 0) @ self.coeffs
        hxy = _mono_deriv(self.exps, pts, 1, 1) @ self.coeffs
        hyy = _mono_deriv(self.exps, pts, 0, 2) @ self.coeffs
        return _sym(hxx, hxy, hyy)


@cache
def reference_element(p):
    return ReferenceElement(p)


# ----------------------------------------------------------------------
# function spaces


@dataclass
class FunctionSpace:
    """Scalar Lagrange space on a mesh; `dof_map` maps cells to global dofs."""

    mesh: object
    degree: int
    continuity: str
    ref: ReferenceElement
    dof_map: np.ndarray
    n_dofs: int
    node_coords: np.ndarray = field(repr=False)


@dataclass
class FEFunction:
    space: FunctionSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ValueError("coefficient vector length does not match space")


def _cg_dof_count(mesh, p):
    """Dofs of the degree-p CG space: vertices, p-1 per facet, (p-1)(p-2)/2 per cell."""
    return mesh.n_vertices + (p - 1) * mesh.n_facets + (p - 1) * (p - 2) // 2 * mesh.n_cells


def _require_degree(p):
    """Raise ValueError unless the degree p is an integer >= 1 (`mesh._is_count`)."""
    if not _is_count(p):
        raise ValueError("degree must be an integer >= 1, not %r" % (p,))


def build_space(mesh, p, continuity="CG"):
    """Build a Lagrange space of degree p, continuity 'CG' or 'DG'.  A
    degree that is not an integer >= 1 (`_require_degree`) raises ValueError."""
    _require_degree(p)
    p = int(p)
    if continuity not in ("CG", "DG"):
        raise ValueError("continuity must be 'CG' or 'DG'")
    ref = reference_element(p)
    n_loc = ref.n_basis
    n_cells = mesh.n_cells

    if continuity == "DG":
        dof_map = np.arange(n_cells * n_loc, dtype=np.int64).reshape(n_cells, n_loc)
        n_dofs = n_cells * n_loc
    else:
        dof_map = np.empty((n_cells, n_loc), dtype=np.int64)
        dof_map[:, 0:3] = mesh.cells
        ne, ni = ref.n_edge, ref.n_interior
        j = np.arange(ne)
        for k in range(3):
            # facet dofs run lo -> hi; a cell that runs its edge k
            # backwards lists them in reverse
            first = mesh.n_vertices + mesh.cell_facets[:, k, None] * ne
            dof_map[:, ref.edge_dofs[k, 2:]] = first + np.where(
                mesh.cell_edge_flipped[:, k, None], ne - 1 - j, j)
        offset = mesh.n_vertices + mesh.n_facets * ne
        dof_map[:, n_loc - ni:] = offset + np.arange(n_cells)[:, None] * ni + np.arange(ni)
        n_dofs = _cg_dof_count(mesh, p)

    # physical node coordinates (consistent across cells for CG by construction)
    node_coords = np.empty((n_dofs, 2))
    node_coords[dof_map.ravel()] = physical_points(mesh, ref.nodes).reshape(-1, 2)

    return FunctionSpace(
        mesh=mesh,
        degree=p,
        continuity=continuity,
        ref=ref,
        dof_map=dof_map,
        n_dofs=n_dofs,
        node_coords=node_coords,
    )


def boundary_dofs(space):
    """Global dofs whose Lagrange nodes lie on the domain boundary (CG only):
    the dofs of each boundary facet's edge, read from the `dof_map` row of
    its cell through `ReferenceElement.edge_dofs`."""
    if space.continuity != "CG":
        raise ValueError("boundary dofs are only defined for CG spaces")
    mesh = space.mesh
    bf = mesh.boundary_facets()
    cells, local = mesh.facet_cells[bf, 0], mesh.facet_local[bf, 0]
    return np.unique(space.dof_map[cells[:, None], space.ref.edge_dofs[local]])


def interpolate(space, f):
    """Nodal interpolant of a pointwise function f(points (n,2)) -> (n,)."""
    vals = np.asarray(f(space.node_coords), dtype=np.float64)
    return FEFunction(space, vals)


def evaluate(fn, quad):
    """Values, gradients, hessians of a scalar FE function at quadrature points.

    Returns arrays of shape (n_cells, q), (n_cells, q, 2), (n_cells, q, 2, 2).
    """
    space = fn.space
    ref = space.ref
    mesh = space.mesh
    vals_ref = ref.tabulate(quad.points)               # (q, n_loc)
    g_ref = ref.tabulate_grad(quad.points)             # (q, n_loc, 2)
    H_ref = ref.tabulate_hess(quad.points)             # (q, n_loc, 2, 2)
    coeffs = fn.coeffs[space.dof_map]                  # (c, n_loc)
    Jinv = mesh.cell_inv_jacobians

    vals = coeffs @ vals_ref.T                         # (c, q)
    g_loc = np.einsum("cl,qlj->cqj", coeffs, g_ref, optimize=True)
    grads = np.einsum("cji,cqj->cqi", Jinv, g_loc, optimize=True)
    H_loc = np.einsum("cl,qlkm->cqkm", coeffs, H_ref, optimize=True)
    hess = np.einsum("cki,cqkm,cmj->cqij", Jinv, H_loc, Jinv, optimize=True)
    return vals, grads, hess


def physical_points(mesh, ref_pts):
    """Map one reference point set (q, 2) onto every cell: the physical
    points v0 + J xi, shape (n_cells, q, 2), in C order."""
    v0 = mesh.vertices[mesh.cells[:, 0]]
    # contracted per cell over a broadcast view, which gives C order; the
    # (q, 2) set contracted as it is goes through BLAS, which returns the
    # points q-major, so every later reshape copies them, and rounds them
    # differently where J is not dyadic, which moves the coefficient
    # sample and the adaptive mesh sequence on such meshes
    ref = np.broadcast_to(ref_pts, (mesh.n_cells,) + ref_pts.shape)
    return v0[:, None, :] + np.einsum("cij,cqj->cqi", mesh.cell_jacobians, ref, optimize=True)


def _edge_points(t):
    """Reference points at parameters t along each local edge k, forwards
    (row 2k, from vertex (k+1)%3 to (k+2)%3) and backwards (row 2k+1):
    shape (6, len(t), 2)."""
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    start = v[[1, 2, 2, 0, 0, 1]]
    end = v[[2, 1, 0, 2, 1, 0]]
    return start[:, None, :] + t[None, :, None] * (end - start)[:, None, :]


def _facet_edges(mesh, facets, side):
    """Cells on one side of `facets` (0 plus, 1 minus) and, per facet, the
    row of `_edge_points` that holds its points va + t (vb - va): the cell's
    local edge `facet_local[f, side]`, run backwards where the mesh marks
    that edge flipped."""
    cells = mesh.facet_cells[facets, side]
    k = mesh.facet_local[facets, side]
    return cells, 2 * k + mesh.cell_edge_flipped[cells, k]


def facet_traces(space, facets, side, t):
    """Basis traces from one side of `facets` at the points va + t (vb - va).

    The reference basis is tabulated once on the six (edge, direction) point
    sets and gathered per facet.  Returns the side's cells (F,), values
    (F, nt, n_loc) and physical gradients (F, nt, n_loc, 2).
    """
    cells, rows = _facet_edges(space.mesh, facets, side)
    pts = _edge_points(t)
    ref = space.ref
    Jinv = space.mesh.cell_inv_jacobians[cells]
    vals = ref.tabulate(pts)[rows]
    grads = np.einsum("fji,ftlj->ftli", Jinv, ref.tabulate_grad(pts)[rows], optimize=True)
    return cells, vals, grads


def normal_jumps(space, facets, t):
    """Jumps of the basis's normal derivatives across interior `facets`.

    Returns the dofs of both cells (F, 2 n_loc), plus cell first, and the
    gradient jumps [grad phi . n_F] (F, nt, 2 n_loc).  The plus trace
    enters with sign +1 and the minus trace with -1.
    """
    n_f = space.mesh.facet_normals[facets]
    dofs, dn = [], []
    for side, sign in ((0, 1.0), (1, -1.0)):
        cells, _, grads = facet_traces(space, facets, side, t)
        dofs.append(space.dof_map[cells])
        dn.append(sign * np.einsum("ftli,fi->ftl", grads, n_f))
    return np.concatenate(dofs, axis=1), np.concatenate(dn, axis=2)


def scatter(blocks, rows, cols, shape):
    """Sum local blocks (..., n, nr, nc) into CSR matrices at dofs rows
    (n, nr) times cols (n, nc): one matrix for a 3-d array, nested lists of
    matrices over the leading axes otherwise.

    The coordinates are built once, as int32 whenever every dimension fits,
    and each block goes through SciPy's COO-to-CSR conversion, which sums
    duplicates and sorts the indices.  Every matrix then drops its exact
    zeros, so a position whose summed entries are all zero is not stored,
    and owns its index arrays, so pruning one in place leaves the others
    intact.
    """
    idx = np.int32 if max(shape) < 2**31 else np.int64
    r = np.repeat(rows.astype(idx, copy=False), cols.shape[1], axis=1).ravel()
    c = np.tile(cols.astype(idx, copy=False), (1, rows.shape[1])).ravel()
    mats = np.empty(blocks.shape[:-3], dtype=object)
    for i in np.ndindex(mats.shape):
        mats[i] = _compact(sp.coo_matrix((blocks[i].ravel(), (r, c)), shape=shape).tocsr())
    return mats.tolist()                                   # the matrix itself for 0-d


def _snap_round_off(a, axis=None):
    """Zero, in place, the entries of `a` below 1e-12 of the largest
    magnitude in their block, and return `a`.  A block is `a` itself, or
    each of its sub-arrays over the trailing axes `axis`, given as negative
    numbers.  With more than one leading axis, the sub-arrays over the
    first are snapped one at a time, so `|a|` is never held whole.

    Integrals that vanish in exact arithmetic come out of quadrature as
    round-off near 1e-16 of their block's largest entry.  Relative to its
    block, the rule does not depend on the size of a cell.
    """
    if axis is not None and a.ndim > len(axis) + 1:
        for sub in a:                                      # each |sub| is freed on return
            _snap_round_off(sub, axis)
        return a
    mag = np.abs(a)
    a[mag < 1e-12 * mag.max(axis=axis, keepdims=True, initial=0.0)] = 0.0
    return a


def _compact(A):
    """Drop the exact zeros of the CSR matrix A and give its `data` and
    `indices` arrays that own their memory, in place; return A.

    SciPy's prune, run after summing duplicates or eliminating zeros, leaves
    both as leading views of their buffers unless it drops over half of
    them.  A view shorter than its buffer is copied, which frees the unused
    tail; one as long as its buffer is replaced by the buffer itself.
    """
    A.eliminate_zeros()
    for name in ("data", "indices"):
        a = getattr(A, name)
        if a.base is not None:
            setattr(A, name, a.base if a.base.shape == a.shape else a.copy())
    return A
