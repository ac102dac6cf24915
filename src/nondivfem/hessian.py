"""Hessian recovery by discrete integration by parts.

For u_h in a C0 Lagrange space V_h the recovered Hessian H(u_h) lives in a
matrix-valued space W_h (CG or DG, same degree) and is defined via

    int_Omega H(u):w = -int_Omega grad(u) . Div(w) + facet terms,

tested against all w in W_h.  With continuous test functions only the
domain boundary contributes; discontinuous test functions see an
average-times-jump term on every interior facet as well.  Componentwise
this reduces to three scalar systems M_W h_ij = C_ij u, as C_10 = C_01,
sharing one mass matrix.  The stored components (0, 0), (0, 1) and (1, 1)
and their weights 1, 2, 1 in a sum over all four are defined here once
(`_I`, `_J`, `_WEIGHTS`); `assemble_C`, `recover_hessian`,
`operator.assemble_B` and `operator.build_preconditioner` read them, and
`_symmetric` gives the 2x2 list whose (1, 0) entry is its (0, 1) entry.
`assemble_C` builds C_00, C_01 and C_11 for either test space with one
volume kernel and one facet loop.  Facet terms that couple a cell with
itself are folded into that cell's volume block; an interior facet tests
only the p + 1 functions whose trace on it does not vanish, so its two
cross terms are (p + 1)-row blocks that `space.scatter` converts apart
from the cell blocks.  A CG test space is the trial space
itself.  `space._snap_round_off` zeroes the round-off of vanishing integrals
in the reference tensors, the cell blocks of B and the summed C_ij, and
`scatter` stores no exact zero, so M_W, its factors, B and C hold only what
the exact integrals have.

Every sparse LU of the package but the DG mass matrix, which is factored
cell by cell, goes through `_factor`: the CG mass matrix here, the
preconditioner in `operator` and the cellwise-Hessian matrix in `solve`.
All three have a symmetric sparsity pattern; on a DG test space the
preconditioner is the assembled system matrix, whose pattern is symmetric
too (at p = 1 up to round-off entries where its sparse products cancel).
So SuperLU runs in symmetric mode with a minimum-degree ordering of
A^T + A (George & Liu, SIAM Review 1989).  Symmetric mode pivots on the
diagonal, which keeps that ordering intact; it fills less than SuperLU's
default COLAMD ordering with partial pivoting at every degree.  The DG
mass matrix is block diagonal with blocks det_T M_ref, so `_CellwiseLU`
solves with one reference inverse per degree (Hesthaven & Warburton, Nodal
Discontinuous Galerkin Methods, 2008).
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .space import (
    FEFunction,
    _compact,
    _snap_round_off,
    build_space,
    facet_quadrature,
    facet_traces,
    quadrature,
    reference_element,
    scatter,
)

__all__ = [
    "HessianOperator",
    "assemble_mass_W",
    "assemble_C",
    "build_hessian_operator",
    "recover_hessian",
]

# the stored components (_I[m], _J[m]) of a symmetric 2x2 field and their
# weights in a sum over all four components, as (0, 1) stands for (1, 0) too
_I, _J = (0, 0, 1), (0, 1, 1)
_WEIGHTS = (1.0, 2.0, 1.0)


def _stored(X):
    """The three stored components of the 2x2 list X."""
    return [X[i][j] for i, j in zip(_I, _J)]


def _symmetric(x):
    """The 2x2 list of the three stored components x; [1][0] is [0][1]."""
    return [[x[0], x[1]], [x[1], x[2]]]


def _factor(A):
    """Sparse LU of a matrix with a symmetric pattern: symmetric-mode SuperLU
    with minimum-degree ordering on A^T + A.  A diagonal pivot is taken
    whenever it is at least 0.01 times the largest entry of its column; the
    cellwise-Hessian matrix of a strongly anisotropic A has diagonal entries
    small enough that a threshold of 0.1 swaps in so many off-diagonal
    pivots that it fills more than COLAMD (p = 3, kappa = 0.99, 64x64)."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                options=dict(SymmetricMode=True))


@cache
def _reference_mass(p):
    """Read-only mass matrix int phi_l phi_k of the degree-p reference cell;
    the entries that vanish in exact arithmetic (12 of 36 at p = 2) are 0."""
    q = quadrature(2 * p + 2)
    phi = reference_element(p).tabulate(q.points)          # (q, nloc)
    m_ref = _snap_round_off(np.einsum("q,qk,ql->kl", q.weights, phi, phi))
    m_ref.setflags(write=False)
    return m_ref


def assemble_mass_W(space):
    """Scalar mass matrix (M)_{kl} = int psi_l psi_k over the mesh."""
    data = space.mesh.cell_det[:, None, None] * _reference_mass(space.degree)[None]
    return scatter(data, space.dof_map, space.dof_map, (space.n_dofs, space.n_dofs))


class _CellwiseLU:
    """Exact factor of a DG mass matrix, block diagonal with blocks det_T M_ref.

    `solve` computes x_T = M_ref^-1 r_T / det_T for all cells in one matrix
    product, for right-hand sides of shape (n,) or (n, k) like SuperLU.  The
    sparse factors L = blockdiag(L_ref) and U = blockdiag(det_T U_ref), from
    the unpivoted LU (LDL^T) of the SPD M_ref, are built on first access
    and, like SuperLU's, store only the nonzeros of each triangle.
    `inverse` is M^-1 itself as a sparse matrix, for the DG preconditioner.
    """

    def __init__(self, m_ref, cell_det, dof_map):
        if not np.array_equal(dof_map.ravel(), np.arange(dof_map.size)):
            raise ValueError("the cellwise factor needs the cell-by-cell DG dof layout")
        self.m_ref = m_ref
        self.m_inv_T = np.linalg.inv(m_ref).T
        self.cell_det = cell_det

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=np.float64)
        n_cells, n_loc = self.cell_det.size, self.m_ref.shape[0]
        # rows (cell, column) of local right-hand sides; a copy only when k > 1
        r = rhs.reshape(n_cells, n_loc, -1).transpose(0, 2, 1).reshape(-1, n_loc)
        x = (r @ self.m_inv_T).reshape(n_cells, -1, n_loc) / self.cell_det[:, None, None]
        return x.transpose(0, 2, 1).reshape(rhs.shape)

    @property
    def inverse(self):
        """M^-1 = blockdiag(M_ref^-1 / det_T) as a sparse matrix."""
        return sp.kron(sp.diags(1.0 / self.cell_det), self.m_inv_T.T, format="csr")

    @cached_property
    def _factors(self):
        c = np.linalg.cholesky(self.m_ref)                 # M_ref = c c^T
        d = np.diag(c)
        l_ref, u_ref = sp.csr_matrix(c / d), sp.csr_matrix(d[:, None] * c.T)  # U_ref = D L_ref^T
        return (sp.kron(sp.identity(self.cell_det.size), l_ref, format="csc"),
                sp.kron(sp.diags(self.cell_det), u_ref, format="csc"))

    @property
    def L(self):
        return self._factors[0]

    @property
    def U(self):
        return self._factors[1]


def assemble_C(space_V, space_W):
    """Recovery blocks as a 2x2 list of CSR matrices: (C_ij u)_k = int H_ij(u) psi_k.

    Integration by parts of d_j(d_i u) psi_k gives
        C_ij[k, l] = -int_T d_i(phi_l) d_j(psi_k)  +  sum_F int_F {d_i phi_l} [psi_k n_j].
    The volume part is the geometry tensor -det_T Jinv[a, i] Jinv[b, j]
    contracted with the reference tensor R[a, b, k, l] = int d_a(phi_l) d_b(psi_k)
    over the reference cell (Kirby & Logg, ACM TOMS 2006), whose integrand has
    degree pV + pW - 2.  The facet part runs over groups of facets, each a list
    of (trial side, test side, weight) terms: boundary facets always contribute
    (plus, plus, 1); a discontinuous test space adds every interior facet, where
    psi on one side sees that side's outward normal (n_plus = -n_F,
    n_minus = +n_F) and {.} averages the two traces of grad phi.  An interior
    facet's terms test only the p + 1 functions psi_k whose trace on it does
    not vanish (`ReferenceElement.edge_dofs`).  A term whose trial side is its
    test side is added to the cell's volume block, so only the two cross
    terms of an interior facet are blocks of their own, (p + 1) x nV each,
    scattered apart from the volume blocks and added.  C_00, C_01 and C_11
    drop the sums that vanish in exact arithmetic; C_10 is C_01.
    """
    mesh = space_V.mesh
    nW, nV = space_W.ref.n_basis, space_V.ref.n_basis
    shape = (space_W.n_dofs, space_V.n_dofs)

    q = quadrature(max(space_V.degree + space_W.degree - 2, 1))
    gV = space_V.ref.tabulate_grad(q.points)               # (q, nV, 2)
    gW = space_W.ref.tabulate_grad(q.points)               # (q, nW, 2)
    # R's entries are rationals; those that vanish exactly come out as
    # round-off (<1e-13 of the largest up to p = 6, against >1e-4 for the
    # smallest true entry)
    R = _snap_round_off(np.einsum("q,qla,qkb->abkl", q.weights, gV, gW).reshape(4, nW * nV))
    Jinv = mesh.cell_inv_jacobians
    G = -np.einsum("c,cam,cbm->mcab", mesh.cell_det, Jinv[:, :, _I], Jinv[:, :, _J])
    volume = (G.reshape(3, -1, 4) @ R).reshape(3, -1, nW, nV)

    # (facets, terms, whether each term tests only the facet's edge functions)
    groups = [(mesh.boundary_facets(), [(0, 0, 1.0)], False)]
    if space_W.continuity == "DG":
        groups.append((mesh.interior_facets(),
                       [(r, s, 0.5 * (1.0 if s else -1.0)) for s in (0, 1) for r in (0, 1)],
                       True))
    cross, rows, cols = [], [], []
    spec = "ft,ftlm,ftk,fm->mfkl"                          # (weight, d_i phi_l, psi_k, n_j)
    t, wt = facet_quadrature(2 * space_V.degree + 2)
    for facets, terms, on_edge in groups:
        if len(facets) == 0:
            continue
        wlen = wt[None, :] * mesh.facet_lengths[facets][:, None]
        normals = mesh.facet_normals[facets][:, _J]
        # contracted in the order einsum picks for all nW test functions, the
        # edge rows keep the values of that full contraction bit for bit; the
        # DG system amplifies round-off in C about 1e7 times at 64x64 cells,
        # so another order would show in its solution
        shapes = [wlen.shape, (len(facets), len(t), nV, 3), (len(facets), len(t), nW),
                  normals.shape]
        path = np.einsum_path(spec, *(np.broadcast_to(0.0, n) for n in shapes),
                              optimize=True)[0]
        cells, grads, vals, tested = {}, {}, {}, {}
        for side in {side for r, s, _ in terms for side in (r, s)}:
            cells[side], _, grads[side], _ = facet_traces(space_V, facets, side, t)
            _, vals[side], _, _ = facet_traces(space_W, facets, side, t)
            tested[side] = (space_W.ref.edge_dofs[mesh.facet_local[facets, side]] if on_edge
                            else np.broadcast_to(np.arange(nW), (len(facets), nW)))
            if on_edge:
                vals[side] = np.take_along_axis(vals[side], tested[side][:, None, :], axis=2)
        for r, s, w in terms:
            term = np.einsum(spec, w * wlen, grads[r][..., _I], vals[s], normals, optimize=path)
            if r == s:
                # the term couples each cell with itself: add it to the
                # cell blocks one local edge k at a time, as no two facet
                # sides share a (cell, k) slot
                local = mesh.facet_local[facets, s]
                for k in range(3):
                    on_k = local == k
                    volume[:, cells[s][on_k, None], tested[s][on_k]] += term[:, on_k]
                continue
            cross.append(term)
            rows.append(np.take_along_axis(space_W.dof_map[cells[s]], tested[s], axis=1))
            cols.append(space_V.dof_map[cells[r]])

    C = scatter(volume, space_W.dof_map, space_V.dof_map, shape)
    if cross:
        C = [Cij + Fij for Cij, Fij in zip(C, scatter(
            np.concatenate(cross, axis=1), np.concatenate(rows), np.concatenate(cols), shape))]
    return _symmetric([_drop_round_off(Cij) for Cij in C])


def _drop_round_off(A):
    """Drop the entries of the CSR matrix A below 1e-12 of its largest, in place.

    The volume and facet parts of C_ij, and C_00 and C_11 in their sum,
    cancel exactly at many positions; their round-off (about 1e-14 of the
    largest entry, against >1e-4 for the smallest true one) would enter
    every apply and the pattern of the preconditioner built from C.
    """
    _snap_round_off(A.data)
    return _compact(A)


@dataclass
class HessianOperator:
    """Factored mass matrix and mixed stiffness blocks for Hessian recovery.

    `M_lu` is SuperLU's factor of M_W for a CG test space and the exact
    cellwise factor `_CellwiseLU` for a DG one; both offer `solve`, `L` and `U`.
    `C` holds three distinct matrices, as C[1][0] is C[0][1], and `C_trace`
    is C_00 + C_11 without its round-off entries.
    """

    space_V: object
    space_W: object
    M_W: sp.csr_matrix
    C: list
    C_trace: sp.csr_matrix
    M_lu: object = field(repr=False, default=None)

    def mass_solve(self, rhs):
        return self.M_lu.solve(np.asarray(rhs, dtype=np.float64))


def build_hessian_operator(space_V, mode="CG"):
    """Assemble M_W, C_ij and factor the mass matrix for a recovery variant."""
    if space_V.continuity != "CG":
        raise ValueError("the trial space must be CG")
    if mode not in ("CG", "DG"):
        raise ValueError("mode must be 'CG' or 'DG'")
    space_W = space_V if mode == "CG" else build_space(space_V.mesh, space_V.degree, "DG")
    M = assemble_mass_W(space_W)
    C = assemble_C(space_V, space_W)
    if mode == "DG":
        lu = _CellwiseLU(_reference_mass(space_W.degree), space_W.mesh.cell_det, space_W.dof_map)
    else:
        lu = _factor(M)
    C_trace = _drop_round_off((C[0][0] + C[1][1]).tocsr())
    return HessianOperator(space_V=space_V, space_W=space_W, M_W=M, C=C, C_trace=C_trace,
                           M_lu=lu)


def recover_hessian(op, u):
    """Recovered Hessian h_ij in W_h from three mass solves; H[1][0] is H[0][1]."""
    coeffs = u.coeffs if isinstance(u, FEFunction) else np.asarray(u, dtype=np.float64)
    return _symmetric([FEFunction(op.space_W, op.mass_solve(Cij @ coeffs))
                       for Cij in _stored(op.C)])

