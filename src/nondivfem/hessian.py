"""Hessian recovery by discrete integration by parts.

For u_h in a C0 Lagrange space V_h the recovered Hessian H(u_h) lives in a
matrix-valued space W_h (CG or DG, same degree) and is defined via

    int_Omega H(u):w = -int_Omega grad(u) . Div(w) + facet terms,

tested against all w in W_h.  With continuous test functions only the
domain boundary contributes; discontinuous test functions see an
average-times-jump term on every facet.  Componentwise this reduces to
four scalar systems M_W h_ij = C_ij u sharing one mass matrix.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .space import (
    FEFunction,
    build_space,
    facet_points,
    facet_quadrature,
    pullback_points,
    quadrature,
    tabulate_at,
)

__all__ = [
    "HessianOperator",
    "assemble_mass_W",
    "assemble_C_cg",
    "assemble_C_dg",
    "build_hessian_operator",
    "recover_hessian",
    "fe_laplacian",
]


def assemble_mass_W(space):
    """Scalar mass matrix (M)_{kl} = int psi_l psi_k over the mesh."""
    mesh = space.mesh
    q = quadrature(2 * space.degree + 2)
    phi = space.ref.tabulate(q.points)                     # (q, nloc)
    m_ref = np.einsum("q,qk,ql->kl", q.weights, phi, phi)  # reference cell
    data = mesh.cell_det[:, None, None] * m_ref[None]
    dm = space.dof_map
    nloc = space.ref.n_basis
    rows = np.repeat(dm, nloc, axis=1).ravel()
    cols = np.tile(dm, (1, nloc)).ravel()
    n = space.n_scalar_dofs
    return sp.coo_matrix((data.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _scatter(blocks, rows, cols, shape):
    """Sum COO triplets into a CSR matrix."""
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def _volume_C(space_V, space_W):
    """-int_T d_i(phi_l) d_j(psi_k) blocks, returned as 2x2 list of CSR parts.

    Physical gradients on an affine cell are Jinv^T times reference ones, so
    a block is the geometry tensor -det_T Jinv[a, i] Jinv[b, j] contracted
    with the reference tensor R[a, b, k, l] = int d_a(phi_l) d_b(psi_k) over
    the reference cell (Kirby & Logg, ACM TOMS 2006): one (cells x 4) @
    (4 x nW nV) product per block.  The integrand has degree pV + pW - 2.
    """
    mesh = space_V.mesh
    q = quadrature(max(space_V.degree + space_W.degree - 2, 1))
    gV = space_V.ref.tabulate_grad(q.points)               # (q, nV, 2)
    gW = space_W.ref.tabulate_grad(q.points)               # (q, nW, 2)
    nW, nV = space_W.ref.n_basis, space_V.ref.n_basis
    R = np.einsum("q,qla,qkb->abkl", q.weights, gV, gW).reshape(4, nW * nV)
    # R's entries are rationals; those that vanish exactly come out as
    # round-off (<1e-13 of the largest up to p = 6, against >1e-4 for the
    # smallest true entry) and would be scattered into the pattern of C and
    # of the preconditioner built from it
    R[np.abs(R) < 1e-10 * np.abs(R).max()] = 0.0
    Jinv = mesh.cell_inv_jacobians
    det = mesh.cell_det
    rows = np.repeat(space_W.dof_map, nV, axis=1)
    cols = np.tile(space_V.dof_map, (1, nW))
    shape = (space_W.n_scalar_dofs, space_V.n_dofs)
    C = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            G = -det[:, None, None] * Jinv[:, :, i, None] * Jinv[:, None, :, j]
            C[i][j] = _scatter(G.reshape(-1, 4) @ R, rows, cols, shape)
    return C


def _facet_tabulation(space, cells, phys):
    """Trace values and physical gradients of a space's basis on given cells."""
    return tabulate_at(space, cells, pullback_points(space.mesh, cells, phys))


def _boundary_C(space_V, space_W):
    """+int_F d_i(phi_l) psi_k n_j over domain-boundary facets."""
    mesh = space_V.mesh
    bf = mesh.boundary_facets()
    shape = (space_W.n_scalar_dofs, space_V.n_dofs)
    C = [[sp.csr_matrix(shape) for _ in range(2)] for _ in range(2)]
    if len(bf) == 0:
        return C
    p = space_V.degree
    t, wt = facet_quadrature(2 * p + 2)
    phys = facet_points(mesh, bf, t)
    owner = mesh.facet_cells[bf, 0]
    _, gV = _facet_tabulation(space_V, owner, phys)    # (F, t, nV, 2)
    vW, _ = _facet_tabulation(space_W, owner, phys)    # (F, t, nW)
    wlen = wt[None, :] * mesh.facet_lengths[bf][:, None]
    normals = mesh.facet_normals[bf]
    nW, nV = space_W.ref.n_basis, space_V.ref.n_basis
    rows = np.repeat(space_W.dof_map[owner], nV, axis=1)
    cols = np.tile(space_V.dof_map[owner], (1, nW))
    for i in range(2):
        for j in range(2):
            blk = np.einsum(
                "ft,ftl,ftk,f->fkl", wlen, gV[..., i], vW, normals[:, j], optimize=True
            )
            C[i][j] = _scatter(blk, rows, cols, shape)
    return C


def _interior_C_dg(space_V, space_W):
    """Average-gradient x test-jump terms on interior facets (DG test space).

    For a test function psi living on one side of a facet, the matrix jump
    turns into psi times the outward normal of that side, so each facet
    contributes int_F {d_i phi} psi n_j with the sign of n chosen per side.
    """
    mesh = space_V.mesh
    int_f = mesh.interior_facets()
    shape = (space_W.n_scalar_dofs, space_V.n_dofs)
    C = [[sp.csr_matrix(shape) for _ in range(2)] for _ in range(2)]
    if len(int_f) == 0:
        return C
    p = space_V.degree
    t, wt = facet_quadrature(2 * p + 2)
    phys = facet_points(mesh, int_f, t)
    plus = mesh.facet_cells[int_f, 0]
    minus = mesh.facet_cells[int_f, 1]
    _, gVp = _facet_tabulation(space_V, plus, phys)
    _, gVm = _facet_tabulation(space_V, minus, phys)
    vWp, _ = _facet_tabulation(space_W, plus, phys)
    vWm, _ = _facet_tabulation(space_W, minus, phys)
    wlen = wt[None, :] * mesh.facet_lengths[int_f][:, None]
    n_f = mesh.facet_normals[int_f]                        # outward of minus side
    nW, nV = space_W.ref.n_basis, space_V.ref.n_basis

    dV = {0: space_V.dof_map[plus], 1: space_V.dof_map[minus]}
    dW = {0: space_W.dof_map[plus], 1: space_W.dof_map[minus]}
    gV = {0: gVp, 1: gVm}
    vW = {0: vWp, 1: vWm}
    sign = {0: -1.0, 1: +1.0}                              # n_plus = -n_F, n_minus = +n_F

    for i in range(2):
        for j in range(2):
            parts = []
            for s in (0, 1):                               # side carrying psi
                for r in (0, 1):                           # side providing the trace of grad phi
                    blk = 0.5 * sign[s] * np.einsum(
                        "ft,ftl,ftk,f->fkl", wlen, gV[r][..., i], vW[s], n_f[:, j], optimize=True
                    )
                    rows = np.repeat(dW[s], nV, axis=1)
                    cols = np.tile(dV[r], (1, nW))
                    parts.append(_scatter(blk, rows, cols, shape))
            C[i][j] = parts[0] + parts[1] + parts[2] + parts[3]
    return C


def assemble_C_cg(space_V, space_W):
    """C_ij for the continuous recovery: volume plus domain-boundary terms."""
    if space_W.continuity != "CG":
        raise ValueError("assemble_C_cg expects a CG test space")
    C = _volume_C(space_V, space_W)
    Cb = _boundary_C(space_V, space_W)
    return [[C[i][j] + Cb[i][j] for j in range(2)] for i in range(2)]


def assemble_C_dg(space_V, space_W):
    """C_ij for the discontinuous recovery: facet sum over all facets."""
    if space_W.continuity != "DG":
        raise ValueError("assemble_C_dg expects a DG test space")
    C = _volume_C(space_V, space_W)
    Cb = _boundary_C(space_V, space_W)
    Ci = _interior_C_dg(space_V, space_W)
    return [[C[i][j] + Cb[i][j] + Ci[i][j] for j in range(2)] for i in range(2)]


@dataclass
class HessianOperator:
    """Factored mass matrix and mixed stiffness blocks for Hessian recovery."""

    mode: str
    space_V: object
    space_W: object
    M_W: sp.csr_matrix
    C: list
    M_lu: object = field(repr=False, default=None)

    def mass_solve(self, rhs):
        return self.M_lu.solve(np.asarray(rhs, dtype=np.float64))

    @property
    def C_trace(self):
        if not hasattr(self, "_C_trace"):
            self._C_trace = (self.C[0][0] + self.C[1][1]).tocsr()
        return self._C_trace


def build_hessian_operator(space_V, mode="CG"):
    """Assemble M_W, C_ij and factor the mass matrix for a recovery variant."""
    if space_V.continuity != "CG" or space_V.value_shape != "scalar":
        raise ValueError("the trial space must be scalar CG")
    if mode not in ("CG", "DG"):
        raise ValueError("mode must be 'CG' or 'DG'")
    space_W = build_space(space_V.mesh, space_V.degree, mode, "scalar")
    M = assemble_mass_W(space_W)
    C = assemble_C_cg(space_V, space_W) if mode == "CG" else assemble_C_dg(space_V, space_W)
    lu = splu(M.tocsc())
    return HessianOperator(mode=mode, space_V=space_V, space_W=space_W, M_W=M, C=C, M_lu=lu)


def recover_hessian(op, u):
    """Recovered Hessian components h_ij in W_h, as a 2x2 array of functions."""
    coeffs = u.coeffs if isinstance(u, FEFunction) else np.asarray(u, dtype=np.float64)
    H = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            H[i][j] = FEFunction(op.space_W, op.mass_solve(op.C[i][j] @ coeffs))
    return H


def fe_laplacian(op, v):
    """Trace of the recovered Hessian: M_W w = (C_11 + C_22) v."""
    coeffs = v.coeffs if isinstance(v, FEFunction) else np.asarray(v, dtype=np.float64)
    return FEFunction(op.space_W, op.mass_solve(op.C_trace @ coeffs))
