"""Reference-point helpers for the tests' brute-force oracles.

The package evaluates basis functions only at fixed reference rules; the
oracles locate arbitrary physical points cell by cell instead.
"""

import numpy as np


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
