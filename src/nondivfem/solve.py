"""Linear solvers and the top-level solve orchestration.

GMRES sees the recovery scheme's system matrix through the matrix-free
apply.  Right preconditioning keeps the monitored residual equal to the
true residual of the original system.  For a DG test space the
preconditioner is the assembled system matrix, so GMRES starts from its
factored solve: the initial residual, one matrix-free apply, compares that
matrix with the apply, and GMRES takes no step when it meets the tolerance.
The direct scheme's factored solve goes through the same check.
"""

from dataclasses import dataclass, field

import numpy as np

from .hessian import _factor
from .operator import (
    _coefficient_sample,
    assemble_nsz,
    assemble_rhs,
    build_preconditioner,
    build_system,
)
from .space import FEFunction, build_space

__all__ = ["SolveReport", "Solution", "gmres", "solve_problem"]

SCHEMES = ("recovery-cg", "recovery-dg", "nsz")
MAX_ITER = 500  # GMRES iteration cap of every recovery solve


@dataclass
class SolveReport:
    iterations: int
    residual_history: list
    converged: bool
    final_true_residual: float


@dataclass
class Solution:
    """A solved level.  `system` is the recovery scheme's SystemOperator (None
    for nsz); `recover_hessian(sol.system.hessian_op, sol.u_h)` gives the
    recovered Hessian of u_h."""

    u_h: FEFunction
    report: SolveReport
    cordes: object
    system: object = field(default=None, repr=False)


def gmres(apply, b, precond=None, x0=None, tol_abs=1e-8, tol_rel=1e-8, max_iter=MAX_ITER):
    """Full GMRES with modified Gram-Schmidt and right preconditioning.

    Starts from x0 (zero when None), whose residual r0 = b - apply(x0) costs
    one apply, and stops when the recursive residual estimate reaches
    tol = max(tol_abs, tol_rel * ||b||), after min(max_iter, len(b)) Arnoldi
    steps, or at an exact breakdown.  An x0 with ||r0|| <= tol comes back as
    it is after 0 steps.  Returns (x, SolveReport); `iterations` counts
    Arnoldi steps, and `converged` is whether the true residual
    ||b - apply(x)|| is at most tol.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    M = precond if precond is not None else (lambda r: r)

    tol = max(tol_abs, tol_rel * float(np.linalg.norm(b)))
    if x0 is not None:
        x0 = np.array(x0, dtype=np.float64)
    r0 = b if x0 is None else b - apply(x0)
    beta = float(np.linalg.norm(r0))
    history = [beta]
    if beta <= tol:
        return (np.zeros(n) if x0 is None else x0), SolveReport(0, history, True, beta)

    # the Krylov basis, the Hessenberg columns and the rotations grow by one
    # entry per step, so memory follows the iterations taken, not max_iter
    V = [r0 / beta]
    H = []          # column j: the rotated H[:j + 1, j], upper triangular
    cs, sn = [], []
    g = [beta]

    for j in range(min(max_iter, n)):
        # copy: apply or M may hand back their argument (e.g. the identity),
        # and the in-place orthogonalization below must not touch V
        w = np.array(apply(M(V[j])), dtype=np.float64)
        h = []
        for v in V:
            h.append(v @ w)
            w -= h[-1] * v
        hnext = float(np.linalg.norm(w))
        h.append(hnext)

        # apply stored Givens rotations, then a new one to annihilate h[j + 1]
        for i in range(j):
            t = cs[i] * h[i] + sn[i] * h[i + 1]
            h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
            h[i] = t
        denom = np.hypot(h[j], h[j + 1])
        cs.append(h[j] / denom if denom > 0 else 1.0)
        sn.append(h[j + 1] / denom if denom > 0 else 0.0)
        h[j:] = [denom]
        H.append(h)
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]

        res = abs(g[j + 1])
        history.append(res)
        if res <= tol:
            break
        if hnext == 0.0:
            # exact breakdown: the Krylov space is invariant; the current
            # least-squares solution is as good as it gets
            break
        V.append(w / hnext)

    # back substitution on the triangular system, then undo the right
    # preconditioning
    k = len(H)
    R = np.zeros((k, k))
    for j, h in enumerate(H):
        R[:j + 1, j] = h
    x = M(np.array(V[:k]).T @ np.linalg.solve(R, g[:k]))
    if x0 is not None:
        x = x0 + x
    true_res = float(np.linalg.norm(b - apply(x)))
    return x, SolveReport(k, history, true_res <= tol, true_res)


def solve_problem(
    problem,
    mesh,
    p,
    scheme="recovery-cg",
    eta1=None,
    eta2=None,
    tol=1e-8,
):
    """Assemble and solve one discrete problem on a fixed mesh.

    Every scheme ends in preconditioned GMRES to the absolute and relative
    tolerance `tol`.  recovery-cg runs it on the matrix-free system with the
    diagonal surrogate preconditioner.  recovery-dg factors the assembled
    system (see `build_preconditioner`) and starts GMRES from its solution,
    so GMRES checks the matrix-free residual and takes no step unless round-off
    leaves it above tol.  nsz assembles its sparse matrix and starts from its
    factored solve in the same way.  Raises ValueError for a tol that is not
    finite and > 0, and for a nonzero eta2 with nsz, which has no Hessian-jump
    penalty.
    Boundary coefficients of the returned function are exactly zero.
    """
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme %r; choose from %s" % (scheme, list(SCHEMES)))
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and > 0")

    if scheme == "nsz":
        if eta2 is not None and eta2 != 0:
            raise ValueError("the nsz scheme has no Hessian-jump penalty; eta2 must be 0")
        space_V = build_space(mesh, p, "CG")
        sample = _coefficient_sample(problem, space_V)
        e1 = 1.0 if eta1 is None else float(eta1)
        K, rhs = assemble_nsz(space_V, sample, e1)
        lu = _factor(K)
        x, report = gmres(lambda v: K @ v, rhs, precond=lu.solve, x0=lu.solve(rhs),
                          tol_abs=tol, tol_rel=tol, max_iter=MAX_ITER)
        return Solution(u_h=FEFunction(space_V, x), report=report, cordes=sample.cordes)

    mode = "CG" if scheme == "recovery-cg" else "DG"
    op = build_system(problem, mesh, p, mode, eta1, eta2)
    b = assemble_rhs(op)
    P = build_preconditioner(op)
    # the DG preconditioner is the system matrix, so P^-1 b is the solution
    # and GMRES only checks its residual
    x0 = P.solve(b) if mode == "DG" else None
    x, report = gmres(op.apply, b, precond=P.solve, x0=x0, tol_abs=tol, tol_rel=tol,
                      max_iter=MAX_ITER)
    x[~op.free_mask] = 0.0
    return Solution(u_h=FEFunction(op.space_V, x), report=report, cordes=op.cordes, system=op)
