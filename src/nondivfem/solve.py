"""Linear solvers and the top-level solve orchestration.

GMRES sees the recovery scheme's system matrix through the matrix-free
apply.  Right preconditioning keeps the monitored residual equal to the
true residual of the original system.  `solve_problem` makes one GMRES
call for every scheme; the scheme picks only the apply, the right-hand
side and the preconditioner.  Where the preconditioner is the system
matrix, on a DG test space and for the direct scheme, GMRES starts from
its factored solve: the initial residual, one apply, compares that matrix
with the apply, and GMRES takes no step when it meets the tolerance.
"""

from dataclasses import dataclass, field

import numpy as np

from .hessian import _factor
from .operator import (
    Preconditioner,
    _coefficient_sample,
    assemble_nsz,
    assemble_rhs,
    build_preconditioner,
    build_system,
)
from .space import FEFunction, boundary_dofs, build_space

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

    Every scheme assembles its right-hand side and a factored
    `operator.Preconditioner`, then makes the one preconditioned GMRES call
    to the absolute and relative tolerance `tol`.  recovery-cg runs it from
    zero on the matrix-free system with the diagonal surrogate
    preconditioner.  For recovery-dg (see `build_preconditioner`) and nsz,
    whose eliminated sparse matrix and factor are wrapped in a
    Preconditioner too, P is the system matrix: GMRES starts from P^-1 b,
    checks its residual and takes no step unless round-off leaves it above
    tol.  Raises ValueError for a tol that is not finite and > 0, and for a
    nonzero eta2 with nsz, which has no Hessian-jump penalty.
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
        K, b = assemble_nsz(space_V, sample, 1.0 if eta1 is None else float(eta1))
        P = Preconditioner(matrix=K, lu=_factor(K))
        apply, cordes, system = K.__matmul__, sample.cordes, None
    else:
        mode = "CG" if scheme == "recovery-cg" else "DG"
        system = build_system(problem, mesh, p, mode, eta1, eta2)
        space_V, b, P = system.space_V, assemble_rhs(system), build_preconditioner(system)
        apply, cordes = system.apply, system.cordes
    # for every scheme but recovery-cg P is the system matrix, so P^-1 b is
    # the solution and GMRES only checks its residual
    x0 = None if scheme == "recovery-cg" else P.solve(b)
    x, report = gmres(apply, b, precond=P.solve, x0=x0, tol_abs=tol, tol_rel=tol,
                      max_iter=MAX_ITER)
    x[boundary_dofs(space_V)] = 0.0
    return Solution(u_h=FEFunction(space_V, x), report=report, cordes=cordes, system=system)
