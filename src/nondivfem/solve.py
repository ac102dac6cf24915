"""Linear solvers and the top-level solve orchestration.

GMRES sees the recovery scheme's system matrix through the matrix-free
apply.  Right preconditioning keeps the monitored residual equal to the
true residual of the original system.  `solve_problem` makes one GMRES
call for every scheme; the scheme picks only the apply, the right-hand
side and the preconditioner.  Where the preconditioner is the system
matrix, on a DG test space and for the direct scheme, GMRES starts from
its factored solve: the initial residual, one apply, compares that matrix
with the apply, and GMRES takes no step when it meets the tolerance.  On a
DG test space that solve is first refined once against the apply.  GMRES
has one tolerance, absolute and relative at once, and one iteration cap,
`MAX_ITER`; every solve uses the tolerance `TOL`.
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
MAX_ITER = 500  # Arnoldi step cap of every GMRES call
TOL = 1e-8  # absolute and relative tolerance of every solve_problem call


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


def gmres(apply, b, precond=None, x0=None, tol=TOL):
    """Full GMRES with modified Gram-Schmidt and right preconditioning.

    Starts from x0 (zero when None), whose residual r0 = b - apply(x0) costs
    one apply, and stops when the recursive residual estimate reaches the
    absolute and relative tolerance max(tol, tol * ||b||), after
    min(MAX_ITER, len(b)) Arnoldi steps, or at an exact breakdown.  The cap
    is the module's MAX_ITER, read at each call.  An x0 whose ||r0|| meets
    the tolerance comes back as it is after 0 steps.  Returns
    (x, SolveReport); `iterations` counts Arnoldi steps, and `converged` is
    whether the true residual ||b - apply(x)|| meets the tolerance.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    M = precond if precond is not None else (lambda r: r)

    tol = max(tol, tol * float(np.linalg.norm(b)))
    if x0 is not None:
        x0 = np.array(x0, dtype=np.float64)
    r0 = b if x0 is None else b - apply(x0)
    beta = float(np.linalg.norm(r0))
    history = [beta]
    if beta <= tol:
        return (np.zeros(n) if x0 is None else x0), SolveReport(0, history, True, beta)

    # the Krylov basis, the Hessenberg columns and the rotations grow by one
    # entry per step, so memory follows the iterations taken, not MAX_ITER
    V = [r0 / beta]
    H = []          # column j: the rotated H[:j + 1, j], upper triangular
    cs, sn = [], []
    g = [beta]

    for j in range(min(MAX_ITER, n)):
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
):
    """Assemble and solve one discrete problem on a fixed mesh.

    Every scheme assembles its right-hand side and a factored
    `operator.Preconditioner`, then makes the one preconditioned GMRES call
    to the absolute and relative tolerance TOL, read at each call.
    recovery-cg runs it from zero on the matrix-free system with the
    diagonal surrogate preconditioner.  For recovery-dg (see
    `build_preconditioner`) and nsz, whose eliminated sparse matrix and
    factor are wrapped in a Preconditioner too, P is the system matrix:
    GMRES starts from P^-1 b, checks its residual and takes no step unless
    round-off leaves it above TOL.  recovery-dg first refines P^-1 b once
    against the matrix-free apply, x0 + P^-1 (b - A x0), so its solution
    does not follow the round-off of the assembled P.  The one penalty is
    eta1, on the normal-gradient jumps across interior facets; nsz defaults
    it to 1 and recovery to `build_system`'s rule.  A degree p that is not
    an integer >= 1 raises ValueError, as in `build_space`.
    Boundary coefficients of the returned function are exactly zero.
    """
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme %r; choose from %s" % (scheme, list(SCHEMES)))

    if scheme == "nsz":
        space_V = build_space(mesh, p, "CG")
        sample = _coefficient_sample(problem, space_V)
        K, b = assemble_nsz(space_V, sample, 1.0 if eta1 is None else float(eta1))
        P = Preconditioner(matrix=K, lu=_factor(K))
        apply, cordes, system = K.__matmul__, sample.cordes, None
    else:
        mode = "CG" if scheme == "recovery-cg" else "DG"
        system = build_system(problem, mesh, p, mode, eta1)
        space_V, b, P = system.space_V, assemble_rhs(system), build_preconditioner(system)
        apply, cordes = system.apply, system.cordes
    # for every scheme but recovery-cg P is the system matrix, so P^-1 b is
    # the solution and GMRES only checks its residual
    x0 = None if scheme == "recovery-cg" else P.solve(b)
    if scheme == "recovery-dg":
        # one step of iterative refinement against the matrix-free apply: the
        # DG system amplifies round-off about 1e7 times, so without it the
        # solution would follow the round-off of the assembled K
        x0 = x0 + P.solve(b - apply(x0))
    x, report = gmres(apply, b, precond=P.solve, x0=x0, tol=TOL)
    x[boundary_dofs(space_V)] = 0.0
    return Solution(u_h=FEFunction(space_V, x), report=report, cordes=cordes, system=system)
