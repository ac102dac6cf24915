"""Doerfler marking, the solve-estimate-mark-refine loop, and the level
routine `_solve_and_estimate` that uniform and adaptive studies share."""

from dataclasses import dataclass

import numpy as np

from .estimate import estimate_level
from .mesh import _is_count, bisect, build_rect_mesh
from .solve import SolveReport, solve_problem
from .space import _cg_dof_count, _require_degree

__all__ = ["AdaptiveRecord", "doerfler_mark", "adaptive_loop", "initial_mesh"]


@dataclass
class AdaptiveRecord:
    """One solved level: the values of its CSV row, `n_dofs`, `h_max`, the
    ErrorNorms `errors` (None without an exact solution) and `eta_global`,
    and `report`, the level's SolveReport from `solve_problem`, which holds
    its GMRES iterations, convergence flag and final true residual."""

    n_dofs: int
    h_max: float
    errors: object
    eta_global: float
    report: SolveReport


def _require_theta(theta):
    """Raise ValueError unless the marking fraction theta lies in (0, 1]."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")


def doerfler_mark(eta_T, theta):
    """Doerfler's bulk criterion on squared indicators: the smallest prefix
    of cells, sorted by eta_T descending, with sum of marked eta_T^2 >=
    theta^2 * sum of all eta_T^2.  `eta_T` is the per-cell indicator array.
    Ties break by cell id; cells with eta_T = 0 are never marked.  An empty
    field, an array that is not 1-D, an indicator that is not finite or
    negative, and a theta outside (0, 1] raise ValueError.
    """
    eta_T = np.asarray(eta_T, dtype=np.float64)
    if eta_T.size == 0:
        raise ValueError("empty estimator field")
    if eta_T.ndim != 1:
        raise ValueError("indicators must be a 1-D array, not of shape %s" % (eta_T.shape,))
    if not np.all(np.isfinite(eta_T) & (eta_T >= 0.0)):
        raise ValueError("indicators must be finite and >= 0")
    _require_theta(theta)
    emax = eta_T.max()
    if emax == 0.0:
        return np.array([], dtype=np.int64)
    # squares of the indicators scaled by the largest, in [0, 1], so no
    # finite field overflows or underflows to all zeros
    vals = (eta_T / emax) ** 2
    # order by the values rounded to 12 digits, so cells whose indicators
    # agree in exact arithmetic (mirror-image cells) are ordered by cell id
    # and not by round-off
    order = np.argsort(-np.round(vals, 12), kind="stable")
    csum = np.cumsum(vals[order])
    total = csum[-1]
    target = theta**2 * total
    # relative slack so exact ties (csum == target up to rounding) do not
    # drag an extra cell in
    k = int(np.argmax(csum >= target - 1e-12 * total)) + 1
    # zeros share the last rounded value with indicators below 5e-13 of
    # the largest and may sit between them
    marked = order[:k]
    return np.sort(marked[vals[marked] > 0.0])


def initial_mesh(problem, n=None):
    """Structured starting mesh on the problem's bounding rectangle."""
    x0, x1, y0, y1 = problem.bounds
    n = n if n is not None else problem.initial_n
    return build_rect_mesh(x0, x1, y0, y1, n, n)


def _solve_and_estimate(problem, mesh, p, **solve_options):
    """Solve one level with `solve_problem` and estimate it with
    `estimate_level`: (AdaptiveRecord, eta_T).  The record holds the level's
    dofs, h_max, error norms and global estimator and its SolveReport."""
    sol = solve_problem(problem, mesh, p, **solve_options)
    eta_T, errors = estimate_level(sol.u_h, problem)
    return AdaptiveRecord(sol.u_h.space.n_dofs, mesh.h_max, errors,
                          float(np.sqrt(np.sum(eta_T**2))), sol.report), eta_T


def adaptive_loop(
    problem,
    p=2,
    scheme="recovery-cg",
    theta=0.9,
    max_dofs=100000,
    eta1=None,
    mesh=None,
):
    """Solve-estimate-mark-refine until the dof budget is exhausted.

    Each level is solved by `solve_problem` with `scheme` and the
    gradient-jump penalty `eta1`, then marks its cells by Doerfler's bulk
    criterion on squared indicators (`doerfler_mark` at `theta`) and bisects
    them.  Returns one AdaptiveRecord per solved level.  Levels are solved
    as long as the mesh has at most max_dofs degrees of freedom, so n_dofs
    is strictly increasing and bounded by the budget.  Raises ValueError,
    before anything is solved or counted, when p or max_dofs is not an
    integer >= 1 or theta lies outside (0, 1], and before anything is
    solved when the initial mesh already has more than max_dofs.
    """
    _require_degree(p)
    _require_theta(theta)
    if not _is_count(max_dofs):
        raise ValueError("max_dofs must be an integer >= 1, not %r" % (max_dofs,))
    mesh = mesh if mesh is not None else initial_mesh(problem)
    records = []
    while True:
        n_dofs = _cg_dof_count(mesh, p)
        if n_dofs > max_dofs:
            if not records:
                raise ValueError("the initial mesh has %d dofs, more than max_dofs = %d"
                                 % (n_dofs, max_dofs))
            break
        record, eta_T = _solve_and_estimate(problem, mesh, p, scheme=scheme, eta1=eta1)
        records.append(record)
        marked = doerfler_mark(eta_T, theta)
        if len(marked) == 0:
            break
        mesh = bisect(mesh, marked)
    return records
