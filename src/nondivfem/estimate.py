"""Error norms against manufactured solutions and the residual estimator.

The mesh-dependent H2_h norm is the broken Hessian seminorm plus
h_F^-1-weighted normal-gradient jumps over interior facets; an exact
solution in H2 contributes nothing to the jumps, so only u_h's jumps
enter the error.  The local estimator combines the strong volume residual
of the rescaled equation with the same jump terms, attributed to both
cells next to each facet, and the per-cell H2_h error `ErrorNorms.h2h_T`
charges them the same way, so the two compare cell by cell.  Both are
integrated with rules exact to degree 2p + 4, two above the assembly rule,
fixed in `_level_data`.
"""

from dataclasses import dataclass, field

import numpy as np

from .operator import _gamma, _require_finite
from .space import evaluate, facet_quadrature, normal_jumps, physical_points, quadrature

__all__ = [
    "ErrorNorms",
    "error_norms",
    "local_estimator",
    "estimate_level",
    "eoc",
    "ls_slope",
]


@dataclass
class ErrorNorms:
    l2: float
    h1: float
    h2h: float
    h2_broken: float
    # per cell: sqrt of the cellwise Hessian error squared plus the jump
    # terms of its interior facets, each facet charged to both cells; left
    # out of == and repr, which compare and print the norms
    h2h_T: np.ndarray = field(compare=False, repr=False)


@dataclass
class _LevelData:
    """What the estimator and the error norms share on one mesh: u_h and
    its derivatives at the volume quadrature points, and the interior-facet
    gradient jumps."""

    mesh: object
    pts: np.ndarray
    wdet: np.ndarray
    vals: np.ndarray
    grads: np.ndarray
    hess: np.ndarray
    int_f: np.ndarray
    jumps: np.ndarray


def _gradient_jumps_sq(u_h, quad_deg):
    """Per-interior-facet values of h_F^-1 int_F [grad(u_h) . n_F]^2."""
    int_f = u_h.space.mesh.interior_facets()
    t, wt = facet_quadrature(quad_deg)
    dofs, jumps = normal_jumps(u_h.space, int_f, t)
    jump = np.einsum("ftl,fl->ft", jumps, u_h.coeffs[dofs])
    # h_F^-1 int_F [..]^2 = h_F^-1 * (sum_t w_t h_F [..]^2); the lengths cancel
    return int_f, np.einsum("t,ft->f", wt, jump**2)


def _level_data(u_h):
    """The a posteriori rule: volume and facet quadrature exact to 2p + 4,
    two degrees above the assembly rule."""
    mesh = u_h.space.mesh
    deg = 2 * u_h.space.degree + 4
    q = quadrature(deg)
    vals, grads, hess = evaluate(u_h, q)
    cells = np.arange(mesh.n_cells)
    pts = physical_points(mesh, cells, np.broadcast_to(q.points, (mesh.n_cells,) + q.points.shape))
    wdet = q.weights[None, :] * mesh.cell_det[:, None]
    int_f, jumps = _gradient_jumps_sq(u_h, deg)
    return _LevelData(mesh, pts, wdet, vals, grads, hess, int_f, jumps)


def _charge_jumps(d, cell_sq):
    """Add each interior facet's jump term to both cells next to it."""
    n = d.mesh.n_cells
    for side in (0, 1):
        cell_sq = cell_sq + np.bincount(d.mesh.facet_cells[d.int_f, side], d.jumps, minlength=n)
    return cell_sq


def _estimator(d, problem, A, gamma):
    """eta_T from the values A and gamma of the coefficient at d.pts; raises
    ValueError naming the first point where A or f is not finite."""
    f = problem.f(d.pts)
    pts = d.pts.reshape(-1, 2)
    _require_finite(A, pts, "A")
    _require_finite(f, pts, "f")
    AH = np.einsum("cqij,cqij->cq", A, d.hess)
    resid = gamma * (f - AH)
    eta_sq = _charge_jumps(d, np.einsum("cq,cq->c", d.wdet, resid**2))
    return np.sqrt(eta_sq)


def _error_norms(d, exact):
    du = d.vals - exact["u"](d.pts)
    dg = d.grads - exact["grad"](d.pts)
    dh = d.hess - exact["hess"](d.pts)
    l2_sq = float(np.einsum("cq,cq->", d.wdet, du**2))
    h1_semi_sq = float(np.einsum("cq,cqi->", d.wdet, dg**2))
    dh_sq = dh**2
    h2_broken_sq = float(np.einsum("cq,cqij->", d.wdet, dh_sq))
    h2h_sq = h2_broken_sq + float(d.jumps.sum())
    return ErrorNorms(
        l2=np.sqrt(l2_sq),
        h1=np.sqrt(l2_sq + h1_semi_sq),
        h2h=np.sqrt(h2h_sq),
        h2_broken=np.sqrt(h2_broken_sq),
        h2h_T=np.sqrt(_charge_jumps(d, np.einsum("cq,cqij->c", d.wdet, dh_sq))),
    )


def estimate_level(u_h, problem):
    """Estimator and, when the problem has an exact solution, error norms of
    one solved level, from a single evaluation of u_h and its jumps and of
    A and f.  gamma = tr(A)/||A||_F^2 comes from that sample of A.

    Returns (eta_T, ErrorNorms or None), eta_T the (n_cells,) indicator
    array that `doerfler_mark` takes; the global estimator is
    sqrt(sum(eta_T**2)).  The per-cell eta_T and the per-cell H2_h errors
    h2h_T of the ErrorNorms charge each facet's jump term alike, so they
    compare cell by cell.  The values equal those of separate
    local_estimator (given the CordesInfo's gamma) and error_norms calls
    bit for bit.
    """
    d = _level_data(u_h)
    errors = None
    if problem.has_exact:
        exact = {"u": problem.exact_u, "grad": problem.exact_grad, "hess": problem.exact_hess}
        errors = _error_norms(d, exact)
    A = problem.A(d.pts)
    return _estimator(d, problem, A, _gamma(A)), errors


def error_norms(u_h, exact):
    """L2, full H1 and broken H2_h errors of u_h against pointwise fields.

    `exact` maps the keys "u", "grad", "hess" to vectorized callables.
    """
    return _error_norms(_level_data(u_h), exact)


def local_estimator(u_h, problem, gamma):
    """Cellwise eta_T, an (n_cells,) array: volume residual of the rescaled
    equation plus normal-gradient jump terms, each interior facet charged
    to both cells.
    """
    d = _level_data(u_h)
    return _estimator(d, problem, problem.A(d.pts), gamma(d.pts))


def eoc(series):
    """Experimental orders from (h, error) pairs: log-ratio slopes.  Fewer
    than two pairs, a value <= 0 and two equal consecutive h raise
    ValueError."""
    series = list(series)
    if len(series) < 2:
        raise ValueError("need at least two (h, error) entries")
    hs = np.array([s[0] for s in series], dtype=np.float64)
    es = np.array([s[1] for s in series], dtype=np.float64)
    if np.any(hs <= 0) or np.any(es <= 0):
        raise ValueError("h and error values must be positive")
    if np.any(hs[:-1] == hs[1:]):
        raise ValueError("consecutive h values must differ")
    return list(np.log(es[:-1] / es[1:]) / np.log(hs[:-1] / hs[1:]))


def ls_slope(x, y):
    """Least-squares slope of log(y) against log(x).  A value <= 0 and
    fewer than two distinct x raise ValueError."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("values must be positive")
    if np.unique(x).size < 2:
        raise ValueError("need at least two distinct x values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
