"""Problem catalog, coefficient analysis and discrete operators.

The model problem is A : D2(u) = f on a rectangle with u = 0 on the
boundary, where A is symmetric, uniformly positive definite and satisfies
a Cordes-type bound ||A||_F^2 / tr(A)^2 <= 1/(1 + eps) for some
eps in (0, 1].  The scalar rescaling gamma = tr(A)/||A||_F^2 brings
gamma*A close to the identity, which drives both the solver and the
preconditioner.

The catalog's exact solutions of exp1, exp3 and poly are products
u = g(x) g(y); `_product` derives their gradients and Hessians from the 1-D
profile g and its derivatives.  Every forcing f is written out by hand, as
that is faster to evaluate than A : D2(u).  A coefficient or forcing that is
not finite at a sampled point raises ValueError.

Two discretizations are assembled here:

* the recovery scheme: a matrix-free action built from the Hessian
  recovery blocks (4 + 1 mass solves per application) plus an optional
  facet penalty, with an assembled preconditioner, one formula over the
  three stored components of `hessian` whose test space picks only the
  mass inverse and the weighted masses: their diagonal surrogates for a
  CG test space, and for a DG one the exact sparse inverse of its
  block-diagonal mass matrix and the full weighted masses, which makes it
  the system matrix itself, so that its factored solve is the solution;
* a direct scheme using the cellwise exact Hessian with a mandatory
  gradient-jump penalty, assembled as an ordinary sparse matrix.

Both replace the rows and columns of boundary dofs by the identity
(`_eliminate_dirichlet`).

The preconditioner, like the CG mass matrix and the direct scheme's matrix,
is factored by `hessian._factor`: a symmetric-mode sparse LU with
minimum-degree ordering on A^T + A, which fits its symmetric pattern.
Every volume integral here reads one coefficient sample per mesh
(`_coefficient_sample`): A, gamma and f at the points of one rule, exact to
degree 2p + 2, on which the Cordes check also runs.
"""

import inspect
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hessian import _I, _J, _WEIGHTS, _factor, _stored, _symmetric, build_hessian_operator
from .space import (
    _compact,
    _snap_round_off,
    _sym,
    boundary_dofs,
    build_space,
    facet_quadrature,
    normal_jumps,
    physical_points,
    quadrature,
    scatter,
)

__all__ = [
    "ProblemData",
    "CordesInfo",
    "CordesViolated",
    "make_problem",
    "cordes_analyze",
    "assemble_B",
    "assemble_stabilization",
    "assemble_load",
    "SystemOperator",
    "build_system",
    "assemble_rhs",
    "build_preconditioner",
    "assemble_nsz",
]


# ----------------------------------------------------------------------
# problem catalog


@dataclass
class ProblemData:
    """Coefficients, forcing and (optionally) the manufactured solution.

    All fields are vectorized callables over point arrays of shape (n, 2):
    A returns (n, 2, 2), f returns (n,), exact_* return (n,), (n, 2),
    (n, 2, 2) respectively.  The three exact_* fields are None for problems
    without a known solution; giving one or two of them raises ValueError.
    """

    name: str
    bounds: tuple
    A: object
    f: object
    exact_u: object = None
    exact_grad: object = None
    exact_hess: object = None
    initial_n: int = 4

    def __post_init__(self):
        missing = [n for n in ("exact_u", "exact_grad", "exact_hess") if getattr(self, n) is None]
        if 0 < len(missing) < 3:
            raise ValueError("problem %r has a partial exact solution: %s missing"
                             % (self.name, ", ".join(missing)))

    @property
    def has_exact(self):
        return self.exact_u is not None


def _const_matrix(M):
    M = np.asarray(M, dtype=np.float64)

    def A(x):
        return np.broadcast_to(M, x.shape[:-1] + (2, 2)).copy()

    return A


def _product(g, dg, ddg):
    """The ProblemData fields exact_u, exact_grad and exact_hess of
    u = g(x) g(y); dg and ddg are the first and second derivatives of the 1-D
    profile g."""

    def u(x):
        return g(x[..., 0]) * g(x[..., 1])

    def grad(x):
        X, Y = x[..., 0], x[..., 1]
        return np.stack([dg(X) * g(Y), g(X) * dg(Y)], axis=-1)

    def hess(x):
        X, Y = x[..., 0], x[..., 1]
        return _sym(ddg(X) * g(Y), dg(X) * dg(Y), g(X) * ddg(Y))

    return dict(exact_u=u, exact_grad=grad, exact_hess=hess)


def _problem_exp1(kappa=0.5):
    """Smooth solution u = g(x) g(y), g(t) = sin(2 pi t), with the constant
    anisotropic A = [[1, k], [k, 1]] on (0,1)^2."""
    kappa = float(kappa)
    tp = 2.0 * np.pi

    def f(x):
        s0, c0 = np.sin(tp * x[..., 0]), np.cos(tp * x[..., 0])
        s1, c1 = np.sin(tp * x[..., 1]), np.cos(tp * x[..., 1])
        return -2.0 * tp * tp * s0 * s1 + 2.0 * kappa * tp * tp * c0 * c1

    return ProblemData(
        name="exp1",
        bounds=(0.0, 1.0, 0.0, 1.0),
        A=_const_matrix([[1.0, kappa], [kappa, 1.0]]),
        f=f,
        initial_n=4,
        **_product(lambda t: np.sin(tp * t), lambda t: tp * np.cos(tp * t),
                   lambda t: -tp * tp * np.sin(tp * t)),
    )


def _problem_exp2(alpha=1.5):
    """Poisson problem with the corner-singular solution
    u = r^alpha sin(2 phi) (1 - x)(1 - y) = 2 x y r^(alpha-2) (1 - x)(1 - y)
    on (0,1)^2; the Hessian blows up like r^(alpha-2) at the origin, which
    is square-integrable only for alpha > 1, so smaller alpha raise ValueError.
    """
    a = float(alpha)
    if not (1.0 < a < np.inf):
        raise ValueError("exp2 needs a finite alpha > 1 for u in H2, got %r" % alpha)

    def _w_parts(x):
        X, Y = x[..., 0], x[..., 1]
        r2 = X * X + Y * Y
        r2s = np.where(r2 > 0.0, r2, 1.0)
        return X, Y, r2, r2s

    def u(x):
        X, Y, r2, r2s = _w_parts(x)
        g = (1.0 - X) * (1.0 - Y)
        val = 2.0 * X * Y * r2s ** ((a - 2.0) / 2.0) * g
        return np.where(r2 > 0.0, val, 0.0)

    def grad(x):
        X, Y, r2, r2s = _w_parts(x)
        g = (1.0 - X) * (1.0 - Y)
        w = 2.0 * X * Y * r2s ** ((a - 2.0) / 2.0)
        r4 = r2s ** ((a - 4.0) / 2.0)
        wx = 2.0 * Y * r4 * (Y * Y + (a - 1.0) * X * X)
        wy = 2.0 * X * r4 * (X * X + (a - 1.0) * Y * Y)
        ux = wx * g - w * (1.0 - Y)
        uy = wy * g - w * (1.0 - X)
        out = np.stack([ux, uy], axis=-1)
        return np.where((r2 > 0.0)[..., None], out, 0.0)

    def _hess_parts(x, mixed):
        """r^2, u_xx, u_yy and, when `mixed`, u_xy off the origin."""
        X, Y, r2, r2s = _w_parts(x)
        g = (1.0 - X) * (1.0 - Y)
        r4 = r2s ** ((a - 4.0) / 2.0)
        r6 = r2s ** ((a - 6.0) / 2.0)
        px = Y * Y + (a - 1.0) * X * X
        py = X * X + (a - 1.0) * Y * Y
        wx = 2.0 * Y * r4 * px
        wy = 2.0 * X * r4 * py
        wxx = 2.0 * X * Y * r6 * ((a - 4.0) * px + 2.0 * (a - 1.0) * r2)
        wyy = 2.0 * X * Y * r6 * ((a - 4.0) * py + 2.0 * (a - 1.0) * r2)
        parts = (r2, wxx * g - 2.0 * wx * (1.0 - Y), wyy * g - 2.0 * wy * (1.0 - X))
        if not mixed:
            return parts
        w = 2.0 * X * Y * r2s ** ((a - 2.0) / 2.0)
        wxy = 2.0 * r6 * (r2 * px + (a - 4.0) * Y * Y * px + 2.0 * Y * Y * r2)
        return parts + (wxy * g - wx * (1.0 - X) - wy * (1.0 - Y) + w,)

    def hess(x):
        r2, uxx, uyy, uxy = _hess_parts(x, mixed=True)
        return np.where((r2 > 0.0)[..., None, None], _sym(uxx, uxy, uyy), 0.0)

    def f(x):
        r2, uxx, uyy = _hess_parts(x, mixed=False)
        return np.where(r2 > 0.0, uxx + uyy, 0.0)

    return ProblemData(
        name="exp2",
        bounds=(0.0, 1.0, 0.0, 1.0),
        A=_const_matrix(np.eye(2)),
        f=f,
        exact_u=u,
        exact_grad=grad,
        exact_hess=hess,
        initial_n=4,
    )


def _phi(t):
    return t * (1.0 - np.exp(1.0 - np.abs(t)))


def _phi_p(t):
    return 1.0 - np.exp(1.0 - np.abs(t)) * (1.0 - np.abs(t))


def _phi_pp(t):
    return np.sign(t) * np.exp(1.0 - np.abs(t)) * (2.0 - np.abs(t))


def _problem_exp3():
    """Discontinuous A = [[2, sgn(x y)], [sgn(x y), 2]] on (-1,1)^2 with the
    exact solution u = phi(x) phi(y), phi(t) = t (1 - e^(1-|t|)).
    The mixed second derivative of u and the off-diagonal of A change sign
    together across the axes, so f = A : D2(u) stays smooth off the axes.
    """

    def A(x):
        return _sym(2.0, np.sign(x[..., 0] * x[..., 1]), 2.0)

    def f(x):
        X, Y = x[..., 0], x[..., 1]
        s = np.sign(X * Y)
        return (
            2.0 * _phi_pp(X) * _phi(Y)
            + 2.0 * s * _phi_p(X) * _phi_p(Y)
            + 2.0 * _phi(X) * _phi_pp(Y)
        )

    return ProblemData(
        name="exp3",
        bounds=(-1.0, 1.0, -1.0, 1.0),
        A=A,
        f=f,
        initial_n=5,
        **_product(_phi, _phi_p, _phi_pp),
    )


def _problem_exp4():
    """Strongly anisotropic A with a discontinuity along y = x^3; f = -1.
    No exact solution is known; runs report the estimator only.
    """

    def A(x):
        X = x[..., 0]
        return _sym(0.02, 0.01, 1.0 + (X * X * X - x[..., 1] > 0.0))

    def f(x):
        return np.full(x.shape[:-1], -1.0)

    return ProblemData(
        name="exp4",
        bounds=(-1.0, 1.0, -1.0, 1.0),
        A=A,
        f=f,
        initial_n=8,
    )


def _problem_poly():
    """Poisson problem whose solution u = g(x) g(y), g(t) = t (1 - t), lies in
    P4 of V_h."""

    def f(x):
        X, Y = x[..., 0], x[..., 1]
        return -2.0 * Y * (1.0 - Y) - 2.0 * X * (1.0 - X)

    return ProblemData(
        name="poly",
        bounds=(0.0, 1.0, 0.0, 1.0),
        A=_const_matrix(np.eye(2)),
        f=f,
        initial_n=2,
        **_product(lambda t: t * (1.0 - t), lambda t: 1.0 - 2.0 * t,
                   lambda t: np.full_like(t, -2.0)),
    )


_CATALOG = {
    "exp1": _problem_exp1,
    "exp2": _problem_exp2,
    "exp3": _problem_exp3,
    "exp4": _problem_exp4,
    "poly": _problem_poly,
}


def make_problem(name, **params):
    """Instantiate a catalog problem: exp1(kappa), exp2(alpha), exp3, exp4, poly."""
    if name not in _CATALOG:
        raise KeyError("unknown problem %r; available: %s" % (name, sorted(_CATALOG)))
    build = _CATALOG[name]
    unknown = sorted(set(params) - set(inspect.signature(build).parameters))
    if unknown:
        raise ValueError("problem %r has no parameter %s" % (name, ", ".join(unknown)))
    return build(**params)


# ----------------------------------------------------------------------
# Cordes analysis


class CordesViolated(Exception):
    """The coefficient fails ||A||_F^2/tr(A)^2 < 1 at some sampled point."""

    def __init__(self, point, ratio):
        self.point = np.array(point)
        self.ratio = float(ratio)
        super().__init__(
            "Cordes condition violated at %s: ||A||_F^2/tr(A)^2 = %g >= 1"
            % (self.point, self.ratio)
        )

    def __reduce__(self):
        return (CordesViolated, (self.point, self.ratio))


@dataclass
class CordesInfo:
    """Largest admissible eps and the rescaling field gamma = tr(A)/||A||_F^2.

    eps is measured only at the `n_samples` points given to `cordes_analyze`,
    and `worst_point` is the sample where it is attained; both schemes pass
    the volume quadrature points of the mesh (`_coefficient_sample`), so a
    coefficient whose worst point lies between them reads a larger eps.
    """

    epsilon: float
    gamma: object
    min_eigenvalue: float = np.nan
    n_samples: int = 0
    worst_point: np.ndarray = None


def _require_finite(values, pts, name):
    """Raise ValueError naming the first point whose row of values is not finite."""
    finite = np.isfinite(values).reshape(len(pts), -1)
    if not finite.all():
        raise ValueError("%s is not finite at %s" % (name, pts[np.argmin(finite.all(axis=1))]))


def _gamma(A):
    """gamma = tr(A)/||A||_F^2 of coefficient values A (..., 2, 2)."""
    tr = A[..., 0, 0] + A[..., 1, 1]
    fro2 = np.einsum("...ij,...ij->...", A, A)
    return tr / fro2


def cordes_analyze(problem, sample_points, A=None):
    """Measure eps = min over samples of tr(A)^2/||A||_F^2 - 1, clamped to (0, 1].

    `A` holds the values of problem.A at the sample points when the caller
    has them already; otherwise they are evaluated here.  Only the sample
    points are checked, nothing between them.  Raises CordesViolated when
    the ratio ||A||_F^2/tr(A)^2 reaches 1 (the two-dimensional ellipticity
    threshold) at any sampled point, and ValueError when the sample is
    empty (before A is evaluated) or A is not finite, not symmetric or not
    positive definite.
    """
    pts = np.asarray(sample_points, dtype=np.float64).reshape(-1, 2)
    if not len(pts):
        raise ValueError("the Cordes sample is empty: there is no point to check")
    A = problem.A(pts) if A is None else A.reshape(-1, 2, 2)
    _require_finite(A, pts, "A")
    if np.abs(A - np.swapaxes(A, -1, -2)).max() > 1e-12:
        raise ValueError("coefficient matrix is not symmetric")
    a, b, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    lam = 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)   # smaller eigenvalue
    bad = int(np.argmin(lam))
    if lam[bad] <= 0.0:
        raise ValueError("A not positive definite at %s" % pts[bad])
    fro2 = np.einsum("...ij,...ij->...", A, A)
    ratio = fro2 / (a + d) ** 2
    worst = int(np.argmax(ratio))
    if ratio[worst] >= 1.0:
        raise CordesViolated(pts[worst], ratio[worst])
    eps = float(min(1.0, 1.0 / ratio[worst] - 1.0))
    return CordesInfo(epsilon=eps, gamma=lambda x: _gamma(problem.A(x)),
                      min_eigenvalue=float(lam[bad]), n_samples=len(pts),
                      worst_point=pts[worst].copy())


# ----------------------------------------------------------------------
# volume assembly helpers


@dataclass
class _CoefficientSample:
    """A, gamma and f at the physical points (cells, q, 2) of a mesh's volume
    rule, exact to degree 2p + 2, and the Cordes check on the same points."""

    rule: object
    A: np.ndarray
    gamma: np.ndarray
    f: np.ndarray
    cordes: CordesInfo


def _coefficient_sample(problem, space):
    """Sample the coefficients once for every volume assembly on the space's
    mesh and degree, at the 2p + 2 rule mapped onto every cell by one
    `physical_points` call; raises CordesViolated before anything else is
    evaluated, and ValueError for a non-finite A or f."""
    q = quadrature(2 * space.degree + 2)
    pts = physical_points(space.mesh, q.points)
    A = problem.A(pts)
    cordes = cordes_analyze(problem, pts, A)
    f = problem.f(pts)
    _require_finite(f, pts.reshape(-1, 2), "f")
    return _CoefficientSample(q, A, _gamma(A), f, cordes)


def _eliminate_dirichlet(K, free):
    """K as CSR with the rows and columns of fixed dofs replaced by the identity.

    A CSR copy of K has the entries of fixed rows and columns zeroed; adding
    the identity on the fixed dofs sets their diagonal, and the zeros are
    then dropped, leaving `data` and `indices` that own their memory.
    """
    K = K.tocsr(copy=True)
    K.data[~(np.repeat(free, np.diff(K.indptr)) & free[K.indices])] = 0.0
    return _compact(K + sp.diags(1.0 - free.astype(np.float64)))


def assemble_B(space_W, sample):
    """Weighted mass matrices (B_ij)_{kl} = int gamma A_ij psi_l psi_k; B_10 is B_01.

    One einsum contracts the three stored components of gamma A (see
    `hessian._I`, `hessian._J`) into a (3, cells, k, l) array of cell
    blocks, which is scattered as it is.  Each component's block on each
    cell drops its round-off entries, where the integral of psi_l psi_k
    vanishes; a vanishing A_01 stores nothing."""
    mesh = space_W.mesh
    q = sample.rule
    phi = space_W.ref.tabulate(q.points)                   # (q, nloc)
    coeff = sample.gamma[..., None] * sample.A[..., _I, _J] * mesh.cell_det[:, None, None]
    blk = np.einsum("q,cqm,qk,ql->mckl", q.weights, coeff, phi, phi, optimize=True)
    del coeff                                              # not held beside scatter's arrays
    return _symmetric(scatter(_snap_round_off(blk, (-2, -1)), space_W.dof_map, space_W.dof_map,
                              (space_W.n_dofs, space_W.n_dofs)))


def assemble_load(space_W, sample):
    """Load vector (f_W)_k = int gamma f psi_k."""
    mesh = space_W.mesh
    q = sample.rule
    phi = space_W.ref.tabulate(q.points)
    fq = sample.f * sample.gamma * mesh.cell_det[:, None]
    blk = np.einsum("q,cq,qk->ck", q.weights, fq, phi)
    return np.bincount(space_W.dof_map.ravel(), blk.ravel(), minlength=space_W.n_dofs)


def assemble_stabilization(space_V, eta1):
    """Facet penalty S: eta1 * sum_F h_F^-1 int [du/dn][dv/dn], interior
    facets only."""
    if not 0.0 <= eta1 < np.inf:
        raise ValueError("eta1 must be finite and >= 0")
    n = space_V.n_dofs
    int_f = space_V.mesh.interior_facets()
    if eta1 == 0 or len(int_f) == 0:
        return sp.csr_matrix((n, n))
    t, wt = facet_quadrature(2 * space_V.degree + 2)
    dofs, jump = normal_jumps(space_V, int_f, t)
    # int_F = h_F sum_t w_t, so h_F^-1 int_F is sum_t w_t
    blk = eta1 * np.einsum("t,ftk,ftl->fkl", wt, jump, jump, optimize=True)
    return scatter(blk, dofs, dofs, (n, n))


# ----------------------------------------------------------------------
# the discrete system


@dataclass
class SystemOperator:
    """Matrix-free action of the recovery scheme's system matrix.

    apply() computes (sum_i C_ii)^T M^-1 (sum_ij B_ij M^-1 C_ij u) + S u
    with boundary rows acting as the identity; this costs five mass solves.
    """

    hessian_op: object
    B: list
    S: sp.csr_matrix
    f_W: np.ndarray
    free_mask: np.ndarray
    eta1: float
    cordes: CordesInfo

    @property
    def space_V(self):
        return self.hessian_op.space_V

    @property
    def n_dofs(self):
        return self.space_V.n_dofs

    def apply(self, u):
        """One matrix-free application; boundary rows return the input unchanged."""
        hop = self.hessian_op
        u = np.asarray(u, dtype=np.float64)
        ui = np.where(self.free_mask, u, 0.0)
        g = np.zeros(hop.space_W.n_dofs)
        for i in range(2):
            for j in range(2):
                h_ij = hop.mass_solve(hop.C[i][j] @ ui)
                g += self.B[i][j] @ h_ij
        y = hop.C_trace.T @ hop.mass_solve(g) + self.S @ ui
        return np.where(self.free_mask, y, u)


def build_system(problem, mesh, p, mode="CG", eta1=None):
    """Assemble everything the recovery scheme needs on a given mesh.

    The gradient-jump penalty eta1 defaults by the measured Cordes eps:
    well-conditioned coefficients (eps >= 0.5) run penalty-free, otherwise
    eta1 = 1.
    """
    space_V = build_space(mesh, p, "CG")
    hop = build_hessian_operator(space_V, mode)
    # W has V's mesh and degree, so one sample serves both spaces
    sample = _coefficient_sample(problem, space_V)
    if eta1 is None:
        eta1 = 0.0 if sample.cordes.epsilon >= 0.5 else 1.0
    B = assemble_B(hop.space_W, sample)
    S = assemble_stabilization(space_V, eta1)
    f_W = assemble_load(hop.space_W, sample)
    free = np.ones(space_V.n_dofs, dtype=bool)
    free[boundary_dofs(space_V)] = False
    return SystemOperator(
        hessian_op=hop,
        B=B,
        S=S,
        f_W=f_W,
        free_mask=free,
        eta1=float(eta1),
        cordes=sample.cordes,
    )


def assemble_rhs(op):
    """Right-hand side f_V = (sum_i C_ii)^T M^-1 f_W with boundary entries zero."""
    hop = op.hessian_op
    f_V = hop.C_trace.T @ hop.mass_solve(op.f_W)
    return np.where(op.free_mask, f_V, 0.0)


@dataclass
class Preconditioner:
    """An assembled sparse matrix and its factor; `solve` applies the inverse."""

    matrix: sp.csr_matrix
    lu: object

    def solve(self, r):
        return self.lu.solve(np.asarray(r, dtype=np.float64))


def build_preconditioner(op):
    """The preconditioner P, assembled and factored.

    P = C_tr^T (W^-1 (sum_m w_m B'_m W^-1 C_m)) + S over the three stored
    components m of `hessian._I`, `hessian._J`, weighted w_m = 1, 2, 1 as
    B_10 = B_01 and C_10 = C_01, with Dirichlet rows and columns replaced
    by the identity; C_tr = C_00 + C_11.  The inner sum is one product of
    the row of w_m B'_m W^-1 with the column of C_m.  The test space picks
    only W^-1 and B'_m: a CG test space takes the surrogate diag(M)^-1 and
    diag(B_m); a DG test space takes the exact block-diagonal M^-1 of
    `_CellwiseLU.inverse` and B_m itself, so P is the system matrix and its
    solve is the solution.
    """
    hop = op.hessian_op
    if hop.space_W.continuity == "DG":
        w_inv, B = hop.M_lu.inverse, _stored(op.B)
    else:
        w_inv = sp.diags(1.0 / hop.M_W.diagonal())
        B = [sp.diags(b.diagonal()) for b in _stored(op.B)]
    inner = (sp.hstack([(w * b) @ w_inv for w, b in zip(_WEIGHTS, B)], format="csr")
             @ sp.vstack(_stored(hop.C), format="csr"))
    K = hop.C_trace.T.tocsr() @ (w_inv @ inner)
    P = _eliminate_dirichlet(K + op.S, op.free_mask)
    return Preconditioner(matrix=P, lu=_factor(P))


# ----------------------------------------------------------------------
# cellwise-Hessian direct scheme


def assemble_nsz(space_V, sample, eta1):
    """Sparse matrix and rhs of the cellwise-exact-Hessian scheme.

    a(u, v) = int gamma A : D2u tr(D2v) + eta1 sum_F h_F^-1 int [du/dn][dv/dn],
    rhs(v) = int gamma f tr(D2v).  The gradient-jump penalty is mandatory
    (the form is not coercive without it).  At degree 1 the cellwise
    Hessians vanish, so the matrix is the penalty alone and the rhs is zero;
    the command line refuses that degree (`bench._MIN_DEGREE`).
    As D2(phi) = Jinv^T H_ref Jinv for the reference Hessian H_ref,
    X : D2(phi) = (Jinv X Jinv^T) : H_ref: the geometry is contracted with
    X = gamma A at each point and with X = I (the trace) on each cell, then
    with H_ref over its three stored components (`hessian._I`, `_J`,
    `_WEIGHTS`), as `hessian.assemble_C` maps its gradients; no physical
    Hessian is formed.  The volume block is one product of the weighted
    gamma A : D2(phi_l) with tr D2(phi_k), and the rhs reuses tr D2(phi_k).
    """
    if not eta1 > 0:
        raise ValueError("the direct scheme requires eta1 > 0")
    mesh = space_V.mesh
    q = sample.rule
    wg = q.weights[None, :] * mesh.cell_det[:, None] * sample.gamma   # w det gamma
    H_ref = space_V.ref.tabulate_hess(q.points)[..., _I, _J] * _WEIGHTS   # (q, n, 3)
    rows, cols = mesh.cell_inv_jacobians[:, _I], mesh.cell_inv_jacobians[:, _J]  # (cells, 3, 2)
    gA = np.einsum("cq,cmi,cqij,cmj->cqm", wg, rows, sample.A, cols, optimize=True)
    AH = np.einsum("cqm,qlm->cql", gA, H_ref)              # w det gamma A : D2(phi_l)
    trH = np.einsum("cmi,cmi,qkm->cqk", rows, cols, H_ref, optimize=True)  # tr D2(phi_k)
    blk = np.einsum("cql,cqk->ckl", AH, trH, optimize=True)

    dm = space_V.dof_map
    n = space_V.n_dofs
    K = scatter(blk, dm, dm, (n, n)) + assemble_stabilization(space_V, eta1)

    rhs_blk = np.einsum("cq,cqk->ck", sample.f * wg, trH)
    rhs = np.bincount(dm.ravel(), rhs_blk.ravel(), minlength=n)

    free = np.ones(n, dtype=bool)
    free[boundary_dofs(space_V)] = False
    return _eliminate_dirichlet(K, free), np.where(free, rhs, 0.0)
