import collections
import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nondivfem import (
    CordesViolated,
    assemble_nsz,
    assemble_rhs,
    bisect,
    boundary_dofs,
    build_preconditioner,
    build_rect_mesh,
    build_space,
    build_system,
    cordes_analyze,
    interpolate,
    make_problem,
    recover_hessian,
    solve_problem,
)
import nondivfem.operator as nd_operator
from nondivfem.hessian import _factor, _stored, assemble_mass_W
from nondivfem.operator import (
    ProblemData,
    _coefficient_sample,
    _const_matrix,
    _eliminate_dirichlet,
    assemble_B,
    assemble_load,
    assemble_stabilization,
)
from nondivfem.space import facet_quadrature, quadrature


def _sample_points(problem, n=200, seed=0):
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = problem.bounds
    pts = rng.uniform(size=(n, 2))
    pts[:, 0] = x0 + (x1 - x0) * pts[:, 0]
    pts[:, 1] = y0 + (y1 - y0) * pts[:, 1]
    return pts


# ----------------------------------------------------------------------
# catalog


def test_make_problem_unknown_name():
    with pytest.raises(KeyError):
        make_problem("exp99")


@pytest.mark.parametrize("name, param", [("exp3", "kappa"), ("exp1", "alpha"), ("poly", "kappa")])
def test_make_problem_names_a_parameter_the_problem_lacks(name, param):
    with pytest.raises(ValueError, match=param):
        make_problem(name, **{param: 0.9})


def test_catalog_parameters_recorded():
    assert make_problem("exp1", kappa=0.9).params["kappa"] == 0.9
    assert make_problem("exp2", alpha=1.25).params["alpha"] == 1.25
    assert make_problem("exp4").has_exact is False
    assert make_problem("poly").has_exact is True


def test_exp1_forcing_value():
    # at (1/4, 1/4) the cos factors vanish and f = -8 pi^2
    p = make_problem("exp1", kappa=0.99)
    val = p.f(np.array([[0.25, 0.25]]))[0]
    assert np.isclose(val, -8.0 * np.pi**2, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, np.nan, np.inf])
def test_exp2_rejects_alpha_without_h2_solution(alpha):
    # the Hessian r^(alpha - 2) is square-integrable only for alpha > 1
    with pytest.raises(ValueError, match="alpha > 1"):
        make_problem("exp2", alpha=alpha)


def test_exp2_finite_at_origin():
    p = make_problem("exp2", alpha=1.25)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.all(p.exact_u(pts) == 0.0)
    assert np.all(np.isfinite(p.exact_grad(pts)))


def test_exp2_forcing_is_the_hessian_trace_bit_for_bit():
    p = make_problem("exp2", alpha=1.5)
    pts = np.concatenate([[[0.0, 0.0]], _sample_points(p, n=4096, seed=2)])
    H = p.exact_hess(pts)
    assert np.array_equal(p.f(pts), H[:, 0, 0] + H[:, 1, 1])
    assert p.f(pts)[0] == 0.0


def test_exp3_solution_vanishes_on_boundary():
    p = make_problem("exp3")
    t = np.linspace(-1, 1, 17)
    for edge in (
        np.stack([t, np.full_like(t, -1.0)], axis=1),
        np.stack([t, np.full_like(t, 1.0)], axis=1),
        np.stack([np.full_like(t, -1.0), t], axis=1),
        np.stack([np.full_like(t, 1.0), t], axis=1),
    ):
        assert np.abs(p.exact_u(edge)).max() < 1e-14


def test_exp4_coefficient_and_forcing():
    # A = [[0.02, 0.01], [0.01, 1]] above y = x^3 and [[.., ..], [.., 2]] below it
    p = make_problem("exp4")
    pts = _sample_points(p, n=500, seed=4)
    below = pts[:, 0] ** 3 > pts[:, 1]
    assert below.any() and (~below).any()
    A = p.A(pts)
    assert A.shape == (500, 2, 2)
    assert np.all(A[:, 0, 0] == 0.02)
    assert np.all(A[:, 0, 1] == 0.01) and np.all(A[:, 1, 0] == 0.01)
    assert np.array_equal(A[:, 1, 1], np.where(below, 2.0, 1.0))
    assert np.array_equal(p.f(pts), np.full(500, -1.0))


# ----------------------------------------------------------------------
# symbolic re-derivation: check grad, hess and f = A : D2(u) for the
# manufactured solutions against sympy, evaluated at random points


def _check_against_sympy(problem, u_sym, X, Y, A_sym, pts, tol=1e-8):
    gx = sympy.diff(u_sym, X)
    gy = sympy.diff(u_sym, Y)
    hxx = sympy.diff(gx, X)
    hxy = sympy.diff(gx, Y)
    hyy = sympy.diff(gy, Y)
    f_sym = (
        A_sym[0][0] * hxx + A_sym[0][1] * hxy + A_sym[1][0] * hxy + A_sym[1][1] * hyy
    )
    fns = {
        name: sympy.lambdify((X, Y), expr, "numpy")
        for name, expr in [
            ("u", u_sym), ("gx", gx), ("gy", gy),
            ("hxx", hxx), ("hxy", hxy), ("hyy", hyy), ("f", f_sym),
        ]
    }
    xs, ys = pts[:, 0], pts[:, 1]
    u = problem.exact_u(pts)
    g = problem.exact_grad(pts)
    H = problem.exact_hess(pts)
    f = problem.f(pts)
    scale = 1.0 + np.abs(fns["f"](xs, ys)).max()
    assert np.abs(u - fns["u"](xs, ys)).max() < tol
    assert np.abs(g[:, 0] - fns["gx"](xs, ys)).max() < tol * scale
    assert np.abs(g[:, 1] - fns["gy"](xs, ys)).max() < tol * scale
    assert np.abs(H[:, 0, 0] - fns["hxx"](xs, ys)).max() < tol * scale
    assert np.abs(H[:, 0, 1] - fns["hxy"](xs, ys)).max() < tol * scale
    assert np.abs(H[:, 1, 1] - fns["hyy"](xs, ys)).max() < tol * scale
    assert np.abs(f - fns["f"](xs, ys)).max() < tol * scale


def test_exp1_derivatives_match_sympy():
    kappa = 0.7
    problem = make_problem("exp1", kappa=kappa)
    X, Y = sympy.symbols("x y", real=True)
    u = sympy.sin(2 * sympy.pi * X) * sympy.sin(2 * sympy.pi * Y)
    A = [[1, kappa], [kappa, 1]]
    _check_against_sympy(problem, u, X, Y, A, _sample_points(problem, seed=1))


@pytest.mark.parametrize("alpha", [1.25, 1.5])
def test_exp2_derivatives_match_sympy(alpha):
    problem = make_problem("exp2", alpha=alpha)
    X, Y = sympy.symbols("x y", positive=True)
    r = sympy.sqrt(X**2 + Y**2)
    u = 2 * X * Y * r ** (alpha - 2) * (1 - X) * (1 - Y)
    A = [[1, 0], [0, 1]]
    # keep away from the singular origin where lambdified floats lose digits
    pts = _sample_points(problem, seed=2)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.1]
    _check_against_sympy(problem, u, X, Y, A, pts, tol=1e-7)


def test_exp3_derivatives_match_sympy():
    problem = make_problem("exp3")
    X, Y = sympy.symbols("x y", real=True)

    def phi(t, sgn):
        return t * (1 - sympy.exp(1 - sgn * t))

    # quadrant x > 0, y > 0: |x| = x, |y| = y, sign(xy) = +1
    upp = phi(X, 1) * phi(Y, 1)
    pts = np.abs(_sample_points(problem, seed=3))
    pts = pts[(pts[:, 0] > 1e-3) & (pts[:, 1] > 1e-3)]
    _check_against_sympy(problem, upp, X, Y, [[2, 1], [1, 2]], pts)

    # quadrant x > 0, y < 0: |y| = -y, sign(xy) = -1
    upm = phi(X, 1) * phi(Y, -1)
    pts2 = pts.copy()
    pts2[:, 1] *= -1.0
    _check_against_sympy(problem, upm, X, Y, [[2, -1], [-1, 2]], pts2)


def test_poly_derivatives_match_sympy():
    problem = make_problem("poly")
    X, Y = sympy.symbols("x y", real=True)
    u = X * (1 - X) * Y * (1 - Y)
    _check_against_sympy(problem, u, X, Y, [[1, 0], [0, 1]],
                         _sample_points(problem, seed=5), tol=1e-13)


# ----------------------------------------------------------------------
# Cordes analysis


def test_cordes_identity():
    info = cordes_analyze(make_problem("poly"), _sample_points(make_problem("poly")))
    assert np.isclose(info.epsilon, 1.0)
    pts = np.array([[0.3, 0.4], [0.9, 0.1]])
    assert np.allclose(info.gamma(pts), 1.0)


def test_cordes_exp1():
    p = make_problem("exp1", kappa=0.5)
    info = cordes_analyze(p, _sample_points(p))
    # tr = 2, fro^2 = 2.5: eps = 4/2.5 - 1 = 0.6, gamma = 2/2.5 = 0.8
    assert np.isclose(info.epsilon, 0.6)
    assert np.allclose(info.gamma(np.array([[0.5, 0.5]])), 0.8)
    assert info.min_eigenvalue > 0.4


def test_cordes_constant_matrix():
    prob = ProblemData(
        name="c", bounds=(0, 1, 0, 1), A=_const_matrix([[2.0, 1.0], [1.0, 2.0]]),
        f=lambda x: np.zeros(x.shape[:-1]),
    )
    info = cordes_analyze(prob, np.array([[0.5, 0.5]]))
    # tr = 4, fro^2 = 10: eps = 16/10 - 1 = 0.6, gamma = 0.4
    assert np.isclose(info.epsilon, 0.6)
    assert np.isclose(info.gamma(np.array([[0.1, 0.2]]))[0], 0.4)


def _matrix_lookup(mats):
    # a coefficient whose value at sample (i, 0) is mats[i]
    return ProblemData(
        name="lookup", bounds=(0, len(mats), 0, 1),
        A=lambda x: mats[x[:, 0].astype(int)], f=lambda x: np.zeros(x.shape[:-1]),
    )


def test_cordes_min_eigenvalue_matches_eigvalsh():
    # the closed form (a + d)/2 - hypot((a - d)/2, b) against LAPACK, to
    # round-off of the largest eigenvalue, on SPD and indefinite samples
    rng = np.random.default_rng(0)
    n = 200
    theta = rng.uniform(0, np.pi, n)
    Q = np.stack([np.stack([np.cos(theta), -np.sin(theta)], -1),
                  np.stack([np.sin(theta), np.cos(theta)], -1)], -1)
    lam = 10.0 ** rng.uniform(-3, 3, (n, 2))
    lam[n // 2:, 0] *= -1.0                                # indefinite half
    mats = np.einsum("nij,nj,nkj->nik", Q, lam, Q)
    mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    pts = np.stack([np.arange(n), np.zeros(n)], -1).astype(np.float64)
    exact = np.linalg.eigvalsh(mats)
    prob = _matrix_lookup(mats)
    for k in range(n // 2):
        info = cordes_analyze(prob, pts[k:k + 1])
        assert abs(info.min_eigenvalue - exact[k, 0]) <= 1e-13 * np.abs(exact[k]).max()
    # the error names the sample of the smallest eigenvalue, as eigvalsh orders them
    worst = int(np.argmin(exact[:, 0]))
    with pytest.raises(ValueError, match=r"positive definite at \[%d\. +0\.\]" % worst):
        cordes_analyze(prob, pts)


def test_cordes_reports_samples_and_worst_point():
    # the anisotropy A = diag(1 + 3 exp(-|x - x0|^2), 1) peaks at x0, one of
    # the samples: tr = 5 and ||A||_F^2 = 17 there, so eps = 25/17 - 1
    x0 = np.array([0.3, 0.7])

    def A(x):
        M = np.zeros(x.shape[:-1] + (2, 2))
        M[..., 0, 0] = 1.0 + 3.0 * np.exp(-np.sum((x - x0) ** 2, axis=-1))
        M[..., 1, 1] = 1.0
        return M

    prob = ProblemData(name="peak", bounds=(0, 1, 0, 1), A=A, f=lambda x: np.zeros(x.shape[:-1]))
    pts = np.random.default_rng(1).uniform(size=(99, 2))
    pts[42] = x0
    info = cordes_analyze(prob, pts)
    assert info.n_samples == 99
    assert np.array_equal(info.worst_point, x0)
    assert np.isclose(info.epsilon, 25.0 / 17.0 - 1.0, rtol=1e-14)
    # values of A handed in give the same check without evaluating A again
    given = cordes_analyze(prob, pts, A(pts))
    assert (given.epsilon, given.min_eigenvalue) == (info.epsilon, info.min_eigenvalue)
    # both schemes sample at the volume quadrature points, 2p + 2 by default
    op = build_system(make_problem("exp1", kappa=0.5), build_rect_mesh(0, 1, 0, 1, 3, 3), 2)
    assert op.cordes.n_samples == 18 * len(quadrature(6).weights)


def test_cordes_eps_clamped_to_one():
    # A = 3I has tr^2/fro^2 - 1 = 1; scaling cannot push eps past 1
    prob = ProblemData(
        name="c", bounds=(0, 1, 0, 1), A=_const_matrix(3.0 * np.eye(2)),
        f=lambda x: np.zeros(x.shape[:-1]),
    )
    info = cordes_analyze(prob, np.array([[0.5, 0.5]]))
    assert info.epsilon == 1.0


def test_cordes_rejects_nonsymmetric():
    prob = ProblemData(
        name="c", bounds=(0, 1, 0, 1), A=_const_matrix([[1.0, 0.5], [0.2, 1.0]]),
        f=lambda x: np.zeros(x.shape[:-1]),
    )
    with pytest.raises(ValueError):
        cordes_analyze(prob, np.array([[0.5, 0.5]]))


def test_cordes_rejects_indefinite():
    prob = ProblemData(
        name="c", bounds=(0, 1, 0, 1), A=_const_matrix([[1.0, 0.0], [0.0, -1.0]]),
        f=lambda x: np.zeros(x.shape[:-1]),
    )
    with pytest.raises(ValueError):
        cordes_analyze(prob, np.array([[0.5, 0.5]]))


def test_cordes_rejects_degenerate():
    # rank-one coefficient: fails either the eigenvalue gate or the ratio gate
    prob = ProblemData(
        name="c", bounds=(0, 1, 0, 1), A=_const_matrix([[1.0, 1.0], [1.0, 1.0]]),
        f=lambda x: np.zeros(x.shape[:-1]),
    )
    with pytest.raises((ValueError, CordesViolated)):
        cordes_analyze(prob, np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cordes_rejects_non_finite_coefficient(value):
    # one bad point among finite ones is named; the eigenvalue and ratio
    # tests would let a NaN through
    pts = np.array([[0.1, 0.1], [0.5, 0.7], [0.9, 0.2]])

    def A(x):
        M = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        M[np.isclose(x[..., 0], 0.5), 0, 1] = value
        M[np.isclose(x[..., 0], 0.5), 1, 0] = value
        return M

    problem = ProblemData(name="t", bounds=(0, 1, 0, 1), A=A, f=lambda x: x[..., 0])
    with pytest.raises(ValueError, match=r"A is not finite at \[0.5 0.7\]"):
        cordes_analyze(problem, pts)
    with pytest.raises(ValueError, match="A is not finite"):
        cordes_analyze(make_problem("exp1", kappa=value), pts)


def test_coefficient_sample_rejects_non_finite_forcing():
    V = build_space(build_rect_mesh(0, 1, 0, 1, 2, 2), 2, "CG")
    problem = ProblemData(name="t", bounds=(0, 1, 0, 1), A=_const_matrix(np.eye(2)),
                          f=lambda x: np.where(x[..., 0] > 0.5, np.nan, 1.0))
    with pytest.raises(ValueError, match="f is not finite"):
        _coefficient_sample(problem, V)


def test_cordes_violation_attributes():
    err = CordesViolated(point=[0.25, 0.5], ratio=1.25)
    assert err.ratio == 1.25
    assert np.allclose(err.point, [0.25, 0.5])
    assert "1.25" in str(err)


def test_cordes_violation_survives_pickling():
    err = CordesViolated((0.25, 0.5), 1.5)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is CordesViolated
    assert np.array_equal(back.point, err.point)
    assert back.ratio == err.ratio
    assert str(back) == str(err)


def test_cordes_points_do_not_pin_the_sample():
    # worst_point and the exception's point are copies, not views that keep
    # the whole (cells * q, 2) sample alive
    problem = make_problem("exp3")
    pts = _sample_points(problem)
    info = cordes_analyze(problem, pts)
    assert not np.shares_memory(info.worst_point, pts)
    # an asymmetry below the 1e-12 symmetry gate pushes the computed ratio to 1
    skew = ProblemData(
        name="c", bounds=(0, 1, 0, 1),
        A=_const_matrix([[1.0, 1.0 - 1e-14], [1.0 - 1e-14 + 5e-13, 1.0]]),
        f=lambda x: np.zeros(x.shape[:-1]),
    )
    with pytest.raises(CordesViolated) as caught:
        cordes_analyze(skew, pts)
    assert not np.shares_memory(caught.value.point, pts)


@pytest.mark.parametrize("name,kwargs", [
    ("exp1", {"kappa": 0.9}),
    ("exp1", {"kappa": 0.999}),
    ("exp3", {}),
    ("exp4", {}),
])
def test_gamma_rescaling_contracts_to_identity(name, kwargs):
    # the defining property of the rescaling: ||gamma A - I||_F^2 <= 1 - eps
    problem = make_problem(name, **kwargs)
    pts = _sample_points(problem, n=500, seed=17)
    info = cordes_analyze(problem, pts)
    A = problem.A(pts)
    g = info.gamma(pts)
    dev = g[:, None, None] * A - np.eye(2)
    fro = np.sqrt(np.einsum("nij,nij->n", dev, dev))
    assert fro.max() <= np.sqrt(1.0 - info.epsilon) + 1e-12


# ----------------------------------------------------------------------
# weighted mass matrices and load vector


def test_B_identity_coefficient_gives_mass():
    problem = make_problem("poly")
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    W = build_space(mesh, 2, "DG")
    B = assemble_B(W, _coefficient_sample(problem, W))
    M = assemble_mass_W(W)
    assert abs(B[0][0] - M).max() < 1e-13
    assert abs(B[1][1] - M).max() < 1e-13
    assert abs(B[0][1]).max() < 1e-15
    assert abs(B[1][0]).max() < 1e-15


def test_B_scaled_identity_gives_mass():
    # A = 2I has gamma = 1/2, so gamma A = I and B_ii is again the mass matrix
    prob = ProblemData(
        name="c", bounds=(0, 1, 0, 1), A=_const_matrix(2.0 * np.eye(2)),
        f=lambda x: np.zeros(x.shape[:-1]),
    )
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    W = build_space(mesh, 2, "DG")
    B = assemble_B(W, _coefficient_sample(prob, W))
    M = assemble_mass_W(W)
    assert abs(B[0][0] - M).max() < 1e-13


def test_B_offdiagonal_total_weight():
    # sum_kl (B_01)_kl = int gamma A_01 by partition of unity
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    W = build_space(mesh, 1, "CG")
    B = assemble_B(W, _coefficient_sample(problem, W))
    one = np.ones(W.n_dofs)
    assert np.isclose(one @ (B[0][1] @ one), 0.8 * 0.5 * 1.0, atol=1e-13)


@pytest.mark.parametrize("continuity", ["CG", "DG"])
@pytest.mark.parametrize("name", ["exp1", "exp2", "exp3", "exp4"])
def test_B_converts_its_symmetric_pair_once(name, continuity):
    # B_10 is B_01, and all four blocks equal bit for bit those of the
    # four-block einsum, each component's block on each cell with its entries
    # below 1e-12 of that block's largest set to zero, and each converted
    # from COO on its own; what was dropped is round-off of the block
    problem = make_problem(name)
    rng = np.random.default_rng(7)
    mesh = build_rect_mesh(*problem.bounds, 3, 3)
    for _ in range(2):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=mesh.n_cells // 3, replace=False))
    W = build_space(mesh, 2, continuity)
    sample = _coefficient_sample(problem, W)
    B = assemble_B(W, sample)
    assert B[1][0] is B[0][1]

    phi = W.ref.tabulate(sample.rule.points)
    coeff = sample.gamma[..., None, None] * sample.A * mesh.cell_det[:, None, None, None]
    blk = np.einsum("q,cqij,qk,ql->ijckl", sample.rule.weights, coeff, phi, phi, optimize=True)
    n_loc = W.ref.n_basis
    rows = np.repeat(W.dof_map, n_loc, axis=1).ravel()
    cols = np.tile(W.dof_map, (1, n_loc)).ravel()

    def assembled(local):
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=B[0][0].shape).tocsr()

    for i in range(2):
        for j in range(2):
            raw = blk[i, j]
            block_max = np.abs(raw).max(axis=(1, 2), keepdims=True)
            kept = np.where(np.abs(raw) < 1e-12 * block_max, 0.0, raw)
            ref = assembled(kept)
            ref.eliminate_zeros()
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(B[i][j], attr), getattr(ref, attr))
            # entry by entry, the raw sum moves by at most 1e-12 of the
            # largest entry of each cell block summed into it
            bound = assembled(np.broadcast_to(1e-12 * block_max, raw.shape)).toarray()
            assert np.all(np.abs(assembled(raw) - B[i][j]).toarray() <= bound)


@pytest.mark.parametrize("name, continuity", [("exp1", "CG"), ("exp3", "DG")])
def test_B_peaks_at_most_4_times_what_it_keeps(name, continuity):
    # one einsum over the three stored components, scattered as it is: no
    # fourth component, no copy of three, and the coefficient array freed
    # before scatter
    problem = make_problem(name)
    W = build_space(build_rect_mesh(*problem.bounds, 32, 32), 2, continuity)
    sample = _coefficient_sample(problem, W)
    assemble_B(W, sample)                                  # warm-up: cached rules and tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        B = assemble_B(W, sample)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(b.data.nbytes + b.indices.nbytes + b.indptr.nbytes for b in _stored(B))
    assert peak <= 4 * kept


@pytest.mark.parametrize("mode", ["CG", "DG", "nsz"])
def test_system_matrices_own_exactly_sized_arrays(mode):
    # pruning after the COO-to-CSR conversion, after dropping entries or in
    # the Dirichlet elimination must not leave data and indices as views of
    # longer buffers
    problem = make_problem("exp1", kappa=0.9)
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    if mode == "nsz":
        V = build_space(mesh, 2, "CG")
        mats = [assemble_nsz(V, _coefficient_sample(problem, V), 1.0)[0]]
    else:
        op = build_system(problem, mesh, 2, mode, eta1=1.0)
        hop = op.hessian_op
        mats = ([hop.M_W, hop.C_trace, op.S, build_preconditioner(op).matrix]
                + op.B[0] + op.B[1] + hop.C[0] + hop.C[1])
    for A in mats:
        assert A.nnz > 0
        assert A.data.base is None and A.indices.base is None
        assert A.data.size == A.indices.size == A.nnz


@pytest.mark.parametrize("mode", ["CG", "DG"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["exp1", "exp3", "exp4"])
def test_system_matrices_store_no_round_off_entries(name, p, mode):
    # every matrix stores only what the exact integrals have: no explicit
    # zero anywhere, and no mass entry at round-off level (a quarter of the
    # entries at p = 2 when the reference mass kept its vanishing ones)
    problem = make_problem(name)
    rng = np.random.default_rng(p)
    mesh = build_rect_mesh(*problem.bounds, 4, 4)
    for _ in range(2):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=mesh.n_cells // 3, replace=False))
    op = build_system(problem, mesh, p, mode, eta1=1.0)
    hop = op.hessian_op
    for A in [hop.M_W, hop.C_trace, op.S] + op.B[0] + op.B[1] + hop.C[0] + hop.C[1]:
        assert A.nnz > 0 and np.all(A.data != 0.0)
    M = np.abs(hop.M_W.data)
    assert M.min() >= 1e-12 * M.max()


def test_load_vector():
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    W = build_space(mesh, 2, "DG")

    def gamma_one(problem):
        sample = _coefficient_sample(problem, W)
        return dataclasses.replace(sample, gamma=np.ones_like(sample.gamma))

    zero = ProblemData(name="z", bounds=(0, 1, 0, 1), A=_const_matrix(np.eye(2)),
                       f=lambda x: np.zeros(x.shape[:-1]))
    assert np.all(assemble_load(W, gamma_one(zero)) == 0.0)

    one = ProblemData(name="o", bounds=(0, 1, 0, 1), A=_const_matrix(np.eye(2)),
                      f=lambda x: np.ones(x.shape[:-1]))
    # sum_k int psi_k = |Omega| by partition of unity
    assert np.isclose(assemble_load(W, gamma_one(one)).sum(), 1.0, atol=1e-13)


# ----------------------------------------------------------------------
# facet penalty


def test_stabilization_zero_weights():
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 2, "CG")
    S = assemble_stabilization(V, 0.0)
    assert S.nnz == 0


def test_stabilization_rejects_negative_weights():
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 2, "CG")
    with pytest.raises(ValueError):
        assemble_stabilization(V, -1.0)


@pytest.mark.parametrize("eta1", [np.nan, np.inf])
def test_stabilization_rejects_non_finite_weights(eta1):
    V = build_space(build_rect_mesh(0, 1, 0, 1, 2, 2), 2, "CG")
    with pytest.raises(ValueError, match="finite"):
        assemble_stabilization(V, eta1)


def test_stabilization_vanishes_on_smooth_functions():
    # a single global cubic has a continuous gradient, so the penalty must
    # annihilate its interpolant (p = 3 reproduces it)
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 3)
    V = build_space(mesh, 3, "CG")
    u = interpolate(V, lambda x: x[:, 0] ** 3 - x[:, 1] ** 2 * x[:, 0] + x[:, 1])
    S = assemble_stabilization(V, 1.0)
    val = u.coeffs @ (S @ u.coeffs)
    assert abs(val) < 1e-9


def test_stabilization_symmetric_psd():
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 2, "CG")
    S = assemble_stabilization(V, 1.0)
    assert abs(S - S.T).max() < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(V.n_dofs)
        assert v @ (S @ v) >= -1e-12


def _stabilization_oracle(V, eta1):
    """Dense facet penalty summed facet by facet and point by point, with
    physical gradients built from the reference element."""
    mesh = V.mesh
    ref = V.ref
    t, wt = facet_quadrature(2 * V.degree + 2)
    S = np.zeros((V.n_dofs, V.n_dofs))
    for f in mesh.interior_facets():
        va, vb = mesh.vertices[mesh.facets[f]]
        h = np.linalg.norm(vb - va)
        n = mesh.facet_normals[f]
        for tk, wk in zip(t, wt):
            x = va + tk * (vb - va)
            dofs, dn = [], []
            for side, c in zip((1.0, -1.0), mesh.facet_cells[f]):
                Jinv = mesh.cell_inv_jacobians[c]
                xr = (Jinv @ (x - mesh.vertices[mesh.cells[c, 0]]))[None]
                g = ref.tabulate_grad(xr)[0] @ Jinv                 # (nloc, 2)
                dofs.append(V.dof_map[c])
                dn.append(side * g @ n)
            d = np.concatenate(dofs)
            jd = np.concatenate(dn)
            blk = wk * h * (eta1 / h * np.outer(jd, jd))
            np.add.at(S, np.ix_(d, d), blk)
    return S


@pytest.mark.parametrize("p", [2, 3])
def test_stabilization_matches_pointwise_oracle(p):
    rng = np.random.default_rng(p)
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    mesh = bisect(mesh, rng.choice(mesh.n_cells, size=3, replace=False))
    V = build_space(mesh, p, "CG")
    oracle = _stabilization_oracle(V, 1.0)
    S = assemble_stabilization(V, 1.0).toarray()
    assert np.abs(S - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_stabilization_detects_kinks():
    # a hat-like function with a gradient jump is penalized
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 2, "CG")
    u = interpolate(V, lambda x: np.minimum(x[:, 0], 1.0 - x[:, 0]))
    S = assemble_stabilization(V, 1.0)
    assert u.coeffs @ (S @ u.coeffs) > 1e-3


# ----------------------------------------------------------------------
# the assembled system


def test_B_stores_no_zeros_of_a_vanishing_coefficient_block():
    # exp2 has A_01 = 0: the mixed blocks are empty, and the apply equals bit
    # for bit the one with those blocks zero-filled on the full pattern
    problem = make_problem("exp2")
    x0, x1, y0, y1 = problem.bounds
    op = build_system(problem, build_rect_mesh(x0, x1, y0, y1, 4, 4), p=2)
    assert op.B[0][1].nnz == 0 and op.B[1][0].nnz == 0
    B00 = op.B[0][0]
    zeros = sp.csr_matrix((np.zeros_like(B00.data), B00.indices, B00.indptr), shape=B00.shape)
    filled = dataclasses.replace(op, B=[[op.B[0][0], zeros], [zeros, op.B[1][1]]])
    u = np.random.default_rng(5).standard_normal(op.n_dofs)
    assert np.array_equal(op.apply(u), filled.apply(u))


@pytest.mark.parametrize("scheme", ["CG", "DG", "nsz"])
def test_one_coefficient_sample_per_mesh(scheme, monkeypatch):
    # the Cordes check, B, the load and the nsz matrix share one sample: its
    # points are computed once, and A and f are evaluated once each
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    base = make_problem("exp3")
    problem = dataclasses.replace(base, A=counted("A", base.A), f=counted("f", base.f))
    monkeypatch.setattr(nd_operator, "physical_points",
                        counted("points", nd_operator.physical_points))
    mesh = build_rect_mesh(*problem.bounds, 4, 4)
    if scheme == "nsz":
        solve_problem(problem, mesh, 2, scheme="nsz")
    else:
        build_system(problem, mesh, 2, mode=scheme)
    assert calls["points"] == 1
    assert calls["f"] == 1
    assert calls["A"] == 1


def test_apply_zero_and_boundary_identity():
    problem = make_problem("exp1")
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    op = build_system(problem, mesh, p=2)
    assert np.all(op.apply(np.zeros(op.n_dofs)) == 0.0)
    k = int(np.flatnonzero(~op.free_mask)[0])
    e = np.zeros(op.n_dofs)
    e[k] = 1.0
    out = op.apply(e)
    assert out[k] == 1.0
    # a fixed dof does not leak into any other row
    assert np.abs(np.delete(out, k)).max() == 0.0


def test_system_identity_coefficient_is_spd():
    # gamma A = I makes the operator (C_tr)^T M^-1 C_tr + S: symmetric PSD
    problem = make_problem("poly")
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    op = build_system(problem, mesh, p=2, mode="DG", eta1=1.0)
    n = op.n_dofs
    K = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        K[:, k] = op.apply(e)
    free = op.free_mask
    Kff = K[np.ix_(free, free)]
    assert np.abs(Kff - Kff.T).max() < 1e-10
    w = np.linalg.eigvalsh(0.5 * (Kff + Kff.T))
    assert w.min() > 0.0


def test_apply_matches_dense_reassembly():
    # rebuild the matrix-free action with dense numpy linear algebra
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 1, 1)
    op = build_system(problem, mesh, p=2, mode="DG", eta1=1.0)
    hop = op.hessian_op
    M = assemble_mass_W(hop.space_W).toarray()
    Minv = np.linalg.inv(M)
    inner = sum(
        op.B[i][j].toarray() @ Minv @ hop.C[i][j].toarray()
        for i in range(2)
        for j in range(2)
    )
    Ct = hop.C_trace.toarray()
    K = Ct.T @ Minv @ inner + op.S.toarray()
    free = op.free_mask
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.standard_normal(op.n_dofs)
        expect = np.where(free, K @ np.where(free, u, 0.0), u)
        got = op.apply(u)
        assert np.abs(got - expect).max() < 1e-9


def test_rhs_linearity_and_boundary_zeros():
    problem = make_problem("exp1")
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 3)
    op = build_system(problem, mesh, p=2)
    b1 = assemble_rhs(op)
    b2 = assemble_rhs(dataclasses.replace(op, f_W=2.0 * op.f_W))
    assert np.abs(b2 - 2.0 * b1).max() < 1e-12 * max(1.0, np.abs(b1).max())
    assert np.all(b1[~op.free_mask] == 0.0)


def test_default_penalty_policy():
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    # eps = 1 for the Laplacian: no penalty
    op = build_system(make_problem("poly"), mesh, p=2)
    assert op.eta1 == 0.0 and op.S.nnz == 0
    # eps ~ 0.0095 for kappa = 0.999: penalty on
    op = build_system(make_problem("exp1", kappa=0.999), mesh, p=2)
    assert op.eta1 == 1.0 and op.S.nnz > 0
    # explicit override wins
    op = build_system(make_problem("exp1", kappa=0.999), mesh, p=2, eta1=0.0)
    assert op.eta1 == 0.0


def test_system_invariant_under_coefficient_scaling():
    # scaling (A, f) by a constant c leaves gamma*A and gamma*f unchanged,
    # so the assembled action and rhs are identical
    base = make_problem("exp1", kappa=0.5)
    c = 7.0
    scaled = ProblemData(
        name="scaled",
        bounds=base.bounds,
        A=lambda x: c * base.A(x),
        f=lambda x: c * base.f(x),
    )
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 3)
    op1 = build_system(base, mesh, p=2, eta1=1.0)
    op2 = build_system(scaled, mesh, p=2, eta1=1.0)
    assert np.isclose(op1.cordes.epsilon, op2.cordes.epsilon, atol=1e-12)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(op1.n_dofs)
    assert np.abs(op1.apply(u) - op2.apply(u)).max() < 1e-11
    assert np.abs(assemble_rhs(op1) - assemble_rhs(op2)).max() < 1e-11


def test_coercivity_witness():
    # u^T K u > 0 for every nonzero free vector we try (penalized system)
    problem = make_problem("exp1", kappa=0.9)
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    op = build_system(problem, mesh, p=2, eta1=1.0)
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = rng.standard_normal(op.n_dofs)
        u[~op.free_mask] = 0.0
        val = u @ op.apply(u)
        assert val > 0.0


# ----------------------------------------------------------------------
# preconditioner


def test_preconditioner_invertible_and_identity_on_boundary():
    problem = make_problem("exp1", kappa=0.9)
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    op = build_system(problem, mesh, p=2, eta1=1.0)
    pre = build_preconditioner(op)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(op.n_dofs)
    r = pre.matrix @ x
    assert np.abs(pre.solve(r) - x).max() < 1e-8
    # Dirichlet rows are pure identity
    P = pre.matrix.toarray()
    for k in np.flatnonzero(~op.free_mask):
        row = P[k].copy()
        assert row[k] == 1.0
        row[k] = 0.0
        assert np.abs(row).max() == 0.0
        col = P[:, k].copy()
        col[k] = 0.0
        assert np.abs(col).max() == 0.0


def _bisected_16x16_mesh(seed):
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(0, 1, 0, 1, 16, 16)
    return bisect(mesh, rng.choice(mesh.n_cells, size=mesh.n_cells // 4, replace=False))


def _lu_fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("mode", ["CG", "DG"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_sparse_lu_fills_no_more_than_colamd(p, mode):
    # mass matrix and preconditioner factors against SuperLU's default
    # COLAMD ordering of the same matrix; the block-diagonal DG mass matrix
    # is factored cell by cell, whose dense triangles store as much as COLAMD
    rng = np.random.default_rng(p)
    op = build_system(make_problem("exp1", kappa=0.9), _bisected_16x16_mesh(p), p, mode)
    hop = op.hessian_op
    pre = build_preconditioner(op)
    for A, lu in [(hop.M_W, hop.M_lu), (pre.matrix, pre.lu)]:
        assert _lu_fill(lu) <= _lu_fill(sp.linalg.splu(A.tocsc()))
        # right-hand side in the range of A: the residual then measures the
        # backward error of the factorization, not the conditioning of P
        b = A @ rng.standard_normal(A.shape[0])
        assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["exp3", "exp4"])
def test_dg_preconditioner_is_the_system_matrix(name, p):
    # with the exact block-diagonal mass inverse and the full B_ij the DG
    # preconditioner is the assembled system, so its solve, GMRES's starting
    # guess, already meets the tolerance and GMRES takes no step
    problem = make_problem(name)
    rng = np.random.default_rng(p)
    mesh = build_rect_mesh(*problem.bounds, 6, 6)
    for _ in range(2):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=mesh.n_cells // 3, replace=False))
    op = build_system(problem, mesh, p, "DG", eta1=1.0)
    pre = build_preconditioner(op)
    for _ in range(3):
        u = rng.standard_normal(op.n_dofs)
        Ku = op.apply(u)
        assert np.linalg.norm(pre.matrix @ u - Ku) <= 1e-12 * np.linalg.norm(Ku)
    sol = solve_problem(problem, mesh, p, scheme="recovery-dg", eta1=1.0)
    assert sol.report.converged and sol.report.iterations == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=3), st.sampled_from(["CG", "DG"]),
       st.sampled_from(["exp1", "exp3", "exp4"]))
def test_preconditioner_matches_its_written_out_formula(seed, n, p, mode, name):
    # the one stacked formula against each test space's own: the CG
    # surrogate's three diagonal terms summed, and the DG system matrix as
    # the row of B_m M^-1 times the column of C_m, bit for bit
    problem = make_problem(name)
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(*problem.bounds, n, n)
    for _ in range(2):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=mesh.n_cells // 3, replace=False))
    op = build_system(problem, mesh, p, mode, eta1=1.0)
    hop = op.hessian_op
    (B00, B01), (_, B11) = op.B
    (C00, C01), (_, C11) = hop.C
    if mode == "CG":
        w_inv = sp.diags(1.0 / hop.M_W.diagonal())
        D00, D01, D11 = (sp.diags(b.diagonal()) for b in (B00, B01, B11))
        inner = D00 @ w_inv @ C00 + 2.0 * D01 @ w_inv @ C01 + D11 @ w_inv @ C11
        K = hop.C_trace.T @ w_inv @ inner
    else:
        m_inv = hop.M_lu.inverse
        inner = (sp.hstack([b @ m_inv for b in (B00, 2.0 * B01, B11)], format="csr")
                 @ sp.vstack([C00, C01, C11], format="csr"))
        K = hop.C_trace.T.tocsr() @ (m_inv @ inner)
    want = _eliminate_dirichlet(K + op.S, op.free_mask)
    got = build_preconditioner(op).matrix
    if mode == "CG":
        assert abs(got - want).max() <= 1e-13 * abs(want).max()
    else:
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.0, max_value=1.0), st.sampled_from(["csr", "csc"]))
def test_eliminate_dirichlet_matches_the_diagonal_products(seed, n, density, fmt):
    # masking a copy gives D K D + diag(1 - f), D = diag(f), array for array
    rng = np.random.default_rng(seed)
    K = sp.random(n, n, density=density, format=fmt, random_state=rng)
    free = rng.random(n) < 0.7
    f = free.astype(np.float64)
    want = (sp.diags(f) @ K @ sp.diags(f) + sp.diags(1.0 - f)).tocsr()
    got = _eliminate_dirichlet(K, free)
    assert got.format == "csr"
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("p", [2, 3])
def test_dg_operators_match_superlu_mass_solves(p):
    # the cellwise DG mass factor moves only round-off: the system action,
    # the right-hand side and the recovered Hessian agree with the same
    # operator whose mass solves run through SuperLU
    problem = make_problem("exp3")
    rng = np.random.default_rng(p)
    mesh = build_rect_mesh(*problem.bounds, 16, 16)
    mesh = bisect(mesh, rng.choice(mesh.n_cells, size=mesh.n_cells // 4, replace=False))
    op = build_system(problem, mesh, p, "DG")
    hop = op.hessian_op
    ref = dataclasses.replace(
        op, hessian_op=dataclasses.replace(hop, M_lu=sp.linalg.splu(hop.M_W.tocsc())))
    u = rng.standard_normal(op.n_dofs)
    pairs = [(op.apply(u), ref.apply(u)), (assemble_rhs(op), assemble_rhs(ref))]
    for row, ref_row in zip(recover_hessian(hop, u), recover_hessian(ref.hessian_op, u)):
        pairs += [(h.coeffs, h_ref.coeffs) for h, h_ref in zip(row, ref_row)]
    for x, y in pairs:
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


# ----------------------------------------------------------------------
# cellwise-Hessian direct scheme


def test_nsz_requires_penalty():
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 2, "CG")
    problem = make_problem("exp1")
    with pytest.raises(ValueError):
        assemble_nsz(V, _coefficient_sample(problem, V), eta1=0.0)


def test_nsz_at_degree_one_is_the_penalty_alone():
    # the cellwise Hessians of P1 vanish: the matrix is the eliminated
    # penalty and the rhs is zero, assembled without a warning
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 1, "CG")
    problem = make_problem("exp1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K, rhs = assemble_nsz(V, _coefficient_sample(problem, V), eta1=1.0)
    free = np.ones(V.n_dofs, dtype=bool)
    free[boundary_dofs(V)] = False
    want = _eliminate_dirichlet(assemble_stabilization(V, 1.0), free)
    assert abs(K - want).max() == 0.0
    assert not rhs.any()


def test_nsz_reproduces_polynomial_solution():
    # the quartic solution lies in P4, its interpolant is globally smooth,
    # so the direct scheme solves it exactly
    problem = make_problem("poly")
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 4, "CG")
    K, rhs = assemble_nsz(V, _coefficient_sample(problem, V), eta1=1.0)
    u = sp.linalg.splu(K.tocsc()).solve(rhs)
    u_exact = interpolate(V, lambda x: problem.exact_u(x)).coeffs
    assert np.abs(u - u_exact).max() < 1e-9


def test_nsz_matrix_asymmetric_for_anisotropic_A():
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 2, "CG")
    K, _ = assemble_nsz(V, _coefficient_sample(problem, V), eta1=1.0)
    assert abs(K - K.T).max() > 1e-3


def test_nsz_boundary_rows():
    problem = make_problem("exp1")
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    V = build_space(mesh, 2, "CG")
    K, rhs = assemble_nsz(V, _coefficient_sample(problem, V), eta1=1.0)
    from nondivfem import boundary_dofs

    bd = boundary_dofs(V)
    D = K.toarray()
    for k in bd:
        assert D[k, k] == 1.0
        r = D[k].copy()
        r[k] = 0.0
        assert np.abs(r).max() == 0.0
    assert np.all(rhs[bd] == 0.0)


def _nsz_oracle(problem, V, eta1):
    """Dense cellwise-Hessian matrix and rhs summed cell by cell and point by
    point: physical Hessians Jinv^T H_ref Jinv, then gamma A : D2(phi_l) times
    tr D2(phi_k), plus the facet penalty, with the boundary rows and columns
    replaced by the identity."""
    mesh = V.mesh
    q = quadrature(2 * V.degree + 2)
    H_ref = V.ref.tabulate_hess(q.points)                  # (q, nloc, 2, 2)
    K = assemble_stabilization(V, eta1).toarray()
    rhs = np.zeros(V.n_dofs)
    for c in range(mesh.n_cells):
        Jinv = mesh.cell_inv_jacobians[c]
        d = V.dof_map[c]
        for xi, w, H_q in zip(q.points, q.weights, H_ref):
            x = mesh.vertices[mesh.cells[c, 0]] + mesh.cell_jacobians[c] @ xi
            A = problem.A(x[None])[0]
            gamma = np.trace(A) / np.sum(A * A)
            H = np.array([Jinv.T @ h @ Jinv for h in H_q])   # (nloc, 2, 2)
            AH = np.einsum("ij,lij->l", gamma * A, H)
            trH = H[:, 0, 0] + H[:, 1, 1]
            wdet = w * mesh.cell_det[c]
            K[np.ix_(d, d)] += wdet * np.outer(trH, AH)
            rhs[d] += wdet * gamma * problem.f(x[None])[0] * trH
    bd = boundary_dofs(V)
    K[bd, :] = 0.0
    K[:, bd] = 0.0
    K[bd, bd] = 1.0
    rhs[bd] = 0.0
    return K, rhs


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("name", ["exp1", "exp3", "exp4"])
def test_nsz_matches_the_pointwise_oracle(name, p):
    # exp3's A is discontinuous across the axes, which cut through the cells
    # of a 3x3 mesh, so gamma A varies from cell to cell and within cells;
    # its gamma is constant off the axes, exp4's is not
    problem = make_problem(name, **({"kappa": 0.9} if name == "exp1" else {}))
    rng = np.random.default_rng(p)
    mesh = build_rect_mesh(*problem.bounds, 3, 3)
    for _ in range(2):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=mesh.n_cells // 3, replace=False))
    V = build_space(mesh, p, "CG")
    K, rhs = assemble_nsz(V, _coefficient_sample(problem, V), eta1=1.0)
    K_oracle, rhs_oracle = _nsz_oracle(problem, V, 1.0)
    assert np.abs(K.toarray() - K_oracle).max() <= 1e-12 * np.abs(K_oracle).max()
    assert np.abs(rhs - rhs_oracle).max() <= 1e-12 * np.abs(rhs_oracle).max()


@pytest.mark.parametrize("p", [2, 3])
def test_nsz_direct_solve_residual(p):
    problem = make_problem("exp1", kappa=0.9)
    mesh = _bisected_16x16_mesh(p)
    sol = solve_problem(problem, mesh, p, scheme="nsz")
    V = sol.u_h.space
    K, rhs = assemble_nsz(V, _coefficient_sample(problem, V), eta1=1.0)
    # the factored solve is GMRES's starting guess and meets the tolerance
    assert sol.report.iterations == 0
    assert sol.report.final_true_residual <= 1e-12 * np.linalg.norm(rhs)
    assert _lu_fill(_factor(K)) < _lu_fill(sp.linalg.splu(K.tocsc()))
