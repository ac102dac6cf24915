import dataclasses
import re
import warnings

import numpy as np
import pytest

from nondivfem import (
    adaptive_loop,
    bisect,
    build_rect_mesh,
    build_space,
    cordes_analyze,
    eoc,
    error_norms,
    interpolate,
    local_estimator,
    ls_slope,
    make_problem,
    solve_problem,
)
from nondivfem.estimate import _gradient_jumps_sq, _level_data, estimate_level
from nondivfem.operator import ProblemData
from nondivfem.space import FEFunction, facet_quadrature, physical_points, quadrature

from fe_oracle import pullback_points, tabulate_at


def _exact_dict(problem):
    return {"u": problem.exact_u, "grad": problem.exact_grad, "hess": problem.exact_hess}


def _poly_exact():
    return {
        "u": lambda x: x[..., 0] ** 2 - x[..., 0] * x[..., 1],
        "grad": lambda x: np.stack(
            [2 * x[..., 0] - x[..., 1], -x[..., 0]], axis=-1
        ),
        "hess": lambda x: np.broadcast_to(
            np.array([[2.0, -1.0], [-1.0, 0.0]]), x.shape[:-1] + (2, 2)
        ).copy(),
    }


# ----------------------------------------------------------------------
# norms


def test_norms_vanish_for_reproduced_function():
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 3)
    V = build_space(mesh, 2, "CG")
    ex = _poly_exact()
    u = interpolate(V, lambda x: ex["u"](x))
    err = error_norms(u, ex)
    assert err.l2 < 1e-12
    assert err.h1 < 1e-11
    assert err.h2h < 1e-9
    assert err.h2_broken < 1e-9


def test_norms_of_zero_function():
    # u_h = 0 against exp1: the L2 error is ||sin sin|| = 1/2
    problem = make_problem("exp1")
    mesh = build_rect_mesh(0, 1, 0, 1, 8, 8)
    V = build_space(mesh, 2, "CG")
    u = FEFunction(V, np.zeros(V.n_dofs))
    err = error_norms(u, _exact_dict(problem))
    assert np.isclose(err.l2, 0.5, atol=1e-10)
    # full H1 norm: sqrt(1/4 + 2 pi^2)
    assert np.isclose(err.h1, np.sqrt(0.25 + 2 * np.pi**2), atol=1e-8)
    # u_h = 0 has no gradient jumps, so h2h equals the broken seminorm
    assert np.isclose(err.h2h, err.h2_broken, atol=1e-12)
    assert np.isclose(err.h2_broken, 4.0 * np.pi**2, atol=1e-6)


def test_h2h_dominates_broken_seminorm():
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    sol = solve_problem(problem, mesh, p=2)
    err = error_norms(sol.u_h, _exact_dict(problem))
    assert err.h2h >= err.h2_broken


@pytest.mark.parametrize("name", ["exp2", "exp4"])
def test_estimate_level_matches_separate_calls(name):
    problem = make_problem(name)
    x0, x1, y0, y1 = problem.bounds
    mesh = build_rect_mesh(x0, x1, y0, y1, 4, 4)
    sol = solve_problem(problem, mesh, 2)
    eta, err = estimate_level(sol.u_h, problem)
    assert np.array_equal(eta, local_estimator(sol.u_h, problem, sol.cordes.gamma))
    if problem.has_exact:
        ref = error_norms(sol.u_h, _exact_dict(problem))
        assert err == ref
        assert np.array_equal(err.h2h_T, ref.h2h_T)
    else:
        assert err is None


def test_estimate_level_samples_A_and_f_once():
    # gamma comes from the estimator's own sample of A, not from a second one
    problem = make_problem("exp3")
    calls = {"A": 0, "f": 0}

    def counted(name):
        fn = getattr(problem, name)

        def wrapped(x):
            calls[name] += 1
            return fn(x)

        return wrapped

    sol = solve_problem(problem, build_rect_mesh(*problem.bounds, 4, 4), 2)
    counting = dataclasses.replace(problem, A=counted("A"), f=counted("f"))
    estimate_level(sol.u_h, counting)
    assert calls == {"A": 1, "f": 1}


def test_gradient_jumps_match_pointwise_oracle():
    # h_F^-1 int_F [grad u . n_F]^2 summed point by point, each side's
    # reference point found by pulling the physical point back
    rng = np.random.default_rng(7)
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for _ in range(3):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=max(1, mesh.n_cells // 3), replace=False))
    V = build_space(mesh, 3, "CG")
    u = FEFunction(V, rng.standard_normal(V.n_dofs))
    t, wt = facet_quadrature(10)
    expected = []
    for f in mesh.interior_facets():
        va, vb = mesh.vertices[mesh.facets[f]]
        total = 0.0
        for tk, wk in zip(t, wt):
            x = (va + tk * (vb - va))[None, None]
            jump = 0.0
            for sign, c in zip((1.0, -1.0), mesh.facet_cells[f]):
                _, g = tabulate_at(V, np.array([c]), pullback_points(mesh, np.array([c]), x))
                jump += sign * (u.coeffs[V.dof_map[c]] @ g[0, 0]) @ mesh.facet_normals[f]
            total += wk * jump**2
        expected.append(total)
    int_f, jumps = _gradient_jumps_sq(u, 10)
    assert np.array_equal(int_f, mesh.interior_facets())
    assert np.abs(jumps - expected).max() <= 1e-12 * max(expected)


def test_local_h2h_squares_sum_to_more_than_global():
    # both-cells attribution double counts the jumps, so the cell pieces
    # overshoot the global h2h norm but never undershoot it
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    sol = solve_problem(problem, mesh, p=2)
    _, err = estimate_level(sol.u_h, problem)
    assert err.h2h_T.shape == (mesh.n_cells,)
    total = np.sqrt(np.sum(err.h2h_T**2))
    assert total >= err.h2h - 1e-12
    assert total <= np.sqrt(2.0) * err.h2h + 1e-12


def test_h2h_T_is_cellwise_hessian_error_plus_both_sides_jumps():
    # oracle: the cellwise Hessian error squared, then the jump term of every
    # interior facet added to its cells on one side and then on the other
    problem = make_problem("exp3")
    mesh = bisect(build_rect_mesh(*problem.bounds, 4, 4), [0, 5, 17])
    sol = solve_problem(problem, mesh, p=2)
    _, err = estimate_level(sol.u_h, problem)
    d = _level_data(sol.u_h)
    dh = d.hess - problem.exact_hess(d.pts)
    cell_sq = np.einsum("cq,cqij->c", d.wdet, dh**2)
    for side in (0, 1):
        cell_sq = cell_sq + np.bincount(mesh.facet_cells[d.int_f, side], d.jumps,
                                        minlength=mesh.n_cells)
    assert np.array_equal(err.h2h_T, np.sqrt(cell_sq))


# ----------------------------------------------------------------------
# estimator


def test_estimator_residual_only_for_zero_uh():
    # u_h = 0, f = 1, A = I: eta_T^2 = int_T 1 = |T| and no jumps
    problem = make_problem("exp4")
    mesh = build_rect_mesh(-1, 1, -1, 1, 4, 4)
    V = build_space(mesh, 2, "CG")
    u = FEFunction(V, np.zeros(V.n_dofs))

    from nondivfem.operator import ProblemData, _const_matrix

    prob = ProblemData(
        name="unit",
        bounds=(-1, 1, -1, 1),
        A=_const_matrix(np.eye(2)),
        f=lambda x: np.ones(x.shape[:-1]),
    )
    info = cordes_analyze(prob, np.array([[0.0, 0.0]]))
    eta = local_estimator(u, prob, info.gamma)
    areas = 0.5 * mesh.cell_det
    assert np.allclose(eta**2, areas, atol=1e-13)
    assert np.isclose(np.sqrt(np.sum(eta**2)), np.sqrt(areas.sum()), atol=1e-12)


def _nan_at_one_estimator_point(name):
    """8 x 8 mesh and a problem with A = I and f = 1, except that `name`
    ("A" or "f") is NaN at the first point of cell 0 of the estimator's
    2p + 4 rule at p = 2, which no assembly point (2p + 2 rule) meets."""
    mesh = build_rect_mesh(-1, 1, -1, 1, 8, 8)
    q = quadrature(8)
    pts = physical_points(mesh, np.arange(mesh.n_cells),
                          np.broadcast_to(q.points, (mesh.n_cells,) + q.points.shape))
    bad = pts[0, 0].copy()

    def poisoned(values, x):
        hit = np.all(x == bad, axis=-1)
        values[hit] = np.nan
        return values

    A = lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
    f = lambda x: np.ones(x.shape[:-1])
    coeffs = {"A": A, "f": f}
    coeffs[name] = lambda x, g=coeffs[name]: poisoned(g(x), x)
    return mesh, ProblemData(name="nan", bounds=(-1, 1, -1, 1), **coeffs), bad


@pytest.mark.parametrize("name", ["A", "f"])
def test_estimator_refuses_a_coefficient_that_is_not_finite(name):
    # assembly checks A and f at its own points; the estimator's points
    # are others, and a NaN there would give eta_T = nan without an error
    mesh, problem, bad = _nan_at_one_estimator_point(name)
    sol = solve_problem(problem, mesh, p=2)
    assert sol.report.converged
    message = "%s is not finite at %s" % (name, re.escape(str(bad)))
    with pytest.raises(ValueError, match=message):
        estimate_level(sol.u_h, problem)
    with pytest.raises(ValueError, match=message):
        local_estimator(sol.u_h, problem, sol.cordes.gamma)
    # the loop stops at the estimate, not later at the marking
    with pytest.raises(ValueError, match=message):
        adaptive_loop(problem, p=2, max_dofs=10**4, mesh=mesh)


def test_estimator_vanishes_for_exact_polynomial_solution():
    problem = make_problem("poly")
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 3)
    sol = solve_problem(problem, mesh, p=4)
    info = sol.cordes
    eta = local_estimator(sol.u_h, problem, info.gamma)
    assert np.sqrt(np.sum(eta**2)) < 1e-8


def test_estimator_first_order_rate():
    problem = make_problem("exp1", kappa=0.5)
    etas, hs = [], []
    for n in (8, 16):
        mesh = build_rect_mesh(0, 1, 0, 1, n, n)
        sol = solve_problem(problem, mesh, p=2)
        eta = local_estimator(sol.u_h, problem, sol.cordes.gamma)
        etas.append(np.sqrt(np.sum(eta**2)))
        hs.append(np.sqrt(2.0) / n)
    rate = eoc(zip(hs, etas))[0]
    assert 0.7 < rate < 1.4


def test_estimator_reliability_ratio_stable():
    # eta / ||error||_{H2_h} stays within a fixed band over refinements
    problem = make_problem("exp1", kappa=0.5)
    ratios = []
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    for _ in range(4):
        sol = solve_problem(problem, mesh, p=2)
        eta = local_estimator(sol.u_h, problem, sol.cordes.gamma)
        err = error_norms(sol.u_h, _exact_dict(problem))
        ratios.append(np.sqrt(np.sum(eta**2)) / err.h2h)
        for _ in range(2):
            mesh = bisect(mesh, np.arange(mesh.n_cells))
    ratios = np.array(ratios)
    assert ratios.min() > 0.05
    assert ratios.max() / ratios.min() < 5.0


# ----------------------------------------------------------------------
# rate helpers


def test_eoc_basic():
    out = eoc([(1.0, 1.0), (0.5, 0.25)])
    assert np.isclose(out[0], 2.0)
    out = eoc([(1.0, 8.0), (0.5, 1.0), (0.25, 0.125)])
    assert np.allclose(out, [3.0, 3.0])
    out = eoc([(1.0, 1.0), (0.5, 1.0)])
    assert np.isclose(out[0], 0.0)
    hs, es = np.array([1.0, 0.5, 0.25]), np.array([1.0, 0.3, 0.05])
    assert eoc(zip(hs, es)) == list(np.log(es[:-1] / es[1:]) / np.log(hs[:-1] / hs[1:]))


def test_eoc_rejects_bad_input():
    with pytest.raises(ValueError):
        eoc([(1.0, 1.0)])
    with pytest.raises(ValueError):
        eoc([(1.0, 1.0), (0.5, -0.2)])
    with pytest.raises(ValueError):
        eoc([(0.0, 1.0), (0.5, 0.2)])


def test_rate_helpers_refuse_degenerate_input(capfd):
    # refused before any division or LAPACK call: nothing is warned or printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="consecutive h values must differ"):
            eoc([(0.5, 1.0), (0.5, 0.5)])
        with pytest.raises(ValueError, match="consecutive h values must differ"):
            eoc([(1.0, 2.0), (0.5, 1.0), (0.5, 0.5)])
        for x, y in (([1.0], [1.0]), ([0.5, 0.5], [1.0, 2.0]), ([], [])):
            with pytest.raises(ValueError, match="two distinct x values"):
                ls_slope(x, y)
    assert capfd.readouterr().err == ""


def test_ls_slope():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    assert np.isclose(ls_slope(h, 3.0 * h**2), 2.0)
    # a repeated x is fine while two values differ
    x, y = np.array([1.0, 0.5, 0.5, 0.25]), np.array([1.0, 0.3, 0.2, 0.05])
    assert ls_slope(x, y) == float(np.polyfit(np.log(x), np.log(y), 1)[0])
    with pytest.raises(ValueError):
        ls_slope(h, -h)
