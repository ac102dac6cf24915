"""End-to-end acceptance runs.

One test per headline capability; each prints a single PASS/FAIL line with
the measured numbers so a plain `pytest -v -s tests/test_acceptance.py`
doubles as a results table.  Budgets are desk scale: the whole file runs
in a couple of minutes.
"""

import numpy as np

from nondivfem import (
    adaptive_loop,
    bisect,
    build_rect_mesh,
    build_space,
    build_system,
    cordes_analyze,
    error_norms,
    eoc,
    estimate_level,
    gmres,
    interpolate,
    ls_slope,
    make_problem,
    recover_hessian,
    solve_problem,
)
from nondivfem.bench import run_iteration_table
from nondivfem.hessian import assemble_mass_W, build_hessian_operator
from nondivfem.operator import ProblemData, assemble_rhs


def _report(num, ok, detail):
    print("criterion %d: %s  [%s]" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def _exact_dict(problem):
    return {"u": problem.exact_u, "grad": problem.exact_grad, "hess": problem.exact_hess}


def test_criterion_1_polynomial_reproduction():
    # quartic Poisson solution, p = 4: all three schemes reproduce it
    problem = make_problem("poly")
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    worst = {}
    for scheme, eta1 in (("recovery-cg", 0.0), ("recovery-dg", 0.0), ("nsz", 1.0)):
        sol = solve_problem(problem, mesh, p=4, scheme=scheme, eta1=eta1)
        err = error_norms(sol.u_h, _exact_dict(problem))
        worst[scheme] = err.h2h
    ok = all(v <= 1e-7 for v in worst.values())
    _report(1, ok, "H2h errors " + ", ".join("%s=%.2e" % kv for kv in worst.items()))


def test_criterion_2_smooth_rates():
    problem = make_problem("exp1", kappa=0.5)
    lines = []
    ok = True
    for p in (2, 3):
        tbl = {"l2": [], "h1": [], "h2h": []}
        hs = []
        for k in (2, 3, 4, 5, 6):
            n = 2**k
            mesh = build_rect_mesh(0, 1, 0, 1, n, n)
            sol = solve_problem(problem, mesh, p=p, eta1=0.0)
            assert sol.report.converged
            err = error_norms(sol.u_h, _exact_dict(problem))
            tbl["l2"].append(err.l2)
            tbl["h1"].append(err.h1)
            tbl["h2h"].append(err.h2h)
            hs.append(mesh.h_max)
        r_l2 = eoc(zip(hs, tbl["l2"]))[-1]
        r_h1 = eoc(zip(hs, tbl["h1"]))[-1]
        r_h2 = eoc(zip(hs, tbl["h2h"]))[-1]
        ok = ok and (p + 1 - 0.3 <= r_l2 <= p + 1 + 0.3)
        ok = ok and (p - 0.2 <= r_h1 <= p + 0.3)
        ok = ok and (p - 1 - 0.2 <= r_h2 <= p - 1 + 0.3)
        lines.append("p=%d: L2 %.2f (want %d), H1 %.2f (want %d), H2h %.2f (want %d)"
                     % (p, r_l2, p + 1, r_h1, p, r_h2, p - 1))
    _report(2, ok, "; ".join(lines))


def test_criterion_3_stabilization_l2_degradation():
    # the gradient-jump penalty costs one L2 order at p = 2
    problem = make_problem("exp1", kappa=0.5)
    rates = {}
    for eta1 in (0.0, 1.0):
        errs, hs = [], []
        for k in (2, 3, 4, 5):
            n = 2**k
            mesh = build_rect_mesh(0, 1, 0, 1, n, n)
            sol = solve_problem(problem, mesh, p=2, eta1=eta1)
            errs.append(error_norms(sol.u_h, _exact_dict(problem)).l2)
            hs.append(mesh.h_max)
        rates[eta1] = eoc(zip(hs, errs))[-1]
    ok = rates[0.0] >= 2.7 and rates[1.0] <= 2.4
    _report(3, ok, "L2 EOC: eta1=0 gives %.2f (>= 2.7), eta1=1 gives %.2f (<= 2.4)"
            % (rates[0.0], rates[1.0]))


def test_criterion_4_gmres_iteration_counts():
    # reference counts for eta1 = 1, p = 2, tol 1e-8 on h = 2^-3..2^-6
    import os

    reference = {3: 13, 4: 17, 5: 19, 6: 19}
    kappas = (0.9, 0.99, 0.999)
    _, rows = run_iteration_table(
        kappas=kappas, h_exponents=tuple(reference), eta1_values=(1.0,),
        out=os.devnull,
    )
    ok = True
    per_kappa = {k: [] for k in kappas}
    for row, (ex, ref) in zip(rows, reference.items()):
        for k, iters in zip(kappas, row[1:]):
            ok = ok and iters > 0 and 0.5 * ref <= iters <= 1.5 * ref
            per_kappa[k].append(iters)
    spreads = {k: max(v) / min(v) for k, v in per_kappa.items()}
    ok = ok and all(s <= 2.0 for s in spreads.values())
    detail = "counts %s vs reference %s; max/min per kappa %s" % (
        per_kappa, list(reference.values()),
        {k: round(s, 2) for k, s in spreads.items()},
    )
    _report(4, ok, detail)


def _adaptive_slopes(problem, max_dofs=30000, theta=0.9):
    records = adaptive_loop(problem, p=2, theta=theta, max_dofs=max_dofs)
    last = records[-5:]
    n = [r.n_dofs for r in last]
    slopes = {
        "l2": ls_slope(n, [r.errors.l2 for r in last]),
        "h1": ls_slope(n, [r.errors.h1 for r in last]),
        "h2h": ls_slope(n, [r.errors.h2h for r in last]),
    }
    return slopes, records


def test_criterion_5_singular_solution_adaptivity():
    problem = make_problem("exp2", alpha=1.5)
    slopes, _ = _adaptive_slopes(problem)
    ok = (
        abs(slopes["l2"] - (-1.5)) <= 0.15
        and abs(slopes["h1"] - (-1.0)) <= 0.15
        and abs(slopes["h2h"] - (-0.5)) <= 0.15
    )
    # uniform refinement stalls near -(alpha - 1)/2 = -0.25 in the H2h norm
    errs, ns = [], []
    for k in (2, 3, 4, 5):
        n = 2**k
        mesh = build_rect_mesh(0, 1, 0, 1, n, n)
        sol = solve_problem(problem, mesh, p=2)
        errs.append(error_norms(sol.u_h, _exact_dict(problem)).h2h)
        ns.append(sol.u_h.space.n_dofs)
    s_unif = ls_slope(ns, errs)
    ok = ok and abs(s_unif - (-0.25)) < abs(s_unif - (-0.5))
    _report(5, ok, "adaptive slopes L2 %.2f, H1 %.2f, H2h %.2f (targets -1.5/-1.0/-0.5); "
            "uniform H2h slope %.2f" % (slopes["l2"], slopes["h1"], slopes["h2h"], s_unif))


def test_criterion_6_discontinuous_coefficients():
    problem = make_problem("exp3")
    # pointwise analysis off the axes: eps = 16/10 - 1 = 0.6, gamma = 0.4
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(500, 2))
    pts = pts[np.abs(pts).min(axis=1) > 1e-6]
    info = cordes_analyze(problem, pts)
    g = info.gamma(pts)
    eps_ok = abs(info.epsilon - 0.6) <= 1e-12
    gamma_ok = np.abs(g - 0.4).max() <= 1e-12
    slopes, _ = _adaptive_slopes(problem)
    slope_ok = (
        abs(slopes["l2"] - (-1.5)) <= 0.2
        and abs(slopes["h1"] - (-1.0)) <= 0.2
        and abs(slopes["h2h"] - (-0.5)) <= 0.2
    )
    ok = eps_ok and gamma_ok and slope_ok
    _report(6, ok, "eps = %.15f, max|gamma - 0.4| = %.1e; slopes L2 %.2f, H1 %.2f, H2h %.2f"
            % (info.epsilon, np.abs(g - 0.4).max(), slopes["l2"], slopes["h1"], slopes["h2h"]))


def test_criterion_7_estimator_efficiency():
    # per cell, on every level of the smooth uniform study:
    # eta_T <= 2 * local H2h error + 1e-8
    problem = make_problem("exp1", kappa=0.5)
    worst = 0.0
    violations = 0
    cells_checked = 0
    for k in (2, 3, 4, 5, 6):
        n = 2**k
        mesh = build_rect_mesh(0, 1, 0, 1, n, n)
        sol = solve_problem(problem, mesh, p=2)
        eta, err = estimate_level(sol.u_h, problem)
        bound = 2.0 * err.h2h_T + 1e-8
        violations += int(np.sum(eta > bound))
        worst = max(worst, float((eta / bound).max()))
        cells_checked += mesh.n_cells
    ok = violations == 0
    _report(7, ok, "%d cells, %d violations, worst eta_T / bound = %.2f"
            % (cells_checked, violations, worst))


def test_criterion_8_property_suites():
    parts = []

    # (a) recovery reproduces the Hessian of random degree <= p polynomials
    rng = np.random.default_rng(42)
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 3)
    worst_a = 0.0
    for p in (2, 3):
        V = build_space(mesh, p, "CG")
        exps = [(a, b) for a in range(p + 1) for b in range(p + 1 - a)]
        for mode in ("CG", "DG"):
            op = build_hessian_operator(V, mode)
            for _ in range(5):
                coef = rng.uniform(-1, 1, size=len(exps))

                def poly(x, c=coef):
                    return sum(
                        ci * x[:, 0] ** a * x[:, 1] ** b
                        for ci, (a, b) in zip(c, exps)
                    )

                def poly_hess(x, c=coef):
                    H = np.zeros(x.shape[:-1] + (2, 2))
                    for ci, (a, b) in zip(c, exps):
                        X, Y = x[..., 0], x[..., 1]
                        if a >= 2:
                            H[..., 0, 0] += ci * a * (a - 1) * X ** (a - 2) * Y**b
                        if a >= 1 and b >= 1:
                            H[..., 0, 1] += ci * a * b * X ** (a - 1) * Y ** (b - 1)
                        if b >= 2:
                            H[..., 1, 1] += ci * b * (b - 1) * X**a * Y ** (b - 2)
                    H[..., 1, 0] = H[..., 0, 1]
                    return H

                u = interpolate(V, poly)
                H = recover_hessian(op, u.coeffs)
                W = op.space_W
                nodes = W.node_coords
                exact = poly_hess(nodes)
                for i in range(2):
                    for j in range(2):
                        worst_a = max(worst_a, np.abs(H[i][j].coeffs - exact[:, i, j]).max())
    a_ok = worst_a <= 1e-10
    parts.append("projection %.1e" % worst_a)

    # (b) gamma-scaling invariance of the assembled action
    base = make_problem("exp1", kappa=0.9)
    scaled = ProblemData(name="s", bounds=base.bounds,
                         A=lambda x: 3.0 * base.A(x), f=lambda x: 3.0 * base.f(x))
    mesh_b = build_rect_mesh(0, 1, 0, 1, 4, 4)
    op1 = build_system(base, mesh_b, p=2, eta1=1.0)
    op2 = build_system(scaled, mesh_b, p=2, eta1=1.0)
    worst_b = 0.0
    for _ in range(5):
        u = rng.standard_normal(op1.n_dofs)
        d = np.abs(op1.apply(u) - op2.apply(u)).max()
        scale = max(1.0, np.abs(op1.apply(u)).max())
        worst_b = max(worst_b, d / scale)
    worst_b = max(worst_b, float(np.abs(assemble_rhs(op1) - assemble_rhs(op2)).max()))
    b_ok = worst_b <= 1e-12
    parts.append("gamma-scaling %.1e" % worst_b)

    # (c) matrix-free action vs dense reassembly on the 2-cell mesh
    problem_c = make_problem("exp1", kappa=0.5)
    mesh_c = build_rect_mesh(0, 1, 0, 1, 1, 1)
    op = build_system(problem_c, mesh_c, p=2, mode="DG", eta1=1.0)
    hop = op.hessian_op
    M = assemble_mass_W(hop.space_W).toarray()
    Minv = np.linalg.inv(M)
    inner = sum(op.B[i][j].toarray() @ Minv @ hop.C[i][j].toarray()
                for i in range(2) for j in range(2))
    K = hop.C_trace.toarray().T @ Minv @ inner + op.S.toarray()
    worst_c = 0.0
    for _ in range(10):
        u = rng.standard_normal(op.n_dofs)
        expect = np.where(op.free_mask, K @ np.where(op.free_mask, u, 0.0), u)
        worst_c = max(worst_c, np.abs(op.apply(u) - expect).max())
    c_ok = worst_c <= 1e-9
    parts.append("dense-oracle %.1e" % worst_c)

    # (d) GMRES residual monotonicity across representative runs
    d_ok = True
    for kappa, n in ((0.5, 8), (0.9, 8), (0.99, 16)):
        problem_d = make_problem("exp1", kappa=kappa)
        mesh_d = build_rect_mesh(0, 1, 0, 1, n, n)
        sol = solve_problem(problem_d, mesh_d, p=2, eta1=1.0)
        h = np.array(sol.report.residual_history)
        d_ok = d_ok and sol.report.converged and np.all(np.diff(h) <= 1e-12 * h[0])
    parts.append("gmres-monotone %s" % d_ok)

    # (e) conformity and area conservation over 100 random mark patterns
    e_ok = True
    rng_e = np.random.default_rng(7)
    mesh_e = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for trial in range(100):
        n_marks = int(rng_e.integers(1, max(2, mesh_e.n_cells // 3)))
        marks = np.unique(rng_e.integers(0, mesh_e.n_cells, size=n_marks))
        mesh_e = bisect(mesh_e, marks)
        e_ok = e_ok and bool((mesh_e.cell_det > 0).all())
        e_ok = e_ok and bool(np.isclose(mesh_e.cell_areas.sum(), 1.0, atol=1e-12))
        bmid = mesh_e.vertices[mesh_e.facets[mesh_e.boundary_facets()]].mean(axis=1)
        on_rect = (
            np.isclose(bmid[:, 0], 0.0) | np.isclose(bmid[:, 0], 1.0)
            | np.isclose(bmid[:, 1], 0.0) | np.isclose(bmid[:, 1], 1.0)
        )
        e_ok = e_ok and bool(on_rect.all())
        if mesh_e.n_cells > 20000:
            mesh_e = build_rect_mesh(0, 1, 0, 1, 2, 2)
    parts.append("refinement %s over 100 patterns" % e_ok)

    ok = a_ok and b_ok and c_ok and d_ok and e_ok
    _report(8, ok, "; ".join(parts))
