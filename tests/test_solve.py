import tracemalloc

import numpy as np
import pytest

from nondivfem import (
    bisect,
    build_rect_mesh,
    build_system,
    eoc,
    error_norms,
    gmres,
    make_problem,
    recover_hessian,
    solve_problem,
)
import nondivfem.solve as solve_module
from nondivfem.bench import RunConfig
from nondivfem.hessian import _factor
from nondivfem.operator import (
    Preconditioner,
    ProblemData,
    _coefficient_sample,
    _const_matrix,
    _product,
    assemble_nsz,
    assemble_rhs,
    build_preconditioner,
)


def _exact_dict(problem):
    return {"u": problem.exact_u, "grad": problem.exact_grad, "hess": problem.exact_hess}


# ----------------------------------------------------------------------
# GMRES on plain matrices


def test_gmres_identity_converges_immediately():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = gmres(lambda v: v, b, tol=1e-12)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(x, b)


def test_gmres_diagonal_needs_at_most_n_steps():
    D = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 1.0, 1.0])
    x, rep = gmres(lambda v: D * v, b, tol=1e-12)
    assert rep.converged
    assert rep.iterations <= 3
    assert np.abs(x - b / D).max() < 1e-10


def test_gmres_zero_rhs():
    x, rep = gmres(lambda v: 2.0 * v, np.zeros(4))
    assert rep.converged and rep.iterations == 0
    assert np.all(x == 0.0)


def test_gmres_from_zero_pays_no_apply_for_the_initial_residual():
    # without x0 the initial residual is b itself: one cycle takes one apply
    # per Arnoldi step and one for the true residual of its iterate
    rng = np.random.default_rng(3)
    A = np.eye(10) + 0.2 * rng.standard_normal((10, 10))
    b = rng.standard_normal(10)
    applies = []
    x, rep = gmres(lambda v: applies.append(1) or A @ v, b, tol=1e-10)
    assert rep.converged and len(rep.residual_history) == rep.iterations + 1  # one cycle
    assert rep.residual_history[0] == float(np.linalg.norm(b))
    assert len(applies) == rep.iterations + 1
    assert np.abs(A @ x - b).max() < 1e-8


def test_gmres_history_monotone():
    rng = np.random.default_rng(0)
    A = np.eye(20) + 0.3 * rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    _, rep = gmres(lambda v: A @ v, b, tol=1e-10)
    assert rep.converged
    h = np.array(rep.residual_history)
    assert np.all(np.diff(h) <= 1e-13 * h[0])
    assert len(h) == rep.iterations + 1


def test_gmres_on_the_zero_operator_breaks_down_at_its_first_step():
    # apply(v_0) = 0: the step is a breakdown, so no column is kept and x
    # stays zero, with ||b|| as its true residual
    x, rep = gmres(lambda v: np.zeros_like(v), np.ones(4))
    assert np.all(x == 0.0)
    assert rep.iterations == 1 and not rep.converged
    assert rep.final_true_residual == 2.0


def test_gmres_on_a_singular_diagonal_keeps_the_columns_before_the_breakdown():
    # the second step's pivot is round-off (about 1e-16 of its image), not
    # zero; dropping that column leaves the least-squares iterate (1, 1, 1, 1)
    # with residual 1 instead of an iterate of about 1e15
    A = np.diag([1.0, 1.0, 1.0, 0.0])
    b = np.ones(4)
    x, rep = gmres(lambda v: A @ v, b)
    assert np.all(np.isfinite(x)) and not rep.converged
    assert rep.final_true_residual == float(np.linalg.norm(b - A @ x))
    assert rep.final_true_residual <= np.linalg.norm(b)
    assert rep.final_true_residual == pytest.approx(1.0)
    assert len(rep.residual_history) == rep.iterations + 1  # no restart


def _absolute(stop, b):
    """The tol whose stopping value max(tol, tol * ||b||) is `stop`."""
    return stop / max(1.0, float(np.linalg.norm(b)))


def test_gmres_respects_max_iter(monkeypatch):
    rng = np.random.default_rng(1)
    A = np.eye(40) + rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    monkeypatch.setattr(solve_module, "MAX_ITER", 3)
    _, rep = gmres(lambda v: A @ v, b, tol=_absolute(1e-14, b))
    assert rep.iterations == 3
    assert not rep.converged


def test_gmres_perfect_preconditioner_one_step():
    rng = np.random.default_rng(2)
    A = np.diag(np.linspace(1.0, 50.0, 30))
    Ainv = np.diag(1.0 / np.diag(A))
    b = rng.standard_normal(30)
    _, rep = gmres(lambda v: A @ v, b, precond=lambda r: Ainv @ r, tol=1e-10)
    assert rep.converged and rep.iterations == 1


def test_gmres_right_preconditioning_reports_true_residual():
    rng = np.random.default_rng(3)
    A = np.eye(25) + 0.2 * rng.standard_normal((25, 25))
    Mfunc = lambda r: r / np.arange(1, 26)
    b = rng.standard_normal(25)
    x, rep = gmres(lambda v: A @ v, b, precond=Mfunc, tol=_absolute(1e-9, b))
    assert rep.converged
    true = float(np.linalg.norm(b - A @ x))
    # the monitored residual of right-preconditioned GMRES is the true one
    assert abs(true - rep.final_true_residual) < 1e-12
    assert true <= 1e-8


def test_gmres_memory_follows_iterations_not_max_iter(monkeypatch):
    # about 100 Arnoldi steps, so the basis grows well past its first vectors
    rng = np.random.default_rng(5)
    n = 100
    A = 0.2 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    tol = _absolute(1e-10, b)
    monkeypatch.setattr(solve_module, "MAX_ITER", 10**6)
    tracemalloc.start()
    try:
        x, rep = gmres(lambda v: A @ v, b, tol=tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iterations > 64
    # a basis of max_iter + 1 rows would take 800 MB
    assert peak < 2_000_000
    # the growth does not change a single bit of the iteration
    monkeypatch.setattr(solve_module, "MAX_ITER", rep.iterations)
    x_tight, rep_tight = gmres(lambda v: A @ v, b, tol=tol)
    assert np.array_equal(x, x_tight)
    assert rep_tight.residual_history == rep.residual_history


def test_gmres_stops_after_n_steps_and_judges_the_true_residual():
    # a tolerance below round-off is never reached: n steps span the whole
    # space, and the recursive estimate alone must not report convergence
    rng = np.random.default_rng(6)
    A = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    _, rep = gmres(lambda v: A @ v, b, tol=_absolute(1e-300, b))
    assert rep.iterations == 5
    assert not rep.converged
    assert rep.final_true_residual > 1e-300


def test_gmres_exact_initial_guess_takes_no_step():
    # the initial residual is the one apply: an x0 that meets the tolerance
    # comes back unchanged, with that residual as the whole history
    rng = np.random.default_rng(7)
    A = np.eye(12) + 0.3 * rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    x0 = np.linalg.solve(A, b)
    applies = []
    x, rep = gmres(lambda v: applies.append(1) or A @ v, b, x0=x0, tol=1e-10)
    assert np.array_equal(x, x0) and len(applies) == 1
    assert rep.iterations == 0 and rep.converged
    assert rep.residual_history == [float(np.linalg.norm(b - A @ x0))]
    assert rep.final_true_residual == rep.residual_history[0]


def test_gmres_poor_initial_guess_converges_to_the_same_solution():
    rng = np.random.default_rng(8)
    A = np.eye(30) + 0.2 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    tol = 1e-10
    x_ref, rep_ref = gmres(lambda v: A @ v, b, tol=tol)
    x0 = 10.0 * rng.standard_normal(30)
    x, rep = gmres(lambda v: A @ v, b, x0=x0, tol=tol)
    assert rep_ref.converged and rep.converged and rep.iterations >= 1
    assert rep.residual_history[0] == float(np.linalg.norm(b - A @ x0))
    assert float(np.linalg.norm(b - A @ x)) == pytest.approx(rep.final_true_residual)
    # both residuals are below tol, so the solutions differ by at most
    # ||A^-1|| * 2 tol
    bound = 2.0 * tol * np.linalg.norm(np.linalg.inv(A), 2)
    assert np.linalg.norm(x - x_ref) <= bound


def test_gmres_tolerance_is_absolute_below_a_unit_rhs_and_relative_above():
    # the stopping value is max(tol, tol * ||b||): tol at ||b|| = 0.5 and
    # 100 tol at ||b|| = 100.  An initial residual just inside it takes no
    # step, one just outside takes at least one
    D = np.array([1.0, 2.0, 4.0])
    u = np.array([3.0, 0.0, 4.0]) / 5.0
    e = np.array([0.0, 1.0, 0.0])
    tol = 1e-8
    for scale, stop in ((0.5, tol), (100.0, 100.0 * tol)):
        b = scale * u
        for factor, steps in ((0.9, False), (1.1, True)):
            x0 = (b - factor * stop * e) / D
            _, rep = gmres(lambda v: D * v, b, x0=x0, tol=tol)
            assert rep.residual_history[0] == pytest.approx(factor * stop, rel=1e-6)
            assert (rep.iterations >= 1) == steps
            assert rep.converged and rep.final_true_residual <= stop


# ----------------------------------------------------------------------
# scheme names


def test_scheme_aliases_are_rejected():
    # one spelling per scheme: aliases are errors that list the names
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 1, 1)
    for alias in ("cg", "CG", "recovery_dg", "NSZ", "fem"):
        with pytest.raises(ValueError, match="recovery-cg"):
            solve_problem(problem, mesh, p=2, scheme=alias)
        with pytest.raises(ValueError, match="recovery-cg"):
            RunConfig(experiment="exp1", scheme=alias).validate()


# ----------------------------------------------------------------------
# full solves


def test_solve_reproduces_polynomial():
    # quartic solution, P4 space: the discrete solution is exact
    problem = make_problem("poly")
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    sol = solve_problem(problem, mesh, p=4, scheme="recovery-cg")
    assert sol.report.converged
    err = error_norms(sol.u_h, _exact_dict(problem))
    assert err.h2h < 1e-9


def test_solution_boundary_coefficients_are_zero():
    # nothing zeroes them after the solve: the identity rows and columns of
    # every system and the zero right-hand side there keep them exactly zero
    # through every start, Krylov vector, preconditioner solve and update.
    # exp1 at kappa = 0.5 has eps = 0.6, so eta1 = None runs penalty-free
    from nondivfem.space import boundary_dofs

    problem = make_problem("exp1", kappa=0.5)
    mesh = bisect(build_rect_mesh(0, 1, 0, 1, 3, 3), [0, 4, 11])
    for scheme in ("recovery-cg", "recovery-dg", "nsz"):
        for p in (1, 2, 3) if scheme != "nsz" else (2, 3):
            for eta1 in (None, 1.0):
                sol = solve_problem(problem, mesh, p=p, scheme=scheme, eta1=eta1)
                assert sol.report.converged
                bd = boundary_dofs(sol.u_h.space)
                assert np.all(sol.u_h.coeffs[bd] == 0.0), (scheme, p, eta1)


def test_solve_exp1_h2_rate():
    problem = make_problem("exp1", kappa=0.5)
    errs = []
    for n in (8, 16):
        mesh = build_rect_mesh(0, 1, 0, 1, n, n)
        sol = solve_problem(problem, mesh, p=2)
        assert sol.report.converged
        errs.append(error_norms(sol.u_h, _exact_dict(problem)).h2h)
    rate = np.log2(errs[0] / errs[1])
    assert 0.7 < rate < 1.4


def _sin_sin_problem(A):
    """u = sin 2 pi x sin 2 pi y on (0,1)^2 under the coefficient A; the
    forcing A : D^2 u vanishes on the boundary, so ||b|| is small."""
    tp = 2.0 * np.pi
    exact = _product(lambda t: np.sin(tp * t), lambda t: tp * np.cos(tp * t),
                     lambda t: -tp * tp * np.sin(tp * t))
    hess = exact["exact_hess"]
    return ProblemData(name="sin-sin", bounds=(0.0, 1.0, 0.0, 1.0), A=A,
                       f=lambda x: np.einsum("...ij,...ij->...", A(x), hess(x)), **exact)


def _smooth_varying_A(x):
    X, Y = x[..., 0], x[..., 1]
    s = 0.9 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    a00 = 2.0 + 0.5 * np.cos(np.pi * X)
    return np.stack([np.stack([a00, s], -1), np.stack([s, np.full_like(X, 2.0)], -1)], -2)


# Lowest last L2 EOC over exp1 (kappa = 0.5) and exp3, default penalties, as
# measured: recovery-cg 1.23 at p = 1 (16^2 -> 32^2), and recovery-cg
# 2.75 / 3.02, recovery-dg 1.87 / 3.35, nsz 1.67 / 3.88 at p = 2 (16^2 -> 32^2)
# / p = 3 (8^2 -> 16^2), less a margin.  DG recovery and nsz start at p = 2
# (`bench._MIN_DEGREE`).  The sin-sin problem under the smooth varying A
# reads 1.20, and 2.91 / 4.38, 2.02 / 4.00, 1.94 / 3.84
L2_RATE_FLOOR = {
    ("recovery-cg", 1): 1.1,
    ("recovery-cg", 2): 2.5, ("recovery-cg", 3): 2.8,
    ("recovery-dg", 2): 1.7, ("recovery-dg", 3): 3.1,
    ("nsz", 2): 1.5, ("nsz", 3): 3.6,
}


_RATE_PROBLEMS = {
    "exp1": lambda: make_problem("exp1", kappa=0.5),
    "exp3": lambda: make_problem("exp3"),
    # the one problem outside the catalog, and the one gamma A that varies
    # inside cells
    "varying-A": lambda: _sin_sin_problem(_smooth_varying_A),
}


@pytest.mark.parametrize("name, scheme, p", [
    pytest.param(name, scheme, p, id="%s-%s-%d" % (name, scheme, p))
    for name in _RATE_PROBLEMS for scheme, p in sorted(L2_RATE_FLOOR)])
def test_every_scheme_converges_at_its_rates(name, scheme, p):
    # H1 at p and, from p = 2 on, H2_h at p - 1, each within 0.2, and L2 above
    # its floor, from the last step of two uniform meshes.  At p = 1 the
    # H2_h error does not converge (CG 57.2 -> 60.0 on exp1).  nsz on exp3 at
    # p = 2 is still pre-asymptotic in L2 and H1 at 32^2 (H1 EOC 1.71, 1.84
    # at 64^2), so only its floor and its H2_h rate are pinned.
    problem = _RATE_PROBLEMS[name]()
    errs, hs = [], []
    for n in ((8, 16) if p == 3 else (16, 32)):
        mesh = build_rect_mesh(*problem.bounds, n, n)
        sol = solve_problem(problem, mesh, p, scheme=scheme)
        assert sol.report.converged
        errs.append(error_norms(sol.u_h, _exact_dict(problem)))
        hs.append(mesh.h_max)
    l2, h1, h2h = (eoc(zip(hs, [getattr(e, k) for e in errs]))[0] for k in ("l2", "h1", "h2h"))
    assert l2 >= L2_RATE_FLOOR[scheme, p]
    if p >= 2:
        assert abs(h2h - (p - 1)) <= 0.2
    if (name, scheme, p) != ("exp3", "nsz", 2):
        assert abs(h1 - p) <= 0.2


def test_solve_discontinuous_coefficient():
    problem = make_problem("exp3")
    mesh = build_rect_mesh(-1, 1, -1, 1, 8, 8)
    sol = solve_problem(problem, mesh, p=2)
    assert sol.report.converged
    assert np.isclose(sol.cordes.epsilon, 0.6, atol=1e-12)
    err = error_norms(sol.u_h, _exact_dict(problem))
    assert err.l2 < 0.1


def test_cg_and_dg_recovery_agree():
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 8, 8)
    sol_cg = solve_problem(problem, mesh, p=2, scheme="recovery-cg")
    sol_dg = solve_problem(problem, mesh, p=2, scheme="recovery-dg")
    e_cg = error_norms(sol_cg.u_h, _exact_dict(problem))
    e_dg = error_norms(sol_dg.u_h, _exact_dict(problem))
    # different test spaces, same target: solutions agree to discretization error
    diff = np.abs(sol_cg.u_h.coeffs - sol_dg.u_h.coeffs).max()
    assert diff < 5.0 * max(e_cg.l2, e_dg.l2)


def test_solve_with_recovered_hessian():
    problem = make_problem("exp1")
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    sol = solve_problem(problem, mesh, p=2)
    H = recover_hessian(sol.system.hessian_op, sol.u_h)
    assert H[0][1].coeffs.shape == (sol.system.hessian_op.space_W.n_dofs,)


def test_preconditioner_reduces_iterations(monkeypatch):
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 16, 16)
    op = build_system(problem, mesh, p=2, eta1=1.0)
    b = assemble_rhs(op)
    P = build_preconditioner(op)
    _, rep_pre = gmres(op.apply, b, precond=P.solve, tol=1e-8)
    monkeypatch.setattr(solve_module, "MAX_ITER", 200)
    _, rep_raw = gmres(op.apply, b, tol=1e-8)
    assert rep_pre.converged
    assert rep_pre.iterations < rep_raw.iterations


@pytest.mark.parametrize("A, n, p", [
    (_const_matrix(np.eye(2)), 64, 2),
    (_smooth_varying_A, 32, 3),
], ids=["poisson-64-p2", "varying-A-32-p3"])
def test_solve_reaches_the_tolerance_it_reports(A, n, p):
    # one Arnoldi cycle stops on its recursive estimate while the true
    # residual is still above TOL * ||b||; GMRES restarts from its iterate
    sol = solve_problem(_sin_sin_problem(A), build_rect_mesh(0, 1, 0, 1, n, n), p)
    b_norm = float(np.linalg.norm(assemble_rhs(sol.system)))
    assert sol.report.converged
    assert sol.report.final_true_residual <= solve_module.TOL * b_norm


def test_gmres_restarts_from_its_iterate_within_one_cap(monkeypatch):
    # a preconditioner that rounds to single precision is not the linear map
    # GMRES assumes: the first cycle's estimate meets tol while its iterate
    # misses it by about 1e-7, and a restart from that iterate reaches tol
    rng = np.random.default_rng(9)
    n = 40
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    single = lambda r: r.astype(np.float32).astype(np.float64)
    stop = 1e-10 * np.linalg.norm(b)
    x, rep = gmres(lambda v: A @ v, b, precond=single, tol=1e-10)
    assert rep.converged and rep.final_true_residual <= stop
    assert rep.final_true_residual == float(np.linalg.norm(b - A @ x))
    # two cycles: the first one's estimates, then the restart's true initial
    # residual, above the stopping value, and the second one's estimates
    h = rep.residual_history
    assert len(h) == rep.iterations + 2
    first = int(np.argmax(np.diff(h) > 0))      # steps of the first cycle
    assert h[first] <= stop < h[first + 1]
    assert 0 < first < rep.iterations
    # the cycles share the cap: two steps past the first cycle end the solve
    monkeypatch.setattr(solve_module, "MAX_ITER", first + 2)
    _, capped = gmres(lambda v: A @ v, b, precond=single, tol=1e-10)
    assert capped.iterations == first + 2 and not capped.converged
    assert capped.residual_history[:first + 2] == h[:first + 2]


def test_solve_problem_reads_tol_at_each_call(monkeypatch):
    # one solve, judged against the module's TOL as it is when called
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    monkeypatch.setattr(solve_module, "TOL", 1e-300)
    assert not solve_problem(problem, mesh, p=2).report.converged
    monkeypatch.undo()
    assert solve_problem(problem, mesh, p=2).report.converged


@pytest.mark.parametrize("p", [2.5, True, np.float64(1.5)])
def test_solve_refuses_a_non_integral_degree(p):
    # truncated, 2.5 would solve at p = 2 and True at p = 1
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    with pytest.raises(ValueError, match="degree must be an integer"):
        solve_problem(problem, mesh, p)


def test_nsz_reports_an_unreachable_tol_as_not_converged(monkeypatch):
    # the factored solve starts GMRES, which judges it against TOL
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    monkeypatch.setattr(solve_module, "TOL", 1e-300)
    sol = solve_problem(problem, mesh, p=2, scheme="nsz")
    assert not sol.report.converged
    assert sol.report.final_true_residual > 1e-300


def test_nsz_default_tol_keeps_the_factored_solve():
    # at TOL GMRES takes no step, so u_h is the direct solve's
    # vector bit for bit
    problem = make_problem("exp1", kappa=0.9)
    mesh = build_rect_mesh(0, 1, 0, 1, 8, 8)
    sol = solve_problem(problem, mesh, p=2, scheme="nsz")
    V = sol.u_h.space
    K, rhs = assemble_nsz(V, _coefficient_sample(problem, V), 1.0)
    assert sol.report.iterations == 0
    assert np.array_equal(sol.u_h.coeffs, _factor(K).solve(rhs))


def test_dg_recovery_steps_when_the_assembled_system_is_perturbed(monkeypatch):
    # a starting guess off by more than tol after the refinement step is
    # corrected by GMRES steps; at 1 + 1e-6 the refinement alone meets tol
    problem = make_problem("exp3")
    mesh = build_rect_mesh(*problem.bounds, 8, 8)
    exact = solve_problem(problem, mesh, 2, scheme="recovery-dg")
    assert exact.report.iterations == 0

    def perturbed(op):
        P = build_preconditioner(op).matrix.copy()
        k = int(np.argmax(np.abs(P.diagonal()) * op.free_mask))
        P[k, k] *= 1.0 + 1e-4
        return Preconditioner(matrix=P, lu=_factor(P))

    monkeypatch.setattr(solve_module, "build_preconditioner", perturbed)
    sol = solve_problem(problem, mesh, 2, scheme="recovery-dg")
    assert sol.report.converged and sol.report.iterations >= 1
    assert np.abs(sol.u_h.coeffs - exact.u_h.coeffs).max() <= 1e-6 * np.abs(exact.u_h.coeffs).max()


def test_dg_recovery_does_not_follow_round_off_of_the_assembled_system(monkeypatch):
    # the refinement step against the matrix-free apply makes the solution a
    # function of the operator: a few ulps on every entry of K, which the DG
    # system amplifies about 1e7 times in a plain factored solve, move it by
    # round-off only
    problem = make_problem("exp3")
    mesh = build_rect_mesh(*problem.bounds, 16, 16)
    exact = solve_problem(problem, mesh, 2, scheme="recovery-dg").u_h.coeffs
    rng = np.random.default_rng(7)

    def scaled(op):
        P = build_preconditioner(op).matrix.copy()
        P.data *= 1.0 + 4.0 * np.finfo(float).eps * rng.choice([-1.0, 1.0], P.nnz)
        return Preconditioner(matrix=P, lu=_factor(P))

    monkeypatch.setattr(solve_module, "build_preconditioner", scaled)
    sol = solve_problem(problem, mesh, 2, scheme="recovery-dg")
    assert sol.report.iterations == 0
    assert np.abs(sol.u_h.coeffs - exact).max() < 1e-12 * np.abs(exact).max()


def test_nsz_solve_report_shape():
    problem = make_problem("exp1", kappa=0.5)
    mesh = build_rect_mesh(0, 1, 0, 1, 8, 8)
    sol = solve_problem(problem, mesh, p=2, scheme="nsz")
    assert sol.report.converged
    assert sol.report.iterations == 0
    assert sol.report.final_true_residual < 1e-8 * max(1.0, sol.report.residual_history[0])
