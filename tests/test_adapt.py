import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nondivfem.adapt
from nondivfem import adaptive_loop, eoc, ls_slope, make_problem
from nondivfem.adapt import AdaptiveRecord, _solve_and_estimate, doerfler_mark, initial_mesh
from nondivfem.solve import SolveReport


# ----------------------------------------------------------------------
# marking


def test_mark_takes_dominant_cell():
    # eta^2 = (9, 16); theta^2 * 25 = 16: the single largest cell suffices
    marked = doerfler_mark(np.array([3.0, 4.0]), theta=0.8)
    assert np.array_equal(marked, [1])
    # indicators whose squares would overflow or underflow
    assert np.array_equal(doerfler_mark(np.array([1.0, 1e200, 2.0]), 0.5), [1])
    assert np.array_equal(doerfler_mark(np.array([1e-170, 2e-170]), 0.5), [1])


def test_mark_all_equal():
    # equal indicators: need ceil(theta^2 N) cells
    N, theta = 100, 0.9
    marked = doerfler_mark(np.ones(N), theta=theta)
    assert len(marked) == int(np.ceil(theta**2 * N))


def test_mark_theta_one_marks_all_positive():
    eta = np.array([0.5, 0.0, 0.2, 1.0])
    marked = doerfler_mark(eta, theta=1.0)
    assert np.array_equal(np.sort(marked), [0, 2, 3])


def test_mark_guarantee_and_minimality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        eta = rng.uniform(0.0, 1.0, size=rng.integers(1, 40))
        theta = rng.uniform(0.05, 1.0)
        marked = doerfler_mark(eta, theta)
        total = np.sum(eta**2)
        got = np.sum(eta[marked] ** 2)
        assert got >= theta**2 * total * (1.0 - 1e-9)
        # dropping the smallest marked indicator must break the guarantee
        if len(marked) > 1:
            sub = np.sort(eta[marked] ** 2)[::-1][:-1]
            assert sub.sum() < theta**2 * total * (1.0 + 1e-9)


def test_mark_ignores_round_off_between_tied_cells():
    # cells 1 and 2 tie in exact arithmetic and the Doerfler cut falls
    # between them: the lower cell id is marked whichever side round-off
    # makes larger
    eta = np.array([3.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    for k in (1, 2):
        perturbed = eta.copy()
        perturbed[k] *= 1.0 + 1e-15
        assert np.array_equal(doerfler_mark(perturbed, theta=0.75), [0, 1])
    # mirror-image pairs perturbed at round-off level, at many cut positions
    rng = np.random.default_rng(8)
    half = rng.uniform(0.1, 1.0, size=50)
    eta = np.concatenate([half, half])
    noisy = eta * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], size=eta.size))
    for theta in np.linspace(0.1, 1.0, 19):
        assert np.array_equal(doerfler_mark(eta, theta), doerfler_mark(noisy, theta))


def test_mark_rejects_bad_input():
    with pytest.raises(ValueError):
        doerfler_mark(np.array([]), 0.5)
    with pytest.raises(ValueError):
        doerfler_mark(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        doerfler_mark(np.array([1.0]), 1.5)
    # an infinite indicator would go unmarked and a NaN would mark nothing
    for eta in ([1.0, np.inf, 2.0], [np.nan, 1.0, 2.0], [1.0, -np.inf], [1.0, -0.5, 2.0]):
        with pytest.raises(ValueError, match="finite and >= 0"):
            doerfler_mark(np.array(eta), 0.5)
    for eta in (np.ones((2, 2)), np.ones((3, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape("1-D array, not of shape %s" % (eta.shape,))):
            doerfler_mark(eta, 0.5)


def test_mark_all_zero_marks_nothing():
    assert len(doerfler_mark(np.zeros(5), 0.5)) == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e300, allow_nan=False), min_size=1, max_size=60),
    st.floats(min_value=0.01, max_value=1.0),
)
@example([9.999999999999998, 10.0], 0.5)
@example([1.0, 1e200, 2.0], 0.5)
@example([1e-170, 2e-170], 0.5)
def test_mark_properties(vals, theta):
    eta = np.array(vals)
    marked = doerfler_mark(eta, theta)
    assert len(np.unique(marked)) == len(marked)
    if eta.max() > 0:
        # the criterion is invariant under scaling; scaled by the largest
        # indicator, the squares stay finite from 1e-300 to 1e300
        sq = (eta / eta.max()) ** 2
        assert np.sum(sq[marked]) >= theta**2 * np.sum(sq) * (1.0 - 1e-9)
        # the largest indicators tie when they agree to 12 digits relative to
        # the largest, and ties break by cell id: the lowest id of the top
        # group is always marked
        rounded = np.round(sq, 12)
        assert int(np.argmax(rounded)) in marked
    else:
        assert len(marked) == 0


# ----------------------------------------------------------------------
# the adaptive loop


def test_initial_mesh_uses_problem_defaults():
    m = initial_mesh(make_problem("exp3"))
    assert m.n_cells == 2 * 5 * 5
    assert np.isclose(m.vertices[:, 0].min(), -1.0)
    m8 = initial_mesh(make_problem("exp1"), n=8)
    assert m8.n_cells == 2 * 8 * 8


def test_adaptive_loop_structure():
    problem = make_problem("exp1", kappa=0.5)
    records = adaptive_loop(problem, p=2, theta=0.7, max_dofs=2000)
    assert len(records) >= 3
    n = [r.n_dofs for r in records]
    assert all(b > a for a, b in zip(n, n[1:]))
    assert n[-1] <= 2000
    assert [f.name for f in dataclasses.fields(AdaptiveRecord)] == [
        "n_dofs", "h_max", "errors", "eta_global", "report"]
    for r in records:
        assert isinstance(r.report, SolveReport)
        assert r.report.converged and r.report.iterations >= 1
        assert r.eta_global > 0
        assert r.errors is not None
        assert np.isfinite(r.h_max)


def test_adaptive_loop_rejects_initial_mesh_over_budget():
    # 4x4 cells at p = 2 have 81 dofs: no level fits, so no record
    with pytest.raises(ValueError, match="max_dofs"):
        adaptive_loop(make_problem("exp2"), p=2, max_dofs=80)


@pytest.mark.parametrize("max_dofs", [2.5, True, np.inf, np.nan, 0])
def test_adaptive_loop_refuses_a_budget_that_is_not_a_count(max_dofs, monkeypatch):
    # with inf or nan, `n_dofs > max_dofs` never holds and an exp2 study
    # would refine until memory runs out; nothing may be solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with max_dofs = %r" % (max_dofs,))

    monkeypatch.setattr(nondivfem.adapt, "solve_problem", no_solve)
    with pytest.raises(ValueError, match="max_dofs must be an integer >= 1"):
        adaptive_loop(make_problem("exp2"), p=2, max_dofs=max_dofs)


def test_adaptive_loop_refuses_a_non_integral_degree():
    # truncated, p = 2.5 would solve at p = 2 and count 33.0 dofs for 25;
    # with max_dofs = 10 the degree, not the dof count of p = 2.5, is named
    for max_dofs in (100, 10):
        with pytest.raises(ValueError, match="degree must be an integer"):
            adaptive_loop(make_problem("exp2"), p=2.5, max_dofs=max_dofs,
                          mesh=initial_mesh(make_problem("exp2"), 2))


@pytest.mark.parametrize("theta", [1.5, np.nan, 0.0, -0.5, np.inf])
def test_adaptive_loop_refuses_theta_outside_the_unit_interval(theta, monkeypatch):
    # doerfler_mark refuses it too, but only after the first level has
    # been solved and estimated; nothing may be solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with theta = %r" % (theta,))

    monkeypatch.setattr(nondivfem.adapt, "solve_problem", no_solve)
    with pytest.raises(ValueError, match=r"theta must be in \(0, 1\]"):
        adaptive_loop(make_problem("exp2"), p=2, theta=theta, max_dofs=1000)


def test_adaptive_loop_estimator_decreases():
    problem = make_problem("exp1", kappa=0.5)
    records = adaptive_loop(problem, p=2, theta=0.9, max_dofs=3000)
    eta = [r.eta_global for r in records]
    assert eta[-1] < eta[0]


def test_adaptive_matches_uniform_rate_for_smooth_solution():
    # adaptivity cannot be worse than uniform refinement on a smooth
    # problem; the estimator-vs-dofs slope should be about -(p-1)/2 = -1/2
    problem = make_problem("exp1", kappa=0.5)
    records = adaptive_loop(problem, p=2, theta=0.9, max_dofs=4000)
    n = np.array([r.n_dofs for r in records], dtype=float)
    eta = np.array([r.eta_global for r in records])
    from nondivfem import ls_slope

    slope = ls_slope(n[2:], eta[2:])
    assert -0.75 < slope < -0.3


def test_exp4_adaptivity_restores_the_optimal_estimator_rate():
    # exp4's A jumps along y = x^3, which no mesh follows, so D2 u jumps
    # there and u lies in H^(5/2 - delta) only: uniform meshes give h^(1/2),
    # a slope of -1/4 in the dofs, where the optimal rate at p = 2 is
    # h^(p - 1), a slope of -1/2.  Measured: adaptive, theta = 0.9, 11 levels
    # to 15000 dofs, slope -0.498 over the last five; uniform 8^2-32^2 -0.225
    # (-0.280 to 64^2).  The tolerance 0.15 is criterion 5's for exp2.
    problem = make_problem("exp4")
    records = adaptive_loop(problem, p=2, theta=0.9, max_dofs=15000)
    assert all(r.report.converged for r in records)
    last = records[-5:]
    slope = ls_slope([r.n_dofs for r in last], [r.eta_global for r in last])
    assert abs(slope - (-0.5)) <= 0.15
    uniform = [_solve_and_estimate(problem, initial_mesh(problem, n), 2)[0] for n in (8, 16, 32)]
    s_unif = ls_slope([r.n_dofs for r in uniform], [r.eta_global for r in uniform])
    assert abs(s_unif - (-0.25)) < abs(s_unif - (-0.5))


def test_adaptive_loop_no_exact_solution():
    problem = make_problem("exp4")
    records = adaptive_loop(problem, p=2, theta=0.9, max_dofs=1500)
    assert all(r.errors is None for r in records)
    assert records[-1].eta_global < records[0].eta_global
