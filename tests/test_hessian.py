import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nondivfem import (
    assemble_mass_W,
    bisect,
    build_hessian_operator,
    build_rect_mesh,
    build_space,
    interpolate,
    recover_hessian,
)
from nondivfem import hessian
from nondivfem.hessian import assemble_C
from nondivfem.space import evaluate, facet_quadrature, physical_points, quadrature

from fe_oracle import pullback_points, tabulate_at


def _mesh(n=2):
    return build_rect_mesh(0, 1, 0, 1, n, n)


def _randomly_bisected_mesh(seed, rounds=3):
    rng = np.random.default_rng(seed)
    mesh = _mesh(2)
    for _ in range(rounds):
        marked = rng.choice(mesh.n_cells, size=max(1, mesh.n_cells // 3), replace=False)
        mesh = bisect(mesh, marked)
    return mesh


def test_mass_matrix_basic_properties():
    m = _mesh(2)
    for cont in ("CG", "DG"):
        W = build_space(m, 2, cont)
        M = assemble_mass_W(W)
        assert M.shape == (W.n_dofs, W.n_dofs)
        # integrating 1*1 over the domain
        one = np.ones(W.n_dofs)
        assert np.isclose(one @ (M @ one), 1.0, atol=1e-13)
        assert abs(M - M.T).max() < 1e-13


def test_dg_mass_matrix_is_block_diagonal():
    m = _mesh(2)
    W = build_space(m, 2, "DG")
    M = assemble_mass_W(W).tocoo()
    # each dof belongs to exactly one cell; couplings stay inside the cell
    cell_of = np.repeat(np.arange(m.n_cells), 6)
    assert np.array_equal(cell_of[M.row], cell_of[M.col])


def test_recovery_operator_shapes():
    m = _mesh(2)
    V = build_space(m, 2, "CG")
    for mode in ("CG", "DG"):
        op = build_hessian_operator(V, mode)
        for i in range(2):
            for j in range(2):
                assert op.C[i][j].shape == (op.space_W.n_dofs, V.n_dofs)


def _pointwise_C(V, W):
    """Dense C_ij summed cell by cell, facet by facet and point by point.

    Volume: -int_T d_i(phi_l) d_j(psi_k).  Facets: int_F {d_i phi_l} psi_k n_j
    with n the outward normal of the cell carrying psi; boundary facets
    always, interior facets only for a DG test space.  Normals come from
    the cell geometry, not from the mesh's facet orientation.
    """
    mesh = V.mesh
    p = V.degree
    dense = np.zeros((2, 2, W.n_dofs, V.n_dofs))
    q = quadrature(2 * p + 2)
    gV_ref = V.ref.tabulate_grad(q.points)                 # (q, nV, 2)
    gW_ref = W.ref.tabulate_grad(q.points)
    for c in range(mesh.n_cells):
        Jinv = mesh.cell_inv_jacobians[c]
        for t, w in enumerate(q.weights):
            gV = gV_ref[t] @ Jinv                          # physical gradients (nV, 2)
            gW = gW_ref[t] @ Jinv
            for i in range(2):
                for j in range(2):
                    dense[i, j][np.ix_(W.dof_map[c], V.dof_map[c])] -= (
                        w * mesh.cell_det[c] * np.outer(gW[:, j], gV[:, i])
                    )

    def to_ref(c, x):
        return mesh.cell_inv_jacobians[c] @ (x - mesh.vertices[mesh.cells[c, 0]])

    tq, wq = facet_quadrature(2 * p + 4)
    for f in range(mesh.n_facets):
        cells = [c for c in mesh.facet_cells[f] if c >= 0]
        if len(cells) == 2 and W.continuity == "CG":
            continue
        va, vb = mesh.vertices[mesh.facets[f]]
        length = np.linalg.norm(vb - va)
        for c_test in cells:
            n = np.array([vb[1] - va[1], va[0] - vb[0]]) / length
            if n @ (0.5 * (va + vb) - mesh.vertices[mesh.cells[c_test]].mean(axis=0)) < 0:
                n = -n
            for t, w in zip(tq, wq):
                x = va + t * (vb - va)
                psi = W.ref.tabulate(to_ref(c_test, x)[None])[0]
                for c_tr in cells:
                    g = V.ref.tabulate_grad(to_ref(c_tr, x)[None])[0] @ mesh.cell_inv_jacobians[c_tr]
                    for i in range(2):
                        for j in range(2):
                            dense[i, j][np.ix_(W.dof_map[c_test], V.dof_map[c_tr])] += (
                                w * length / len(cells) * n[j] * np.outer(psi, g[:, i])
                            )
    return dense


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("continuity", ["CG", "DG"])
def test_assemble_C_matches_pointwise_quadrature(p, continuity):
    mesh = _randomly_bisected_mesh(seed=p)
    V = build_space(mesh, p, "CG")
    W = build_space(mesh, p, continuity)
    C = assemble_C(V, W)
    dense = _pointwise_C(V, W)
    for i in range(2):
        for j in range(2):
            scale = np.abs(dense[i, j]).max()
            assert np.abs(C[i][j].toarray() - dense[i, j]).max() <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["CG", "DG"]),
)
def test_assemble_C_matches_the_oracle_on_random_meshes(seed, nx, ny, rounds, p, continuity):
    # same-cell facet terms are folded into the cell blocks, and the four
    # blocks are converted from one set of coordinates; neither may change
    # a single entry
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(0, rng.uniform(0.5, 2), 0, rng.uniform(0.5, 2), nx, ny)
    for _ in range(rounds):
        mesh = bisect(mesh, rng.choice(mesh.n_cells, size=max(1, mesh.n_cells // 3), replace=False))
    V = build_space(mesh, p, "CG")
    W = build_space(mesh, p, continuity)
    C = assemble_C(V, W)
    dense = _pointwise_C(V, W)
    for i in range(2):
        for j in range(2):
            scale = np.abs(dense[i, j]).max()
            assert np.abs(C[i][j].toarray() - dense[i, j]).max() <= 1e-12 * scale
    assert np.array_equal(C[0][1].indptr, C[1][0].indptr)
    assert np.array_equal(C[0][1].indices, C[1][0].indices)


@pytest.mark.parametrize("continuity", ["CG", "DG"])
def test_assemble_C_scatters_one_block_per_cell_and_coupling(monkeypatch, continuity):
    # every facet term with trial side == test side lands in its cell's
    # block; only the two cross terms of an interior facet stay separate,
    # scattered on their own and testing just the p + 1 functions of the
    # facet's edge.  The stacks hold the three components C_00, C_01, C_11
    shapes = []
    scatter = hessian.scatter

    def recording(blocks, rows, cols, shape):
        shapes.append(blocks.shape)
        return scatter(blocks, rows, cols, shape)

    monkeypatch.setattr(hessian, "scatter", recording)
    mesh = _randomly_bisected_mesh(seed=4)
    for p in (1, 2, 3):
        shapes.clear()
        V = build_space(mesh, p, "CG")
        assemble_C(V, build_space(mesh, p, continuity))
        n_loc = V.ref.n_basis
        assert shapes[0] == (3, mesh.n_cells, n_loc, n_loc)
        if continuity == "DG":
            assert shapes[1:] == [(3, 2 * len(mesh.interior_facets()), p + 1, n_loc)]
        else:
            assert len(shapes) == 1


@pytest.mark.parametrize("continuity, sides", [("CG", [0]), ("DG", [0, 0, 1])])
def test_assemble_C_traces_each_facet_side_once(monkeypatch, continuity, sides):
    # W has V's degree, so one trace evaluation per side of each facet group
    # (the boundary's plus side; on DG also both interior sides) gives the
    # trial gradients and the test values alike
    calls = []
    traces = hessian.facet_traces

    def recording(space, facets, side, t):
        calls.append(side)
        return traces(space, facets, side, t)

    monkeypatch.setattr(hessian, "facet_traces", recording)
    mesh = _randomly_bisected_mesh(seed=4)
    for p in (1, 2, 3):
        calls.clear()
        assemble_C(build_space(mesh, p, "CG"), build_space(mesh, p, continuity))
        assert sorted(calls) == sides


def test_assemble_C_refuses_a_test_space_of_another_degree():
    mesh = _randomly_bisected_mesh(seed=4)
    with pytest.raises(ValueError, match="degree 2, got 3"):
        assemble_C(build_space(mesh, 2, "CG"), build_space(mesh, 3, "DG"))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("mode", ["CG", "DG"])
def test_C_01_equals_C_10_without_round_off_entries(p, mode):
    # tangential derivatives of a C0 trial function are continuous, so the
    # mixed blocks agree and one matrix serves both (the oracle tests above
    # check C_10 on its own); entries that vanish in exact arithmetic are
    # not stored
    mesh = _randomly_bisected_mesh(seed=10 + p)
    op = build_hessian_operator(build_space(mesh, p, "CG"), mode)
    assert op.C[1][0] is op.C[0][1]
    for blk in (op.C[0][0], op.C[0][1], op.C[1][1], op.C_trace):
        assert np.abs(blk.data).min() >= 1e-12 * np.abs(blk.data).max()


@pytest.mark.parametrize("mode", ["CG", "DG"])
def test_recover_hessian_solves_three_components(monkeypatch, mode):
    op = build_hessian_operator(build_space(_randomly_bisected_mesh(seed=5), 2, "CG"), mode)
    u = np.random.default_rng(5).standard_normal(op.space_V.n_dofs)
    calls = []
    solve = op.mass_solve

    def counting(rhs):
        calls.append(rhs)
        return solve(rhs)

    monkeypatch.setattr(op, "mass_solve", counting)
    H = recover_hessian(op, u)
    assert len(calls) == 3
    assert H[1][0] is H[0][1]
    for i, j in ((0, 0), (0, 1), (1, 1)):
        assert np.array_equal(H[i][j].coeffs, solve(op.C[i][j] @ u))


@pytest.mark.parametrize("mode", ["CG", "DG"])
def test_recover_quadratics(mode):
    m = _mesh(2)
    V = build_space(m, 2, "CG")
    op = build_hessian_operator(V, mode)

    cases = [
        (lambda x: x[:, 0] ** 2, np.array([[2.0, 0.0], [0.0, 0.0]])),
        (lambda x: x[:, 0] * x[:, 1], np.array([[0.0, 1.0], [1.0, 0.0]])),
        (lambda x: x[:, 0] + 3 * x[:, 1] - 1, np.zeros((2, 2))),
        (lambda x: x[:, 0] ** 2 + x[:, 1] ** 2, 2 * np.eye(2)),
    ]
    for f, H_exact in cases:
        u = interpolate(V, f)
        H = recover_hessian(op, u.coeffs)
        for i in range(2):
            for j in range(2):
                assert np.abs(H[i][j].coeffs - H_exact[i, j]).max() < 1e-10


@pytest.mark.parametrize("mode", ["CG", "DG"])
@pytest.mark.parametrize("p", [2, 3])
def test_recover_global_polynomial_exactly(mode, p):
    # u in P_p(Omega) and continuous: the recovered field equals the
    # true Hessian because all jump terms vanish
    m = _mesh(3)
    V = build_space(m, p, "CG")
    op = build_hessian_operator(V, mode)

    def f(x):
        return x[:, 0] ** p - 2 * x[:, 0] * x[:, 1] ** (p - 1)

    u = interpolate(V, f)
    H = recover_hessian(op, u.coeffs)
    q = quadrature(2 * p)
    pts = physical_points(m, np.arange(m.n_cells), np.broadcast_to(q.points, (m.n_cells,) + q.points.shape))
    X, Y = pts[..., 0], pts[..., 1]
    exact = {
        (0, 0): p * (p - 1) * X ** (p - 2),
        (0, 1): -2 * (p - 1) * Y ** (p - 2),
        (1, 1): -2 * (p - 1) * (p - 2) * X * Y ** max(p - 3, 0),
    }
    for (i, j), E in exact.items():
        vals, _, _ = evaluate(H[i][j], q)
        assert np.abs(vals - E).max() < 1e-9


def test_recovery_is_linear():
    m = _mesh(2)
    V = build_space(m, 2, "CG")
    op = build_hessian_operator(V, "DG")
    rng = np.random.default_rng(7)
    u = rng.standard_normal(V.n_dofs)
    v = rng.standard_normal(V.n_dofs)
    a, b = 0.3, -1.7
    Hu = recover_hessian(op, u)
    Hv = recover_hessian(op, v)
    Hw = recover_hessian(op, a * u + b * v)
    for i in range(2):
        for j in range(2):
            err = np.abs(Hw[i][j].coeffs - a * Hu[i][j].coeffs - b * Hv[i][j].coeffs).max()
            assert err < 1e-12


def test_trace_matches_laplacian():
    # the system and its right-hand side test with C_trace: it must be
    # exactly C_00 + C_11 but for the round-off where the two cancel (below
    # 1e-12 of the largest entry), so that it recovers the trace of the Hessian
    V = build_space(_mesh(3), 2, "CG")
    u = np.random.default_rng(3).standard_normal(V.n_dofs)
    for mode in ("CG", "DG"):
        op = build_hessian_operator(V, mode)
        full = (op.C[0][0] + op.C[1][1]).tocsr()
        full.data[np.abs(full.data) < 1e-12 * np.abs(full.data).max()] = 0.0
        full.eliminate_zeros()
        assert op.C_trace.nnz == full.nnz
        assert abs(op.C_trace - full).max() == 0.0
        H = recover_hessian(op, u)
        lap = op.mass_solve(op.C_trace @ u)
        assert np.abs(lap - H[0][0].coeffs - H[1][1].coeffs).max() < 1e-10


def _dense_dg_oracle(V, u):
    """Assemble the DG recovery right-hand sides by brute-force loops.

    Independent of the production code paths: dense matrices, explicit
    per-facet quadrature, and direct solves with numpy.
    """
    mesh = V.mesh
    W = build_space(mesh, V.degree, "DG")
    q = quadrature(2 * V.degree + 2)
    tq, wq = facet_quadrature(2 * V.degree + 2)

    M = assemble_mass_W(W).toarray()
    rhs = np.zeros((2, 2, W.n_dofs))

    # volume: -int grad(u)_i d_j(psi)
    refpts = np.broadcast_to(q.points, (mesh.n_cells,) + q.points.shape)
    cells = np.arange(mesh.n_cells)
    _, gV = tabulate_at(V, cells, refpts)
    _, gW = tabulate_at(W, cells, refpts)
    uloc = u[V.dof_map]
    for c in range(mesh.n_cells):
        det = mesh.cell_det[c]
        for t in range(len(q.weights)):
            gu = gV[c, t] .T @ uloc[c]
            for k in range(W.ref.n_basis):
                for i in range(2):
                    for j in range(2):
                        rhs[i, j, W.dof_map[c, k]] -= q.weights[t] * det * gu[i] * gW[c, t, k, j]

    # facets: every facet gets {grad u} . [psi n]
    for f in range(mesh.n_facets):
        va, vb = mesh.vertices[mesh.facets[f]]
        pts = va[None, :] + tq[:, None] * (vb - va)[None, :]
        length = np.linalg.norm(vb - va)
        nrm = mesh.facet_normals[f]
        plus, minus = mesh.facet_cells[f]
        sides = [(plus, 1.0)] if minus < 0 else [(plus, -1.0), (minus, 1.0)]
        avg_w = 1.0 if minus < 0 else 0.5
        for c_test, sgn in sides:
            ref = pullback_points(mesh, np.array([c_test]), pts[None])
            vals_w, _ = tabulate_at(W, np.array([c_test]), ref)
            # average of grad u over the available sides
            gu_avg = np.zeros((len(pts), 2))
            for c_tr, _ in sides:
                ref_tr = pullback_points(mesh, np.array([c_tr]), pts[None])
                _, g_tr = tabulate_at(V, np.array([c_tr]), ref_tr)
                gu_avg += avg_w * np.einsum("tli,l->ti", g_tr[0], uloc[c_tr])
            for t in range(len(tq)):
                for k in range(W.ref.n_basis):
                    for i in range(2):
                        for j in range(2):
                            rhs[i, j, W.dof_map[c_test, k]] += (
                                wq[t] * length * gu_avg[t, i] * vals_w[0, t, k] * sgn * nrm[j]
                            )

    out = {}
    for i in range(2):
        for j in range(2):
            out[(i, j)] = np.linalg.solve(M, rhs[i, j])
    return out


def test_dg_recovery_against_dense_oracle():
    m = _mesh(1)
    V = build_space(m, 2, "CG")
    op = build_hessian_operator(V, "DG")
    rng = np.random.default_rng(11)
    u = rng.standard_normal(V.n_dofs)
    H = recover_hessian(op, u)
    oracle = _dense_dg_oracle(V, u)
    for i in range(2):
        for j in range(2):
            assert np.abs(H[i][j].coeffs - oracle[(i, j)]).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
def test_cellwise_dg_mass_factor_is_exact(seed, p):
    # the DG mass matrix is factored cell by cell; its factors, solves and
    # fill must be those of a sparse LU of the assembled matrix
    rng = np.random.default_rng(seed)
    op = build_hessian_operator(build_space(_randomly_bisected_mesh(seed), p, "CG"), "DG")
    M, lu = op.M_W, op.M_lu
    assert abs(lu.L @ lu.U - M).max() <= 1e-14 * abs(M).max()
    superlu = sp.linalg.splu(M.tocsc())
    for b in (rng.standard_normal(M.shape[0]), rng.standard_normal((M.shape[0], 3))):
        x = op.mass_solve(b)
        assert x.shape == b.shape
        assert np.abs(x - superlu.solve(b)).max() <= 1e-13 * np.abs(x).max()
        assert np.linalg.norm(M @ x - b) <= 1e-14 * np.linalg.norm(b)
    assert lu.L.nnz + lu.U.nnz == superlu.L.nnz + superlu.U.nnz


def test_cg_recovery_tests_with_its_trial_space():
    V = build_space(_randomly_bisected_mesh(seed=1), 2, "CG")
    assert build_hessian_operator(V, "CG").space_W is V
    W = build_hessian_operator(V, "DG").space_W
    assert W is not V
    assert (W.continuity, W.degree, W.mesh) == ("DG", 2, V.mesh)


def test_recovery_is_l2_projection_for_smooth_u():
    # when u is a single global polynomial its recovered Hessian solves
    # M h = M (exact Hessian dofs) up to quadrature error, i.e. recovery
    # is the L2 projection of the true Hessian
    m = _mesh(2)
    V = build_space(m, 3, "CG")
    op = build_hessian_operator(V, "CG")
    u = interpolate(V, lambda x: x[:, 0] ** 3 + x[:, 1] ** 3 - x[:, 0] * x[:, 1])
    H = recover_hessian(op, u.coeffs)

    W = op.space_W
    M = assemble_mass_W(W).tocsc()
    q = quadrature(2 * W.degree + 2)
    refpts = np.broadcast_to(q.points, (m.n_cells,) + q.points.shape)
    cells = np.arange(m.n_cells)
    vals_w, _ = tabulate_at(W, cells, refpts)
    pts = physical_points(m, cells, refpts)
    X, Y = pts[..., 0], pts[..., 1]
    targets = {(0, 0): 6 * X, (0, 1): -np.ones_like(X), (1, 1): 6 * Y}
    lu = sp.linalg.splu(M)
    for (i, j), E in targets.items():
        b = np.zeros(W.n_dofs)
        contrib = np.einsum("q,cq,cqk,c->ck", q.weights, E, vals_w, m.cell_det)
        np.add.at(b, W.dof_map, contrib)
        proj = lu.solve(b)
        assert np.abs(H[i][j].coeffs - proj).max() < 1e-10


def _h2_seminorm_error_of_recovery(mode, mesh):
    V = build_space(mesh, 2, "CG")
    op = build_hessian_operator(V, mode)
    u = interpolate(V, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    H = recover_hessian(op, u.coeffs)
    q = quadrature(8)
    cells = np.arange(mesh.n_cells)
    pts = physical_points(mesh, cells, np.broadcast_to(q.points, (mesh.n_cells,) + q.points.shape))
    X, Y = pts[..., 0], pts[..., 1]
    pi2 = np.pi**2
    exact = {
        (0, 0): -pi2 * np.sin(np.pi * X) * np.sin(np.pi * Y),
        (0, 1): pi2 * np.cos(np.pi * X) * np.cos(np.pi * Y),
        (1, 1): -pi2 * np.sin(np.pi * X) * np.sin(np.pi * Y),
    }
    err2 = 0.0
    for (i, j), E in exact.items():
        vals, _, _ = evaluate(H[i][j], q)
        fac = 1.0 if i == j else 2.0
        err2 += fac * np.einsum("q,cq,c->", q.weights, (vals - E) ** 2, mesh.cell_det)
    return np.sqrt(err2)


def test_recovery_error_decreases_under_refinement():
    # DG recovery converges at first order for p=2; CG recovery does at
    # least as well (superconvergence on structured meshes pushes the
    # observed factor well past 2)
    m1, m2 = _mesh(4), _mesh(8)
    e_dg = [_h2_seminorm_error_of_recovery("DG", m) for m in (m1, m2)]
    factor_dg = e_dg[0] / e_dg[1]
    assert 1.6 < factor_dg < 2.4

    e_cg = [_h2_seminorm_error_of_recovery("CG", m) for m in (m1, m2)]
    assert e_cg[0] / e_cg[1] > 1.6


def test_recovery_stable_over_refinement_levels():
    # recovered Hessian of an interpolated smooth function stays bounded
    mesh = _mesh(2)
    bound = None
    for _ in range(4):
        V = build_space(mesh, 2, "CG")
        op = build_hessian_operator(V, "DG")
        u = interpolate(V, lambda x: np.exp(x[:, 0]) * np.sin(2 * x[:, 1]))
        H = recover_hessian(op, u.coeffs)
        mx = max(np.abs(H[i][j].coeffs).max() for i in range(2) for j in range(2))
        if bound is None:
            bound = 2.0 * mx
        assert mx < bound
        for _ in range(2):
            mesh = bisect(mesh, np.arange(mesh.n_cells))
