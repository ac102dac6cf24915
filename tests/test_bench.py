import dataclasses
import inspect
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

import nondivfem.adapt
import nondivfem.solve
from nondivfem.bench import (
    CSV_HEADER,
    RunConfig,
    build_parser,
    main,
    run_convergence,
    run_iteration_table,
    run_scheme_comparison,
    write_csv,
)


# the benchmark's workloads and its gate on their CSVs, read from perfbench/
_WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))


def _read_csv(path):
    """(header, rows) of a harness CSV; empty fields become None."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [[None if tok == "" else float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return lines[0].split(","), rows


def _tiny_uniform(**kw):
    base = dict(experiment="exp1", degree=2, levels=2, initial_n=2, params={"kappa": 0.5})
    base.update(kw)
    return RunConfig(**base)


# ----------------------------------------------------------------------
# CSV layer


def test_csv_header_is_fixed():
    assert CSV_HEADER == ["Ndofs", "h_max", "L2_error", "H1_error", "H2h_error",
                          "Eta_global", "iterations"]


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "out.csv")
    rows = [[25, 0.3535, 1e-3, None, 0.125, 2.5e-1, 16], [81, 0.1767, 9.9e-5, 0.5, None, 1e-1, 16]]
    write_csv(path, CSV_HEADER, rows)
    header, back = _read_csv(path)
    assert header == CSV_HEADER
    for r0, r1 in zip(rows, back):
        for a, b in zip(r0, r1):
            if a is None:
                assert b is None
            else:
                assert b == float(a)


def test_csv_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_convergence(_tiny_uniform(out=p1))
    run_convergence(_tiny_uniform(out=p2))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_uniform(experiment="poisson").validate()
    with pytest.raises(ValueError):
        _tiny_uniform(degree=0).validate()
    with pytest.raises(ValueError):
        _tiny_uniform(refinement="random").validate()
    with pytest.raises(ValueError):
        RunConfig(experiment="exp1", refinement="adaptive", theta=0.0).validate()
    with pytest.raises(ValueError):
        _tiny_uniform(eta1=-1.0).validate()
    with pytest.raises(ValueError):
        _tiny_uniform(scheme="fdm").validate()
    # the degree contract: DG recovery and nsz need p >= 2, CG recovery p >= 1
    for scheme in ("recovery-dg", "nsz"):
        with pytest.raises(ValueError, match="%s needs degree >= 2" % scheme):
            _tiny_uniform(scheme=scheme, degree=1).validate()
    _tiny_uniform(degree=1).validate()
    # NaN fails every comparison, so it must not slip through a "< 0" test
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            _tiny_uniform(eta1=value).validate()
    # a count below 1, all that the CLI can pass, keeps the short message
    for value in (0, -3, np.int64(0)):
        with pytest.raises(ValueError, match="^levels must be >= 1$"):
            _tiny_uniform(levels=value).validate()
        with pytest.raises(ValueError, match="^max_dofs must be >= 1$"):
            RunConfig(experiment="exp2", refinement="adaptive", max_dofs=value).validate()
    # a field the chosen refinement never reads must keep its default
    for refinement, name, value in (("uniform", "theta", 0.5), ("uniform", "max_dofs", 1),
                                    ("adaptive", "levels", 2)):
        with pytest.raises(ValueError, match=name):
            RunConfig(experiment="exp1", refinement=refinement, **{name: value}).validate()


def test_uniform_study_rejects_adaptive_settings():
    config = RunConfig(experiment="exp1", params={"kappa": 0.9}, levels=1, initial_n=2,
                       theta=0.5, max_dofs=1)
    with pytest.raises(ValueError, match="theta"):
        run_convergence(config)
    # compare runs every scheme at each of its degrees: a config scheme or
    # degree would be ignored
    for unused in (dict(scheme="nsz", degree=3), dict(degree=3)):
        config = RunConfig(experiment="exp1", levels=1, initial_n=2, **unused)
        with pytest.raises(ValueError, match="is not used by compare"):
            run_scheme_comparison(config, degrees=(2,))


def test_scheme_comparison_refuses_adaptive_refinement(tmp_path, monkeypatch):
    # compare solves uniform meshes only: an adaptive config would come back
    # as uniform rows past its max_dofs, with no failure named
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a cell")

    monkeypatch.setattr("nondivfem.bench._solve_and_estimate", no_solve)
    out = tmp_path / "x.csv"
    config = RunConfig(experiment="exp1", refinement="adaptive", theta=0.5, max_dofs=50,
                       initial_n=2, out=str(out))
    with pytest.raises(ValueError, match="refinement is not used by compare"):
        run_scheme_comparison(config, degrees=(2,))
    assert not out.exists()


@pytest.mark.parametrize("degree", [2.5, True])
def test_study_refuses_a_non_integral_degree(tmp_path, degree):
    # truncated, degree 2.5 would write the p = 2 row and report converged
    out = tmp_path / "x.csv"
    config = RunConfig(experiment="exp1", degree=degree, levels=1, initial_n=2, out=str(out))
    with pytest.raises(ValueError, match="degree must be an integer"):
        run_convergence(config)
    assert not out.exists()


def test_study_takes_an_integral_degree_of_any_number_type():
    rows = [run_convergence(_tiny_uniform(degree=p, levels=1))[0] for p in (2, 2.0, np.int64(2))]
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("refinement", ["uniform", "adaptive"])
def test_study_refuses_a_fractional_initial_n(refinement):
    # truncated, 2.5 cells per side would build the 2 x 2 mesh; True, which
    # `initial_n * 2**level` turns into the int 1, would build the 1 x 1 one
    levels = dict(levels=1) if refinement == "uniform" else {}
    for initial_n in (2.5, True, np.True_):
        config = RunConfig(experiment="exp1", params={"kappa": 0.5}, refinement=refinement,
                           initial_n=initial_n, **levels)
        with pytest.raises(ValueError, match="integers"):
            run_convergence(config)


@pytest.mark.parametrize("refinement, name, value", [
    ("uniform", "levels", 2.5), ("uniform", "levels", True), ("uniform", "levels", np.inf),
    ("uniform", "levels", np.nan), ("adaptive", "max_dofs", 2.5),
    ("adaptive", "max_dofs", True), ("adaptive", "max_dofs", np.inf),
    ("adaptive", "max_dofs", np.nan), ("adaptive", "max_dofs", np.True_)])
def test_study_refuses_counts_that_are_not_integers(tmp_path, monkeypatch, refinement, name,
                                                     value):
    # a max_dofs of inf or nan would never end an exp2 study, so the
    # refusal must come before anything is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with %s = %r" % (name, value))

    monkeypatch.setattr(nondivfem.adapt, "solve_problem", no_solve)
    out = tmp_path / "x.csv"
    config = RunConfig(experiment="exp2", refinement=refinement, initial_n=2, out=str(out),
                       **{name: value})
    with pytest.raises(ValueError, match="%s must be an integer >= 1" % name):
        run_convergence(config)
    assert not out.exists()


# ----------------------------------------------------------------------
# studies


def test_uniform_study_rows(tmp_path):
    path = str(tmp_path / "u.csv")
    rows, ok = run_convergence(_tiny_uniform(out=path))
    assert ok
    assert len(rows) == 2
    # dofs quadruple-ish, h halves, errors present and falling
    assert rows[1][0] > rows[0][0]
    assert np.isclose(rows[1][1], rows[0][1] / 2)
    assert all(r[2] is not None and r[4] is not None for r in rows)
    assert rows[1][4] < rows[0][4]
    header, parsed = _read_csv(path)
    assert header == CSV_HEADER
    assert len(parsed) == 2


def test_adaptive_study_rows():
    config = RunConfig(
        experiment="exp2", refinement="adaptive", degree=2, max_dofs=700,
        theta=0.7, params={"alpha": 1.5},
    )
    rows, ok = run_convergence(config)
    assert ok
    assert len(rows) >= 2
    ndofs = [r[0] for r in rows]
    assert all(b > a for a, b in zip(ndofs, ndofs[1:]))
    assert ndofs[-1] <= 700


def test_exp4_reports_estimator_only():
    config = RunConfig(experiment="exp4", refinement="adaptive", degree=2, max_dofs=1500)
    rows, ok = run_convergence(config)
    assert ok
    for r in rows:
        assert r[2] is None and r[3] is None and r[4] is None
        assert r[5] is not None and r[5] > 0
    etas = [r[5] for r in rows]
    assert etas[-1] < etas[0]


def _record_pids(monkeypatch, path, fail=None, routine="_solve_and_estimate"):
    """Wrap `routine` of bench, which takes (problem, mesh, ...): append the
    solving pid to `path`, and let `fail(mesh)` raise or exit first."""
    import os

    import nondivfem.bench

    real = getattr(nondivfem.bench, routine)

    def wrapped(problem, mesh, *args, **kwargs):
        with open(path, "a") as fh:
            fh.write("%d\n" % os.getpid())
        if fail is not None:
            fail(mesh)
        return real(problem, mesh, *args, **kwargs)

    monkeypatch.setattr(nondivfem.bench, routine, wrapped)


def _set_cpus(monkeypatch, cpus):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


_FORKED_STUDIES = [
    dict(experiment="exp1", params={"kappa": 0.9}),        # eps < 0.5: S is assembled
    dict(experiment="exp3", scheme="recovery-dg", initial_n=2),
]


@pytest.mark.parametrize("settings", _FORKED_STUDIES)
def test_forked_coarser_levels_write_the_sequential_csv(settings, tmp_path, monkeypatch):
    import multiprocessing

    csv, pids = {}, {}
    for cpus in ([0, 1], [0]):
        pid_file = tmp_path / ("pids%d" % len(cpus))
        _record_pids(monkeypatch, pid_file)
        _set_cpus(monkeypatch, cpus)
        out = tmp_path / ("out%d.csv" % len(cpus))
        rows, ok = run_convergence(RunConfig(**dict(dict(levels=3, initial_n=2), **settings),
                                             out=str(out)))
        assert ok and len(rows) == 3
        csv[len(cpus)] = out.read_bytes()
        pids[len(cpus)] = set(pid_file.read_text().split())
        assert multiprocessing.active_children() == []
    assert csv[2] == csv[1]
    assert len(pids[2]) == 2 and len(pids[1]) == 1


@pytest.mark.parametrize("errors, code", [
    ({0: "cordes"}, 3),
    ({0: "value"}, 2),
    # the coarsest failing level decides, as in a sequential loop
    ({0: "cordes", 2: "value"}, 3),
    ({1: "value", 2: "cordes"}, 2),
])
def test_forked_study_raises_the_coarsest_failure(errors, code, tmp_path, monkeypatch, capsys):
    import multiprocessing

    from nondivfem.operator import CordesViolated

    def fail(mesh):
        level = int(np.log2(mesh.n_cells // 8) // 2)     # 2x2 cells: 8 triangles
        if errors.get(level) == "cordes":
            raise CordesViolated((0.0, 0.0), 1.5)
        if errors.get(level) == "value":
            raise ValueError("level %d" % level)

    _record_pids(monkeypatch, tmp_path / "pids", fail)
    _set_cpus(monkeypatch, [0, 1])
    out = tmp_path / "out.csv"
    rc = main(["run", "--experiment", "exp1", "--levels", "3", "--initial-n", "2",
               "--out", str(out)])
    assert rc == code
    assert not out.exists()
    assert len(set((tmp_path / "pids").read_text().split())) == 2
    assert multiprocessing.active_children() == []


def test_forked_study_raises_when_the_child_dies(tmp_path, monkeypatch):
    import multiprocessing
    import os

    parent = os.getpid()

    def die_in_child(mesh):
        if os.getpid() != parent:
            os._exit(9)

    _record_pids(monkeypatch, tmp_path / "pids", die_in_child)
    _set_cpus(monkeypatch, [0, 1])
    out = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="code 9"):
        run_convergence(_tiny_uniform(levels=3, out=str(out)))
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_solve_cells_forks_the_cheaper_half_of_the_cells(monkeypatch):
    # the child solves the longest prefix whose sizes sum to at most half of
    # the total: for sizes 4**level, every level but the finest
    import multiprocessing
    import os

    from nondivfem.bench import _solve_cells

    def pids(cells, sizes):
        solved = _solve_cells(lambda c: (c, os.getpid()), cells, sizes)
        assert [c for c, _ in solved] == list(cells)
        assert multiprocessing.active_children() == []
        return [pid != os.getpid() for _, pid in solved]

    _set_cpus(monkeypatch, [0, 1])
    assert pids(range(5), [4**level for level in range(5)]) == [True] * 4 + [False]
    assert pids(range(2), [1, 4]) == [True, False]
    assert pids([(2, 0), (2, 1), (3, 0), (3, 1)], [4, 16, 9, 36]) == [True] * 3 + [False]
    # one cell, or a first cell above half of the total: no fork
    assert pids(range(1), [1]) == [False]
    assert pids(range(3), [5, 2, 2]) == [False] * 3
    _set_cpus(monkeypatch, [0])
    assert pids(range(5), [4**level for level in range(5)]) == [False] * 5


_FORKED_COMMANDS = [
    ["iters", "--kappas", "0.9,0.99", "--h-exponents", "2,3", "--eta1-values", "0,1"],
    ["compare", "--experiment", "exp1", "--kappa", "0.9", "--levels", "2", "--initial-n", "2",
     "--degrees", "2,3"],
]


@pytest.mark.parametrize("argv", _FORKED_COMMANDS, ids=["iters", "compare"])
def test_forked_commands_write_the_sequential_csv(argv, tmp_path, monkeypatch):
    import multiprocessing

    routine = "solve_problem" if argv[0] == "iters" else "_solve_and_estimate"
    csv, pids = {}, {}
    for cpus in ([0, 1], [0]):
        pid_file = tmp_path / ("pids%d" % len(cpus))
        _record_pids(monkeypatch, pid_file, routine=routine)
        _set_cpus(monkeypatch, cpus)
        out = tmp_path / ("out%d.csv" % len(cpus))
        assert main(argv + ["--out", str(out)]) == 0
        csv[len(cpus)] = out.read_bytes()
        pids[len(cpus)] = set(pid_file.read_text().split())
        assert multiprocessing.active_children() == []
    assert csv[2] == csv[1]
    assert len(pids[2]) == 2 and len(pids[1]) == 1


def _h_exponent(mesh):
    """k of a uniform mesh of the unit square with h = 2^-k."""
    return int(np.log2(mesh.n_cells // 2) // 2)


@pytest.mark.parametrize("errors, error", [
    ({2: ValueError}, ValueError),
    ({4: KeyError}, KeyError),
    # the first failing cell in list order decides, as in a sequential loop;
    # the child solves h = 2^-2 and 2^-3, this process 2^-4
    ({2: KeyError, 4: ValueError}, KeyError),
    ({3: ValueError, 4: KeyError}, ValueError),
])
def test_forked_iteration_table_raises_the_first_failure(errors, error, tmp_path, monkeypatch):
    # types the table does not record as -1 propagate as they would unforked
    import multiprocessing

    def fail(mesh):
        ex = _h_exponent(mesh)
        if ex in errors:
            raise errors[ex]("h = 2^-%d" % ex)

    _record_pids(monkeypatch, tmp_path / "pids", fail, routine="solve_problem")
    _set_cpus(monkeypatch, [0, 1])
    out = tmp_path / "out.csv"
    with pytest.raises(error, match="h = 2\\^-%d" % min(errors)):
        run_iteration_table(kappas=(0.9,), h_exponents=(2, 3, 4), eta1_values=(1.0,),
                            out=str(out))
    assert not out.exists()
    assert len(set((tmp_path / "pids").read_text().split())) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fate, match", [
    ("dies", "exited with code 9"),
    ("raises", r"cell \(2, 0.9, 1.0\) failed in the forked process with "
               r"ValueError\('child only'\) but not when solved again"),
], ids=["dies", "raises"])
def test_forked_iteration_table_reports_a_child_failure(fate, match, tmp_path, monkeypatch):
    import multiprocessing
    import os

    parent = os.getpid()

    def fail_in_child(mesh):
        if os.getpid() != parent:
            if fate == "dies":
                os._exit(9)
            raise ValueError("child only")

    _record_pids(monkeypatch, tmp_path / "pids", fail_in_child, routine="solve_problem")
    _set_cpus(monkeypatch, [0, 1])
    out = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match=match):
        run_iteration_table(kappas=(0.9,), h_exponents=(2, 3, 4), eta1_values=(1.0,),
                            out=str(out))
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_iteration_table_structure(tmp_path):
    path = str(tmp_path / "it.csv")
    header, rows = run_iteration_table(
        kappas=(0.9,), h_exponents=(2, 3), eta1_values=(1.0,), out=path,
    )
    assert header == ["h", "kappa0.9_eta1_1"]
    assert len(rows) == 2
    assert rows[0][0] == 0.25 and rows[1][0] == 0.125
    for r in rows:
        assert r[1] > 0  # converged, iteration count recorded


def test_scheme_comparison_columns():
    config = RunConfig(experiment="exp1", levels=1, initial_n=8, params={"kappa": 0.5})
    header, rows, _ = run_scheme_comparison(config, degrees=(2,))
    assert header[:3] == ["degree", "Ndofs", "h_max"]
    assert "recovery_cg_L2" in header and "nsz_H2h" in header
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["degree"] == 2
    # all three schemes produce comparable L2 errors on the same mesh
    errs = [row["recovery_cg_L2"], row["recovery_dg_L2"], row["nsz_L2"]]
    assert all(e is not None and e < 0.2 for e in errs)
    assert max(errs) / min(errs) < 10.0


@pytest.mark.parametrize("degrees", [(0,), (2, -1)])
def test_scheme_comparison_rejects_degrees_below_one(tmp_path, monkeypatch, degrees):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a level")

    monkeypatch.setattr("nondivfem.bench.solve_problem", no_solve)
    out = tmp_path / "x.csv"
    config = RunConfig(experiment="exp1", levels=1, initial_n=2, out=str(out))
    with pytest.raises(ValueError, match="degrees must be >= 1"):
        run_scheme_comparison(config, degrees)
    assert not out.exists()


@pytest.mark.parametrize("degrees", [(2.5,), (2, True)])
def test_scheme_comparison_refuses_a_non_integral_degree(tmp_path, degrees):
    # truncated, 2.5 would write a row labelled 2.5 with Ndofs 33.0 and the
    # p = 2 errors, and name no failed cell
    out = tmp_path / "x.csv"
    config = RunConfig(experiment="exp1", levels=1, initial_n=2, out=str(out))
    with pytest.raises(ValueError, match="integers"):
        run_scheme_comparison(config, degrees)
    assert not out.exists()


def test_scheme_comparison_labels_an_integral_float_degree_as_an_integer(capsys):
    config = RunConfig(experiment="exp1", levels=1, initial_n=2)
    _, rows, failed = run_scheme_comparison(config, degrees=(2.0,))
    assert not failed
    assert rows[0][:2] == [2, 25]
    assert capsys.readouterr().out.splitlines()[1].startswith("2,25,")


def test_comparison_shows_degree_one_gap():
    # degree 1: CG recovery converges, while DG recovery (its error stalls)
    # and the direct scheme (zero cell Hessians, u_h = 0) lie below their
    # lowest degree: their cells are named as failed, unsolved and empty
    config = RunConfig(experiment="exp1", levels=2, initial_n=4, params={"kappa": 0.5})
    header, rows, failed = run_scheme_comparison(config, degrees=(1,))
    byname = [dict(zip(header, r)) for r in rows]
    cg = [r["recovery_cg_L2"] for r in byname]
    assert cg[1] < cg[0]  # recovery converges
    assert all(r[k] is None for r in byname for k in header
               if k.startswith(("recovery_dg", "nsz")))
    assert failed == ["degree 1, Ndofs %d, %s: %s needs degree >= 2, got 1" % (n, s, s)
                      for n in (25, 81) for s in ("recovery-dg", "nsz")]


# ----------------------------------------------------------------------
# CLI


def test_cli_run_uniform(tmp_path, capsys):
    path = str(tmp_path / "cli.csv")
    rc = main([
        "run", "--experiment", "exp1", "--kappa", "0.5", "--levels", "1",
        "--initial-n", "2", "--out", path,
    ])
    assert rc == 0
    header, rows = _read_csv(path)
    assert header == CSV_HEADER and len(rows) == 1


def test_cli_writes_stdout_by_default(capsys):
    rc = main(["run", "--experiment", "exp1", "--levels", "1", "--initial-n", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_HEADER)


def test_cli_defaults_are_the_library_defaults():
    # build_parser restates the defaults of RunConfig and of the table
    # routines; a default changed in one place only must fail here
    parser = build_parser()
    for command in ("run", "adapt", "compare"):
        args = vars(parser.parse_args([command, "--experiment", "exp1"]))
        checked = 0
        for f in dataclasses.fields(RunConfig):
            if f.name in args and f.default is not dataclasses.MISSING:
                # compare's own default: four uniform meshes
                want = 4 if (command, f.name) == ("compare", "levels") else f.default
                assert args[f.name] == want, (command, f.name)
                checked += 1
        assert checked >= 4, command

    def parsed(text, kind):
        """A comma-separated list option as main parses it."""
        return tuple(kind(t) for t in text.split(","))

    table = inspect.signature(run_iteration_table).parameters
    args = parser.parse_args(["iters"])
    for dest, kind in (("kappas", float), ("h_exponents", int), ("eta1_values", float)):
        assert parsed(getattr(args, dest), kind) == tuple(table[dest].default), dest
    assert (args.degree, args.out) == (table["degree"].default, table["out"].default)
    degrees = inspect.signature(run_scheme_comparison).parameters["degrees"].default
    args = parser.parse_args(["compare", "--experiment", "exp1"])
    assert parsed(args.degrees, int) == tuple(degrees)


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--experiment", "exp9", "--levels", "1"])
    assert exc.value.code == 2


def test_cli_rejects_bad_config():
    rc = main(["run", "--experiment", "exp1", "--levels", "0"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "exp1", "--levels", "1", "--initial-n", "2", "--kappa", "nan"],
    ["adapt", "--experiment", "exp2", "--alpha", "nan", "--max-dofs", "200"],
    ["adapt", "--experiment", "exp2", "--theta", "nan", "--max-dofs", "200"],
    ["run", "--experiment", "exp1", "--levels", "1", "--initial-n", "2", "--eta1", "nan"],
    ["run", "--experiment", "exp1", "--levels", "1", "--initial-n", "2", "--eta1", "inf"],
    ["iters", "--kappas", "0.9", "--h-exponents", "2", "--eta1-values", "inf"],
])
def test_cli_rejects_non_finite_options(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unreachable_tol_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(nondivfem.solve, "TOL", 1e-300)
    out = tmp_path / "out.csv"
    rc = main(["run", "--experiment", "exp1", "--levels", "1", "--initial-n", "2",
               "--out", str(out)])
    assert rc == 3
    _, rows = _read_csv(out)
    # GMRES takes no more Arnoldi steps than the system has unknowns
    assert 0 < rows[0][-1] <= rows[0][0]


def test_cli_nsz_unreachable_tol_exits_3(tmp_path, monkeypatch):
    # the direct scheme's solve is judged against TOL like the recovery ones
    monkeypatch.setattr(nondivfem.solve, "TOL", 1e-300)
    out = tmp_path / "out.csv"
    rc = main(["run", "--experiment", "exp1", "--scheme", "nsz", "--levels", "1",
               "--initial-n", "2", "--out", str(out)])
    assert rc == 3


def test_cli_eta1_help_names_the_nsz_default(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "0 if eps >= 0.5 else 1, nsz 1" in text


def test_cli_adapt(tmp_path):
    path = str(tmp_path / "ad.csv")
    rc = main([
        "adapt", "--experiment", "exp2", "--alpha", "1.5", "--max-dofs", "600",
        "--theta", "0.7", "--out", path,
    ])
    assert rc == 0
    _, rows = _read_csv(path)
    assert len(rows) >= 2


def test_cli_adaptive_study_over_budget_exits_2(tmp_path, capsys):
    path = tmp_path / "ad.csv"
    rc = main(["adapt", "--experiment", "exp2", "--max-dofs", "10", "--out", str(path)])
    assert rc == 2
    assert "max_dofs" in capsys.readouterr().err
    assert not path.exists()


_STUDY_ARGV = {
    "run": ["run", "--experiment", "exp1", "--levels", "2", "--initial-n", "2"],
    "adapt": ["adapt", "--experiment", "exp2", "--max-dofs", "200"],
    "iters": ["iters", "--kappas", "0.9", "--h-exponents", "2", "--eta1-values", "1"],
    "compare": ["compare", "--experiment", "exp1", "--degrees", "2", "--levels", "1",
                "--initial-n", "2"],
}


@pytest.mark.parametrize("command", list(_STUDY_ARGV))
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_cli_refuses_an_unwritable_out_before_solving(command, where, tmp_path, monkeypatch,
                                                      capsys):
    # the CSV is written after the last solve: an --out that cannot be
    # opened must be a configuration error before the first one
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing --out")

    for module in ("nondivfem.adapt", "nondivfem.bench"):
        monkeypatch.setattr(module + ".solve_problem", no_solve)
    out = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    assert main(_STUDY_ARGV[command] + ["--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists() and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment, option", [("exp3", "--kappa"), ("exp1", "--alpha"),
                                                ("exp4", "--alpha")])
def test_cli_rejects_a_parameter_the_experiment_lacks(experiment, option, capsys):
    rc = main(["run", "--experiment", experiment, option, "0.9", "--levels", "1",
               "--initial-n", "2"])
    assert rc == 2
    assert option[2:] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "exp2", "--alpha", "0.5", "--levels", "3", "--initial-n", "2"],
    ["adapt", "--experiment", "exp2", "--alpha", "1", "--max-dofs", "200"],
])
def test_cli_rejects_exp2_alpha_without_h2_solution(argv, tmp_path, capsys):
    # for alpha <= 1 neither u is in H2 nor f in L2: every row would be meaningless
    out = tmp_path / "out.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--experiment", "exp1", "--scheme", "nsz"],
    ["compare", "--experiment", "exp1", "--degree", "3"],
    ["run", "--experiment", "exp1", "--quad-degree", "6"],
    ["run", "--experiment", "exp1", "--refine", "adaptive"],
    ["run", "--experiment", "exp1", "--theta", "0.5"],
    ["run", "--experiment", "exp1", "--max-dofs", "100"],
    ["run", "--experiment", "exp1", "--mark-convention", "linear"],
    ["adapt", "--experiment", "exp2", "--mark-convention", "squared"],
    ["run", "--experiment", "exp1", "--levels", "1", "--eta2", "0"],
])
def test_cli_rejects_options_that_would_be_ignored(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _cli_subparsers():
    import argparse

    from nondivfem.bench import build_parser

    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_every_option_has_help():
    missing = [(name, a.option_strings[-1]) for name, sub in _cli_subparsers().items()
               for a in sub._actions if a.option_strings and not a.help]
    assert not missing


def test_cli_options_are_run_config_fields():
    # _config_from keeps only the options that name a RunConfig field, so an
    # option outside the field list would be accepted and silently ignored
    from dataclasses import fields

    names = {f.name for f in fields(RunConfig)}
    subparsers = _cli_subparsers()
    set_by_cli = set()
    for command in ("run", "adapt", "compare"):
        dests = {a.dest for a in subparsers[command]._actions if a.dest != "help"}
        extra = {"kappa", "alpha"} | ({"degrees"} if command == "compare" else set())
        assert dests - extra <= names, (command, sorted(dests - extra - names))
        set_by_cli |= dests & names
    assert names - set_by_cli == {"refinement", "params"}


def test_readme_names_only_existing_cli_options():
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    existing = {o for sub in _cli_subparsers().values() for a in sub._actions
                for o in a.option_strings}
    assert named and named <= existing, sorted(named - existing)


def test_cli_adapt_exits_3_when_gmres_fails(tmp_path, monkeypatch):
    import dataclasses

    import nondivfem.adapt

    real_solve = nondivfem.adapt.solve_problem

    def unconverged(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        sol.report = dataclasses.replace(sol.report, converged=False)
        return sol

    monkeypatch.setattr(nondivfem.adapt, "solve_problem", unconverged)
    rc = main([
        "adapt", "--experiment", "exp2", "--max-dofs", "200", "--out", str(tmp_path / "ad.csv"),
    ])
    assert rc == 3


def test_cli_iters(tmp_path):
    path = str(tmp_path / "it.csv")
    rc = main([
        "iters", "--kappas", "0.9", "--h-exponents", "2,3", "--eta1-values", "1",
        "--out", path,
    ])
    assert rc == 0
    header, rows = _read_csv(path)
    assert header[0] == "h" and len(rows) == 2


def test_cli_compare(tmp_path, capsys):
    rc = main([
        "compare", "--experiment", "exp1", "--degrees", "2", "--levels", "1",
        "--initial-n", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("degree,Ndofs,h_max")


def test_cli_compare_exits_3_on_failed_cells(capsys):
    # the direct scheme rejects eta1 = 0: its cells stay empty and are named
    rc = main([
        "compare", "--experiment", "exp1", "--degrees", "2", "--levels", "1",
        "--initial-n", "2", "--eta1", "0",
    ])
    assert rc == 3
    captured = capsys.readouterr()
    row = dict(zip(*(ln.split(",") for ln in captured.out.splitlines())))
    assert row["nsz_L2"] == "" and row["recovery_cg_L2"] != ""
    failed = [ln for ln in captured.err.splitlines() if ln.startswith("failed cell")]
    assert len(failed) == 1 and "nsz" in failed[0]


def test_cli_compare_exits_3_on_unconverged_cells(capsys, monkeypatch):
    # a TOL below what round-off lets the true residual reach: every solve
    # is unconverged, so each cell is named and left empty, and compare
    # exits 3 as run does
    monkeypatch.setattr(nondivfem.solve, "TOL", 1e-300)
    args = ["--experiment", "exp1", "--levels", "1", "--initial-n", "2"]
    assert main(["compare", "--degrees", "2"] + args) == 3
    captured = capsys.readouterr()
    header, row = (ln.split(",") for ln in captured.out.splitlines())
    assert header[3:] and all(v == "" for v in row[3:])
    failed = [ln for ln in captured.err.splitlines() if ln.startswith("failed cell")]
    assert len(failed) == 3
    for ln in failed:
        m = re.fullmatch(r"failed cell: degree 2, Ndofs 25, [a-z-]+: GMRES did not converge: "
                         r"true residual (\S+) after (\d+) iterations", ln)
        assert m, ln
        assert 1e-300 < float(m.group(1)) < 1e-8 and 0 < int(m.group(2)) <= 25
    assert main(["run", "--degree", "2"] + args) == 3


@pytest.mark.parametrize("command, scheme, budget", [
    ("run", "nsz", ["--levels", "1", "--initial-n", "2"]),
    ("adapt", "recovery-dg", ["--max-dofs", "200"]),
])
def test_cli_refuses_a_degree_below_the_schemes_lowest(tmp_path, capsys, command, scheme,
                                                       budget):
    out = tmp_path / "x.csv"
    rc = main([command, "--experiment", "exp1", "--scheme", scheme, "--degree", "1",
               "--out", str(out)] + budget)
    assert rc == 2
    assert not out.exists()
    assert "configuration error: %s needs degree >= 2" % scheme in capsys.readouterr().err


def test_cli_compare_default_degrees_start_at_two():
    from nondivfem.bench import build_parser

    assert build_parser().parse_args(["compare", "--experiment", "exp1"]).degrees == "2,3,4"


@pytest.mark.parametrize("degrees", ["0,2", "2,-1"])
def test_cli_compare_exits_2_on_degree_below_one(tmp_path, capsys, degrees):
    out = tmp_path / "x.csv"
    rc = main([
        "compare", "--experiment", "exp1", "--degrees=" + degrees, "--levels", "1",
        "--initial-n", "2", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and "failed cell" not in err


def test_cli_compare_without_exact_solution_exits_0(capsys):
    rc = main([
        "compare", "--experiment", "exp4", "--degrees", "2", "--levels", "1",
        "--initial-n", "2",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    header, row = (ln.split(",") for ln in captured.out.splitlines())
    assert all(v == "" for v in row[3:]) and len(row) == len(header)
    assert "failed" not in captured.err


def test_benchmark_selftest_passes():
    # the benchmark pins the layer structure it traces (e.g. five mass
    # solves per apply); a change that breaks it should fail here too
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=str(root),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]


@pytest.mark.parametrize("name", sorted(_WORKLOADS["WORKLOADS"]))
def test_benchmark_workload_passes_its_gate(name, tmp_path):
    # each full-size study meets the benchmark's own correctness gate, so an
    # outputs_incorrect result fails here before any benchmark run
    out = tmp_path / (name + ".csv")
    _, converged = run_convergence(RunConfig(out=str(out), **_WORKLOADS["WORKLOADS"][name]))
    gate = _WORKLOADS["check"](out.read_text(), _WORKLOADS["reference_text"](name), converged)
    assert gate == []


def test_benchmark_span_targets_exist():
    # the span recorder skips a target it cannot find, and its span then
    # reads 0 with no error; a rename must fail here instead
    import importlib
    import runpy
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    targets = runpy.run_path(str(root / "perfbench" / "spans.py"))["TARGETS"]
    assert len(targets) == 21
    missing = []
    for span, (module, attr, _) in targets.items():
        mod = importlib.import_module("nondivfem." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = vars(getattr(mod, cls_name, object)).get(meth)
        else:
            fn = getattr(mod, attr, None)
        if not callable(fn):
            missing.append(span)
    assert missing == []


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import nondivfem

    modules = [nondivfem] + [importlib.import_module("nondivfem." + m.name)
                             for m in pkgutil.iter_modules(nondivfem.__path__)]
    for mod in modules:
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__


def test_public_surface_is_pinned():
    # adding or dropping a public name is a deliberate edit of this list
    import nondivfem

    assert sorted(nondivfem.__all__) == [
        "adaptive_loop", "bisect", "build_rect_mesh", "build_space", "build_system",
        "cordes_analyze", "eoc", "error_norms", "estimate_level", "gmres", "interpolate",
        "local_estimator", "ls_slope", "make_problem", "recover_hessian", "solve_problem",
    ]


def test_consumers_names_stay_exported():
    # the acceptance criteria, the benchmark worker and the README's quick
    # start take these names from the package itself; a name that only the
    # worker uses would otherwise fail every benchmark run but no test
    import ast
    import pkgutil
    import re
    from pathlib import Path

    import nondivfem

    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    quick_start = re.search(r"## Quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    sources = {
        "criteria": (root / "tests" / "test_acceptance.py").read_text(),
        "worker": (root / "perfbench" / "worker.py").read_text(),
        "quick start": quick_start,
    }
    submodules = {m.name for m in pkgutil.iter_modules(nondivfem.__path__)}
    used = {}
    for where, text in sources.items():
        names = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "nondivfem":
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "nondivfem" and not node.attr.startswith("_")):
                names.add(node.attr)
        used[where] = names - submodules
    assert "local_estimator" in used["worker"]
    assert all(used.values()), used
    missing = {where: sorted(names - set(nondivfem.__all__)) for where, names in used.items()}
    assert missing == {where: [] for where in used}
