"""Experiment harness and command line interface.

Produces CSV files with the fixed column layout

    Ndofs,h_max,L2_error,H1_error,H2h_error,Eta_global,iterations

(one row per refinement level; unavailable quantities stay empty).  All
floats are written with repr, so identical configurations give
byte-identical files and every value round-trips exactly.

`run`'s uniform study, `iters` and `compare` each pass their cells (the
levels, the (h, kappa, eta1) cells, the (degree, level) cells) and a
routine that solves one to `_solve_cells`.  Where the process may use at
least two CPUs (Linux) and runs no other thread, one forked child solves
the cheaper half of the cells by size, a uniform study's coarser meshes,
while the calling process solves the rest; the rows and exit codes are
the same either way.  `taskset -c 0` keeps any of them on one CPU.
"""

import argparse
import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .adapt import _solve_and_estimate, adaptive_loop, initial_mesh
from .mesh import _is_count
from .operator import CordesViolated, make_problem
from .solve import SCHEMES, solve_problem
from .space import _cg_dof_count

__all__ = [
    "RunConfig",
    "run_convergence",
    "run_iteration_table",
    "run_scheme_comparison",
    "write_csv",
    "main",
]

CSV_HEADER = ["Ndofs", "h_max", "L2_error", "H1_error", "H2h_error", "Eta_global", "iterations"]

_EXPERIMENTS = ("exp1", "exp2", "exp3", "exp4")

# fields that only one kind of refinement reads
_IGNORED_BY = {"uniform": ("theta", "max_dofs"), "adaptive": ("levels",)}

# the lowest degree at which each scheme converges: the cellwise Hessians of
# P1 vanish, so nsz solves for u_h = 0, and DG recovery's error stalls
_MIN_DEGREE = {"recovery-cg": 1, "recovery-dg": 2, "nsz": 2}


def _check_degree(scheme, degree):
    """Raise ValueError when `degree` is not an integer or is below
    `scheme`'s lowest degree."""
    if not _is_count(degree):
        raise ValueError("degree must be an integer >= 1, not %r" % (degree,))
    if degree < _MIN_DEGREE[scheme]:
        raise ValueError("%s needs degree >= %d, got %d" % (scheme, _MIN_DEGREE[scheme], degree))


def _refuse_set(config, names, user):
    """Raise ValueError when a field in `names` differs from its default."""
    for f in fields(config):
        if f.name in names and getattr(config, f.name) != f.default:
            raise ValueError("%s is not used by %s" % (f.name, user))


@dataclass
class RunConfig:
    experiment: str
    scheme: str = "recovery-cg"
    degree: int = 2
    eta1: float = None
    refinement: str = "uniform"
    theta: float = 0.9
    levels: int = 5
    max_dofs: int = 100000
    initial_n: int = None
    out: str = None
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(
                "unknown experiment %r; choose from %s" % (self.experiment, list(_EXPERIMENTS))
            )
        if self.scheme not in SCHEMES:
            raise ValueError("unknown scheme %r; choose from %s" % (self.scheme, list(SCHEMES)))
        _check_degree(self.scheme, self.degree)
        if self.refinement not in ("uniform", "adaptive"):
            raise ValueError("refinement must be 'uniform' or 'adaptive'")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        for name in ("levels", "max_dofs"):
            n = getattr(self, name)
            if n < 1:
                raise ValueError("%s must be >= 1" % name)
            if not _is_count(n):
                raise ValueError("%s must be an integer >= 1, not %r" % (name, n))
        if self.initial_n is not None and not _is_count(self.initial_n):
            raise ValueError("cells per side must be integers >= 1, not %r" % (self.initial_n,))
        if self.eta1 is not None and not 0.0 <= self.eta1 < np.inf:
            raise ValueError("eta1 must be finite and >= 0")
        _refuse_set(self, _IGNORED_BY[self.refinement], "%s refinement" % self.refinement)
        return self

    def make_problem(self):
        return make_problem(self.experiment, **self.params)


# ----------------------------------------------------------------------
# CSV plumbing


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# studies


def _uniform_mesh(problem, config, level):
    """Uniform mesh of `level`: the first mesh's cells per side doubled `level` times."""
    n0 = config.initial_n if config.initial_n is not None else problem.initial_n
    return initial_mesh(problem, n0 * 2**level)


def _solve_level(problem, config, level):
    """AdaptiveRecord of uniform level `level`."""
    record, _ = _solve_and_estimate(problem, _uniform_mesh(problem, config, level),
                                    config.degree, scheme=config.scheme, eta1=config.eta1)
    return record


def _fork_pays_off():
    """Whether cells can run beside each other: the process may use two CPUs
    and has no other thread that a fork could leave behind holding a lock."""
    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _solve_cells(solve, cells, sizes):
    """[solve(c) for c in cells], in order.

    `sizes` are proportional to the cells' costs.  When `_fork_pays_off`,
    one forked child solves the longest prefix of cells whose sizes sum to
    at most half of the total, in order, while this process solves the
    rest; a uniform study's child solves every level but the finest.
    Failures match the sequential loop: the first failing cell in list
    order raises, and a cell that failed in the child is solved again here
    to raise it with its own type and traceback.  A child that dies raises
    RuntimeError naming its exit code.
    """
    split = int(np.sum(np.cumsum(sizes) <= np.sum(sizes) / 2))
    if split == 0 or not _fork_pays_off():
        return [solve(c) for c in cells]

    def solve_prefix(conn):
        # the results, and the repr of the first failure: not all
        # exceptions pickle
        results, failure = [], None
        try:
            for c in cells[:split]:
                results.append(solve(c))
        except Exception as exc:
            failure = repr(exc)
        conn.send((results, failure))
        conn.close()

    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=solve_prefix, args=(writer,))
    # buffered output would otherwise be written by both processes
    sys.stdout.flush()
    sys.stderr.flush()
    child.start()
    writer.close()
    try:
        try:
            rest = [solve(c) for c in cells[split:]]
        except Exception as exc:
            rest = exc
        try:
            report = reader.recv()
        except EOFError:
            report = None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        reader.close()
    if report is None:
        raise RuntimeError("the forked process exited with code %s and no result"
                           % child.exitcode)
    results, failure = report
    if failure is not None:
        solve(cells[len(results)])
        raise RuntimeError("cell %r failed in the forked process with %s but not when "
                           "solved again" % (cells[len(results)], failure))
    if isinstance(rest, Exception):
        raise rest
    return results + rest


def run_convergence(config):
    """Uniform or adaptive refinement study: one AdaptiveRecord per level,
    written as one CSV row each; returns (rows, all_converged).

    A row is the record's n_dofs, h_max, the l2, h1 and h2h of its errors
    (empty without an exact solution), eta_global and the iterations of its
    SolveReport; all_converged holds when every level's report converged.
    """
    config.validate()
    problem = config.make_problem()
    if config.refinement == "adaptive":
        records = adaptive_loop(
            problem,
            p=config.degree,
            scheme=config.scheme,
            theta=config.theta,
            max_dofs=config.max_dofs,
            eta1=config.eta1,
            mesh=initial_mesh(problem, config.initial_n),
        )
    else:
        levels = list(range(config.levels))
        records = _solve_cells(lambda level: _solve_level(problem, config, level), levels,
                               [4**level for level in levels])
    rows = []
    for r in records:
        e = r.errors
        l2, h1, h2h = (e.l2, e.h1, e.h2h) if e else (None, None, None)
        rows.append([r.n_dofs, r.h_max, l2, h1, h2h, r.eta_global, r.report.iterations])
    write_csv(config.out, CSV_HEADER, rows)
    return rows, all(r.report.converged for r in records)


def run_iteration_table(
    kappas=(0.9, 0.99, 0.999),
    h_exponents=(3, 4, 5, 6),
    eta1_values=(0.0, 1.0),
    degree=2,
    out=None,
):
    """GMRES iteration grid for the anisotropic smooth problem.

    Rows are mesh sizes h = 2^-k; columns are (kappa, eta1) pairs; failed
    solves are recorded as -1.
    """
    header = ["h"]
    for k in kappas:
        for e1 in eta1_values:
            header.append("kappa%s_eta1_%s" % (k, int(e1) if float(e1).is_integer() else e1))

    def count(cell):
        ex, k, e1 = cell
        problem = make_problem("exp1", kappa=k)
        mesh = initial_mesh(problem, 2**ex)
        try:
            sol = solve_problem(problem, mesh, degree, scheme="recovery-cg", eta1=e1)
            return sol.report.iterations if sol.report.converged else -1
        except (CordesViolated, RuntimeError):
            return -1

    cells = [(ex, k, e1) for ex in h_exponents for k in kappas for e1 in eta1_values]
    counts = _solve_cells(count, cells, [4**ex for ex, _, _ in cells])
    m = len(kappas) * len(eta1_values)
    rows = [[0.5**ex] + counts[i * m:(i + 1) * m] for i, ex in enumerate(h_exponents)]
    write_csv(out, header, rows)
    return header, rows


def run_scheme_comparison(config, degrees=(2, 3, 4)):
    """Error columns of all three schemes side by side on shared meshes.

    Every cell is solved and measured by the level routine of `run`.
    Returns (header, rows, failed): a cell whose solve raised, did not
    converge or lies below its scheme's lowest degree is left empty and
    named in `failed`; without an exact solution every cell is empty.
    A degree that is not an integer >= 1, or a config `scheme` or `degree`
    other than the default (every scheme runs at each of `degrees`), raises
    ValueError before anything is solved.
    """
    config.validate()
    _refuse_set(config, ("scheme", "degree"), "compare")
    if not all(_is_count(p) for p in degrees):
        raise ValueError("degrees must be >= 1 and integers, got %s" % list(degrees))
    degrees = [int(p) for p in degrees]
    problem = config.make_problem()
    header = ["degree", "Ndofs", "h_max"]
    for s in SCHEMES:
        tag = s.replace("-", "_")
        header += ["%s_L2" % tag, "%s_H1" % tag, "%s_H2h" % tag]

    def compare(cell):
        p, level = cell
        mesh = _uniform_mesh(problem, config, level)
        n_dofs = _cg_dof_count(mesh, p)
        row, failed = [p, n_dofs, mesh.h_max], []
        for s in SCHEMES:
            try:
                _check_degree(s, p)
                record, _ = _solve_and_estimate(problem, mesh, p, scheme=s, eta1=config.eta1)
                if not record.report.converged:
                    raise RuntimeError(
                        "GMRES did not converge: true residual %g after %d iterations"
                        % (record.report.final_true_residual, record.report.iterations))
                e = record.errors
                row += [e.l2, e.h1, e.h2h] if e else [None, None, None]
            except (CordesViolated, RuntimeError, ValueError) as exc:
                failed.append("degree %d, Ndofs %d, %s: %s" % (p, n_dofs, s, exc))
                row += [None, None, None]
        return row, failed

    cells = [(p, level) for p in degrees for level in range(config.levels)]
    done = _solve_cells(compare, cells, [(p * 2**level)**2 for p, level in cells])
    rows = [row for row, _ in done]
    failed = [text for _, texts in done for text in texts]
    write_csv(config.out, header, rows)
    return header, rows, failed


# ----------------------------------------------------------------------
# CLI


def _add_common(sub):
    """Options of the studies built from a RunConfig."""
    sub.add_argument("--experiment", required=True, choices=_EXPERIMENTS, help="problem to solve")
    sub.add_argument("--kappa", type=float, help="exp1 anisotropy (default 0.5)")
    sub.add_argument("--alpha", type=float, help="exp2 corner exponent (default 1.5)")
    sub.add_argument("--eta1", type=float, default=None,
                     help="gradient-jump penalty (default: recovery schemes 0 if eps >= 0.5 "
                          "else 1, nsz 1)")
    sub.add_argument("--initial-n", type=int, default=None,
                     help="cells per side of the first mesh (default: the problem's own)")
    sub.add_argument("--out", default=None, help="CSV path (default: stdout)")


def _add_study(sub):
    """Options of the uniform (run) and adaptive (adapt) studies of one scheme."""
    _add_common(sub)
    sub.add_argument("--scheme", default="recovery-cg",
                     choices=SCHEMES, help="discretization")
    sub.add_argument("--degree", type=int, default=2, help="polynomial degree p")


def _problem_params(args):
    """The problem parameters given on the command line."""
    return {k: getattr(args, k) for k in ("kappa", "alpha") if getattr(args, k) is not None}


def _config_from(args, refinement):
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(refinement=refinement, params=_problem_params(args), **given)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nondivfem",
        description="Finite element studies for elliptic equations in non-divergence form",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # no prefix matching: compare's --degrees must not answer to --degree
    exact = dict(allow_abbrev=False)

    run = sub.add_parser("run", help="uniform refinement study", **exact)
    _add_study(run)
    run.add_argument("--levels", type=int, default=5, help="number of uniform meshes")

    ad = sub.add_parser("adapt", help="adaptive refinement study", **exact)
    _add_study(ad)
    ad.add_argument("--theta", type=float, default=0.9, help="Doerfler marking fraction")
    ad.add_argument("--max-dofs", type=int, default=100000,
                    help="dof budget; the first mesh must fit in it")

    it = sub.add_parser("iters", help="GMRES iteration table", **exact)
    it.add_argument("--kappas", default="0.9,0.99,0.999", help="comma-separated exp1 kappas")
    it.add_argument("--h-exponents", default="3,4,5,6",
                    help="comma-separated k of the mesh sizes h = 2^-k")
    it.add_argument("--eta1-values", default="0,1", help="comma-separated eta1 penalties")
    it.add_argument("--degree", type=int, default=2, help="polynomial degree p")
    it.add_argument("--out", default=None, help="CSV path (default: stdout)")

    cmp_ = sub.add_parser("compare", help="all three schemes on shared meshes", **exact)
    _add_common(cmp_)
    cmp_.add_argument("--degrees", default="2,3,4", help="comma-separated degrees p")
    cmp_.add_argument("--levels", type=int, default=4, help="number of uniform meshes")

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command in ("run", "adapt"):
            refinement = "uniform" if args.command == "run" else "adaptive"
            _, ok = run_convergence(_config_from(args, refinement))
            return 0 if ok else 3
        if args.command == "iters":
            kappas = [float(t) for t in args.kappas.split(",")]
            exps = [int(t) for t in args.h_exponents.split(",")]
            etas = [float(t) for t in args.eta1_values.split(",")]
            _, rows = run_iteration_table(kappas, exps, etas, degree=args.degree, out=args.out)
            failed = any(v == -1 for row in rows for v in row[1:])
            return 3 if failed else 0
        if args.command == "compare":
            config = _config_from(args, "uniform")
            degrees = [int(t) for t in args.degrees.split(",")]
            _, _, failed = run_scheme_comparison(config, degrees)
            for cell in failed:
                print("failed cell: %s" % cell, file=sys.stderr)
            return 3 if failed else 0
    except (ValueError, KeyError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except CordesViolated as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
