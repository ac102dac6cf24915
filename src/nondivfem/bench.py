"""Experiment harness and command line interface.

Produces CSV files with the fixed column layout

    Ndofs,h_max,L2_error,H1_error,H2h_error,Eta_global,iterations

(one row per refinement level; unavailable quantities stay empty).  All
floats are written with repr, so identical configurations give
byte-identical files and every value round-trips exactly.

A uniform study solves its finest mesh in the calling process and, where
the process may use at least two CPUs (Linux) and runs no other thread,
all coarser meshes in one forked child; the rows are the same either way.
`taskset -c 0` keeps a study on one CPU.
"""

import argparse
import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .adapt import _solve_and_estimate, adaptive_loop, initial_mesh
from .estimate import error_norms
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
_IGNORED_BY = {"uniform": ("theta", "max_dofs", "convention"), "adaptive": ("levels",)}


@dataclass
class RunConfig:
    experiment: str
    scheme: str = "recovery-cg"
    degree: int = 2
    eta1: float = None
    eta2: float = None
    refinement: str = "uniform"
    theta: float = 0.9
    levels: int = 5
    max_dofs: int = 100000
    tol: float = 1e-8
    initial_n: int = None
    convention: str = "squared"
    out: str = None
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(
                "unknown experiment %r; choose from %s" % (self.experiment, list(_EXPERIMENTS))
            )
        if self.scheme not in SCHEMES:
            raise ValueError("unknown scheme %r; choose from %s" % (self.scheme, list(SCHEMES)))
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.refinement not in ("uniform", "adaptive"):
            raise ValueError("refinement must be 'uniform' or 'adaptive'")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.max_dofs < 1:
            raise ValueError("max_dofs must be >= 1")
        for e in (self.eta1, self.eta2):
            if e is not None and not 0.0 <= e < np.inf:
                raise ValueError("penalty weights must be finite and >= 0")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")
        for f in fields(self):
            if f.name in _IGNORED_BY[self.refinement] and getattr(self, f.name) != f.default:
                raise ValueError("%s is not used by %s refinement" % (f.name, self.refinement))
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


def _solve_level(problem, config, level):
    """AdaptiveRecord of uniform level `level`."""
    n0 = config.initial_n if config.initial_n is not None else problem.initial_n
    mesh = initial_mesh(problem, n0 * 2**level)
    record, _ = _solve_and_estimate(problem, mesh, config.degree, level, scheme=config.scheme,
                                    eta1=config.eta1, eta2=config.eta2, tol=config.tol)
    return record


def _fork_pays_off(n_levels):
    """Whether the coarser levels can run beside the finest one: the process
    may use two CPUs and has no other thread that a fork could leave behind
    holding a lock."""
    return (n_levels >= 2 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _solve_coarser(problem, config, levels, conn):
    """Child side: send the levels' records, and (index, repr) of the first
    level that raises.  Exceptions are not sent, as not all of them pickle."""
    results, failure = [], None
    for level in levels:
        try:
            results.append(_solve_level(problem, config, level))
        except Exception as exc:
            failure = (level, repr(exc))
            break
    conn.send((results, failure))
    conn.close()


def _uniform_levels(problem, config):
    """AdaptiveRecord of every uniform level, coarsest first.

    Each level has about four times the dofs of the one before, so all
    coarser levels together take less time than the finest one.  When
    `_fork_pays_off`, one forked child solves them in order while this
    process solves the finest level.  Failures match the sequential loop:
    the exception of the coarsest failing level is raised, and a level
    that failed in the child is solved again here to raise it with its own
    type and traceback.
    """
    levels = range(config.levels)
    if not _fork_pays_off(len(levels)):
        return [_solve_level(problem, config, level) for level in levels]
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_solve_coarser, args=(problem, config, levels[:-1], writer))
    # buffered output would otherwise be written by both processes
    sys.stdout.flush()
    sys.stderr.flush()
    child.start()
    writer.close()
    try:
        try:
            finest = _solve_level(problem, config, levels[-1])
        except Exception as exc:
            finest = exc
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
        raise RuntimeError("the process solving the coarser meshes exited with code %s "
                           "and no result" % child.exitcode)
    results, failure = report
    if failure is not None:
        level, text = failure
        _solve_level(problem, config, level)
        raise RuntimeError("level %d failed in the child process with %s but not when "
                           "solved again" % (level, text))
    if isinstance(finest, Exception):
        raise finest
    return results + [finest]


def run_convergence(config):
    """Uniform or adaptive refinement study: one AdaptiveRecord per level,
    written as one CSV row each; returns (rows, all_converged)."""
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
            eta2=config.eta2,
            mesh=initial_mesh(problem, config.initial_n),
            tol=config.tol,
            convention=config.convention,
        )
    else:
        records = _uniform_levels(problem, config)
    rows = []
    for r in records:
        e = r.errors
        l2, h1, h2h = (e.l2, e.h1, e.h2h) if e else (None, None, None)
        rows.append([r.n_dofs, r.h_max, l2, h1, h2h, r.eta_global, r.gmres_iterations])
    write_csv(config.out, CSV_HEADER, rows)
    return rows, all(r.converged for r in records)


def run_iteration_table(
    kappas=(0.9, 0.99, 0.999),
    h_exponents=(3, 4, 5, 6),
    eta1_values=(0.0, 1.0),
    degree=2,
    tol=1e-8,
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
    rows = []
    for ex in h_exponents:
        row = [0.5**ex]
        for k in kappas:
            problem = make_problem("exp1", kappa=k)
            mesh = initial_mesh(problem, 2**ex)
            for e1 in eta1_values:
                try:
                    sol = solve_problem(
                        problem, mesh, degree, scheme="recovery-cg",
                        eta1=e1, eta2=0.0, tol=tol,
                    )
                    row.append(sol.report.iterations if sol.report.converged else -1)
                except (CordesViolated, RuntimeError):
                    row.append(-1)
        rows.append(row)
    write_csv(out, header, rows)
    return header, rows


def run_scheme_comparison(config, degrees=(1, 2, 3, 4)):
    """Error columns of all three schemes side by side on shared meshes.

    Returns (header, rows, failed): a cell whose solve raised or did not
    converge is left empty and named in `failed`; without an exact solution
    every cell is empty.
    A degree below 1 raises ValueError before anything is solved.
    """
    config.validate()
    if any(p < 1 for p in degrees):
        raise ValueError("degrees must be >= 1, got %s" % list(degrees))
    problem = config.make_problem()
    header = ["degree", "Ndofs", "h_max"]
    for s in SCHEMES:
        tag = s.replace("-", "_")
        header += ["%s_L2" % tag, "%s_H1" % tag, "%s_H2h" % tag]
    exact = None
    if problem.has_exact:
        exact = {"u": problem.exact_u, "grad": problem.exact_grad, "hess": problem.exact_hess}
    n0 = config.initial_n if config.initial_n is not None else problem.initial_n
    rows, failed = [], []
    for p in degrees:
        for level in range(config.levels):
            mesh = initial_mesh(problem, n0 * 2**level)
            n_dofs = _cg_dof_count(mesh, p)
            row = [p, n_dofs, mesh.h_max]
            for s in SCHEMES:
                try:
                    sol = solve_problem(
                        problem, mesh, p, scheme=s, eta1=config.eta1, eta2=config.eta2,
                        tol=config.tol,
                    )
                    if not sol.report.converged:
                        raise RuntimeError(
                            "GMRES did not converge: true residual %g after %d iterations"
                            % (sol.report.final_true_residual, sol.report.iterations))
                    if exact is not None:
                        err = error_norms(sol.u_h, exact)
                        row += [err.l2, err.h1, err.h2h]
                    else:
                        row += [None, None, None]
                except (CordesViolated, RuntimeError, ValueError) as exc:
                    failed.append("degree %d, Ndofs %d, %s: %s" % (p, n_dofs, s, exc))
                    row += [None, None, None]
            rows.append(row)
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
    sub.add_argument("--eta2", type=float, default=None,
                     help="Hessian-jump penalty (default 0; recovery schemes only)")
    sub.add_argument("--tol", type=float, default=1e-8, help="absolute and relative tolerance")
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
    ad.add_argument("--mark-convention", dest="convention", default="squared",
                    choices=["squared", "linear"], help="marking by sums of eta_T^2 or of eta_T")

    it = sub.add_parser("iters", help="GMRES iteration table", **exact)
    it.add_argument("--kappas", default="0.9,0.99,0.999", help="comma-separated exp1 kappas")
    it.add_argument("--h-exponents", default="3,4,5,6",
                    help="comma-separated k of the mesh sizes h = 2^-k")
    it.add_argument("--eta1-values", default="0,1", help="comma-separated eta1 penalties")
    it.add_argument("--degree", type=int, default=2, help="polynomial degree p")
    it.add_argument("--tol", type=float, default=1e-8, help="absolute and relative tolerance")
    it.add_argument("--out", default=None, help="CSV path (default: stdout)")

    cmp_ = sub.add_parser("compare", help="all three schemes on shared meshes", **exact)
    _add_common(cmp_)
    cmp_.add_argument("--degrees", default="1,2,3,4", help="comma-separated degrees p")
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
            _, rows = run_iteration_table(
                kappas, exps, etas, degree=args.degree,
                tol=args.tol, out=args.out,
            )
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
