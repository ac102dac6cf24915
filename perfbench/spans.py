"""Span recorder that times nondivfem's public functions from outside.

Nothing in the package changes.  A module that did
``from .hessian import build_hessian_operator`` holds its own reference to
the function, so the recorder rebinds the name in every ``nondivfem.*``
namespace that binds the same function object.  Three methods are wrapped
on their class, which is where ``gmres`` and ``apply_system`` find them.

Spans stay in memory as ``[name, start, end, parent]`` and are written once
the traced study ends.  Counts are read only from the objects the wrapped
calls return (and, for marking, from the estimator passed in).  Time spent
reading them is hidden from every span, so it never shows up as anybody's
self time.  A target that a later refactor renames or stops calling reports
0 and raises nothing.
"""

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict


def _precond_counts(counts, pre, args):
    counts["precond_lu_nnz"] += pre.lu.L.nnz + pre.lu.U.nnz
    counts["precond_nnz"] += pre.matrix.nnz


def _stabilization_counts(counts, S, args):
    counts["stabilization_nnz"] += S.nnz


def _mass_counts(counts, hop, args):
    counts["mass_lu_nnz"] += hop.M_lu.L.nnz + hop.M_lu.U.nnz
    counts["mass_nnz"] += hop.M_W.nnz


def _gmres_counts(counts, out, args):
    report = out[1]
    counts["iterations"] += report.iterations
    counts["true_residual_max"] = max(counts["true_residual_max"], report.final_true_residual)


def _solution_counts(counts, sol, args):
    space = sol.u_h.space
    counts["dofs"] += space.n_dofs
    counts["cells"] += space.mesh.n_cells
    counts["unconverged"] += not sol.report.converged
    op = sol.system
    if op is not None:
        hop = op.hessian_op
        mats = [c for row in hop.C for c in row] + [b for row in op.B for b in row]
        counts["apply_nnz"] += sum(m.nnz for m in mats) + hop.C_trace.nnz + op.S.nnz


def _mark_counts(counts, marked, args):
    eta = args[0]
    counts["marked"] += len(marked)
    counts["mark_cells"] += len(getattr(eta, "eta_T", eta))


def _adapt_counts(counts, records, args):
    counts["adapt_levels"] += len(records)


# span name -> (module, attribute, count hook); "Class.method" wraps on the class
TARGETS = {
    "mesh.build_rect_mesh": ("mesh", "build_rect_mesh", None),
    "mesh.bisect": ("mesh", "bisect", None),
    "space.build_space": ("space", "build_space", None),
    "hessian.build": ("hessian", "build_hessian_operator", _mass_counts),
    "hessian.mass_solve": ("hessian", "HessianOperator.mass_solve", None),
    "operator.build_system": ("operator", "build_system", None),
    "operator.cordes": ("operator", "cordes_analyze", None),
    "operator.assemble_B": ("operator", "assemble_B", None),
    "operator.stabilization": ("operator", "assemble_stabilization", _stabilization_counts),
    "operator.load": ("operator", "assemble_load", None),
    "operator.rhs": ("operator", "assemble_rhs", None),
    "operator.precond_build": ("operator", "build_preconditioner", _precond_counts),
    "operator.precond_solve": ("operator", "Preconditioner.solve", None),
    "operator.apply": ("operator", "SystemOperator.apply", None),
    "solve.solve_problem": ("solve", "solve_problem", _solution_counts),
    "solve.gmres": ("solve", "gmres", _gmres_counts),
    "estimate.local_estimator": ("estimate", "local_estimator", None),
    "estimate.error_norms": ("estimate", "error_norms", None),
    "adapt.adaptive_loop": ("adapt", "adaptive_loop", _adapt_counts),
    "adapt.doerfler_mark": ("adapt", "doerfler_mark", _mark_counts),
    "bench.run_convergence": ("bench", "run_convergence", None),
}

# Per-layer metrics a traced study reports, with their units.
PER_LAYER = [
    ("mesh.build_rect_mesh_s", "s"),
    ("mesh.bisect_s", "s"),
    ("mesh.cells", "count"),
    ("space.build_space_s", "s"),
    ("space.dofs", "count"),
    ("hessian.build_s", "s"),
    ("hessian.mass_solve_s", "s"),
    ("hessian.mass_solves", "count"),
    ("hessian.mass_solves_per_apply", "ratio"),
    ("hessian.mass_lu_fill", "ratio"),
    ("operator.build_system_s", "s"),
    ("operator.cordes_s", "s"),
    ("operator.assemble_B_s", "s"),
    ("operator.stabilization_s", "s"),
    ("operator.load_s", "s"),
    ("operator.rhs_s", "s"),
    ("operator.precond_build_s", "s"),
    ("operator.precond_fill", "ratio"),
    ("operator.precond_solve_s", "s"),
    ("operator.precond_solves", "count"),
    ("operator.apply_s", "s"),
    ("operator.apply_self_s", "s"),
    ("operator.applies", "count"),
    ("operator.apply_nnz", "count"),
    ("solve.solve_problem_self_s", "s"),
    ("solve.gmres_s", "s"),
    ("solve.gmres_self_s", "s"),
    ("solve.iterations", "count"),
    ("solve.true_residual_max", "norm"),
    ("estimate.local_estimator_s", "s"),
    ("estimate.error_norms_s", "s"),
    ("adapt.doerfler_mark_s", "s"),
    ("adapt.levels", "count"),
    ("adapt.marked_frac", "ratio"),
    ("bench.run_convergence_self_s", "s"),
]

# Metrics of the stages only an adaptive study runs.  On every uniform
# workload they read an exact constant 0, so the result line, whose metric
# list all workloads share, leaves them out; the printed table and the run
# record keep them.
ADAPTIVE_ONLY = {"mesh.bisect_s", "adapt.doerfler_mark_s", "adapt.levels", "adapt.marked_frac"}


class Recorder:
    """In-memory spans plus the counts read from returned objects."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._clock = clock
        self.hidden = 0.0

    def now(self):
        return self._clock() - self.hidden

    def wrap(self, name, fn, hook=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            rec.spans.append([name, rec.now(), None, rec._stack[-1] if rec._stack else None])
            rec._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[idx][2] = rec.now()
            if hook is not None:
                t0 = rec._clock()
                hook(rec.counts, out, args)
                rec.hidden += rec._clock() - t0
            return out

        return traced


def wrapper_cost(calls=20000):
    """Seconds one wrapped call adds to a bare call, timed in this process."""
    def noop():
        pass

    wrapped = Recorder().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def overhead_s(recorder, call_cost):
    """What tracing added to a study: hook time plus each span's wrapper."""
    return recorder.hidden + len(recorder.spans) * call_cost


@contextlib.contextmanager
def patched(recorder):
    """Install the recorder's wrappers in every loaded ``nondivfem.*`` module."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "nondivfem" or n.startswith("nondivfem."))]
    saved = []
    try:
        for span, (module, attr, hook) in TARGETS.items():
            mod = sys.modules.get("nondivfem." + module)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is not None:
                    saved.append((cls, meth, fn))
                    setattr(cls, meth, recorder.wrap(span, fn, hook))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = recorder.wrap(span, fn, hook)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        saved.append((ns, key, fn))
                        setattr(ns, key, wrapper)
        yield recorder
    finally:
        for obj, key, fn in reversed(saved):
            setattr(obj, key, fn)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for name, s, e, parent in spans:
        if parent is not None:
            ps, pe = spans[parent][1], spans[parent][2]
            lo, hi = max(s, ps), min(e, pe)
            if hi > lo:
                children[parent].append((lo, hi))
    return [(e - s) - _covered(children[i]) for i, (_, s, e, _) in enumerate(spans)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(recorder):
    """Every PER_LAYER metric of one traced study."""
    spans = recorder.spans
    c = recorder.counts
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for (name, s, e, _), self_s in zip(spans, self_times(spans)):
        total[name] += e - s
        own[name] += self_s
        calls[name] += 1
    solves_in_apply = sum(1 for name, _, _, parent in spans
                          if name == "hessian.mass_solve" and parent is not None
                          and spans[parent][0] == "operator.apply")
    return {
        "mesh.build_rect_mesh_s": total["mesh.build_rect_mesh"],
        "mesh.bisect_s": total["mesh.bisect"],
        "mesh.cells": c["cells"],
        "space.build_space_s": total["space.build_space"],
        "space.dofs": c["dofs"],
        "hessian.build_s": total["hessian.build"],
        "hessian.mass_solve_s": total["hessian.mass_solve"],
        "hessian.mass_solves": calls["hessian.mass_solve"],
        "hessian.mass_solves_per_apply": _ratio(solves_in_apply, calls["operator.apply"]),
        "hessian.mass_lu_fill": _ratio(c["mass_lu_nnz"], c["mass_nnz"]),
        "operator.build_system_s": total["operator.build_system"],
        "operator.cordes_s": total["operator.cordes"],
        "operator.assemble_B_s": total["operator.assemble_B"],
        "operator.stabilization_s": total["operator.stabilization"],
        "operator.load_s": total["operator.load"],
        "operator.rhs_s": total["operator.rhs"],
        "operator.precond_build_s": total["operator.precond_build"],
        "operator.precond_fill": _ratio(c["precond_lu_nnz"], c["precond_nnz"]),
        "operator.precond_solve_s": total["operator.precond_solve"],
        "operator.precond_solves": calls["operator.precond_solve"],
        "operator.apply_s": total["operator.apply"],
        "operator.apply_self_s": own["operator.apply"],
        "operator.applies": calls["operator.apply"],
        "operator.apply_nnz": c["apply_nnz"],
        "solve.solve_problem_self_s": own["solve.solve_problem"],
        "solve.gmres_s": total["solve.gmres"],
        "solve.gmres_self_s": own["solve.gmres"],
        "solve.iterations": c["iterations"],
        "solve.true_residual_max": c["true_residual_max"],
        "estimate.local_estimator_s": total["estimate.local_estimator"],
        "estimate.error_norms_s": total["estimate.error_norms"],
        "adapt.doerfler_mark_s": total["adapt.doerfler_mark"],
        "adapt.levels": c["adapt_levels"],
        "adapt.marked_frac": _ratio(c["marked"], c["mark_cells"]),
        "bench.run_convergence_self_s": own["bench.run_convergence"],
    }
