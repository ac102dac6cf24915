"""One benchmark worker: set up nondivfem once, then run studies on request.

Usage (started by run.py, not by hand): ``python3 worker.py <workload>``.
The parent pins the BLAS/OpenMP thread variables in the environment, so
they are in force before numpy is imported.  The worker imports nondivfem
from ``src/`` of the checkout it lives in, does one warm-up solve and
estimate on the workload's coarsest mesh, and sends its environment record
as the ready signal.  Then it
reads one JSON request per line on stdin and writes one JSON reply per
line on the original stdout; anything else the process prints goes to
stderr.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def os_threads():
    """The ``Threads:`` count of this process, or None where /proc is absent."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import nondivfem

    where = Path(nondivfem.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError("nondivfem was imported from %s, not from this checkout" % where)
    return nondivfem


def warm_up(nondivfem, config):
    """Solve and estimate once on the workload's coarsest mesh."""
    problem = config.make_problem()
    n = config.initial_n
    x0, x1, y0, y1 = problem.bounds
    mesh = nondivfem.build_rect_mesh(x0, x1, y0, y1, n, n)
    sol = nondivfem.solve_problem(problem, mesh, config.degree, scheme=config.scheme)
    nondivfem.local_estimator(sol.u_h, problem, sol.cordes.gamma)
    exact = {"u": problem.exact_u, "grad": problem.exact_grad, "hess": problem.exact_hess}
    nondivfem.error_norms(sol.u_h, exact)


def run_study(settings, csv_path, spans_path):
    """One full study; traced when spans_path is given."""
    import nondivfem.bench as bench

    config = bench.RunConfig(out=csv_path, **settings)
    if spans_path is None:
        t0 = time.perf_counter()
        _, ok = bench.run_convergence(config)
        return {"study_s": time.perf_counter() - t0, "converged": ok}

    rec = spans.Recorder()
    with spans.patched(rec):
        t0 = time.perf_counter()
        _, ok = bench.run_convergence(config)
        study_s = time.perf_counter() - t0
    call_cost = spans.wrapper_cost()
    with open(spans_path, "w") as fh:
        json.dump({"spans": rec.spans, "counts": dict(rec.counts),
                   "hidden_s": rec.hidden, "wrapper_cost_s": call_cost}, fh)
    layers = spans.layer_metrics(rec)
    layers["trace.overhead_s"] = spans.overhead_s(rec, call_cost)
    return {
        "study_s": study_s,
        "converged": ok,
        "unconverged_solves": rec.counts["unconverged"],
        "layers": layers,
    }


def main():
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(msg):
        proto.write(json.dumps(msg) + "\n")

    settings = workloads.WORKLOADS[sys.argv[1]]
    nondivfem = import_package()
    import numpy
    import scipy
    from nondivfem.bench import RunConfig

    warm_up(nondivfem, RunConfig(**settings))
    send({
        "threads": os_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "quit":
            send({"peak_rss_mb": peak_rss_mb(), "threads": os_threads()})
            return 0
        try:
            reply = run_study(settings, req["csv"], req.get("spans"))
        except Exception as exc:  # a failed study is counted, the worker goes on
            traceback.print_exc()
            reply = {"error": "%s: %s" % (type(exc).__name__, exc)}
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
