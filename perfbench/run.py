"""Outside-in benchmark of nondivfem's solver paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives ``nondivfem.bench.run_convergence``, the engine behind
``nondivfem run`` and ``nondivfem adapt``, on one fixed workload (see
workloads.py).  Studies run in worker processes with BLAS/OpenMP pinned to
one thread; one client, closed loop: a study starts only after the
previous one finished.

``--trace 0`` measures the end-to-end metrics.  It spawns SETUPS workers
one after another and times each from spawn to ``ready`` (import plus a
warm-up solve on the coarsest mesh).  The last one then runs as many
studies as fit in ``--seconds``, at least MIN_STUDIES so that the median
has that many samples.

``--trace 1`` gives the per-layer metrics.  Two fresh workers run the study
once untraced and once with every layer wrapped by spans.py; the seed picks
which goes first.  The traced CSV must equal the untraced one byte for
byte.  Peak RSS comes from the untraced worker: it is too unsteady from run
to run to serve as a bounded end-to-end metric.  The tracing overhead is
read from the recorder: its hidden hook time plus the number of spans times
the cost of one wrapper, timed in the same worker.

Every study's CSV is checked against ``reference/<workload>.csv``; a study
that raises, does not converge or fails the check counts as failed.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records, CSVs and spans go to ``out/``.
"""

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUPS = 5
MIN_STUDIES = 3
RUN_LIMIT_S = 150.0  # with the waits below, a run ends inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("study_s", "s"),
    ("gmres_iters", "count"),
    ("h2h_error", "norm"),
]
PER_LAYER = spans.PER_LAYER + [("peak_rss_mb", "MB"), ("trace.overhead_s", "s")]
RESULT_PER_LAYER = [(n, u) for n, u in PER_LAYER if n not in spans.ADAPTIVE_ONLY]


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process and its line-based JSON channel."""

    def __init__(self, workload, deadline):
        self.deadline = deadline
        env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            self.info = self._recv()
        except WorkerError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _recv(self):
        left = self.deadline - time.monotonic()
        try:
            line = self.lines.get(timeout=max(left, 0.0))
        except queue.Empty:
            raise WorkerError("no reply before the run's time limit") from None
        if line is None:
            raise WorkerError("worker exited with code %s" % self.proc.wait())
        return json.loads(line)

    def request(self, **msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self):
        """Ask the worker to quit; returns its final record, or {}."""
        final = {}
        try:
            if self.proc.poll() is None:
                final = self.request(cmd="quit")
        except (WorkerError, OSError):
            pass
        finally:
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.reader.join(timeout=5)
        return final


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def study(worker, workload, tag, traced):
    """Run one study and gate it; returns a record with its failure reasons."""
    csv_path = OUT / ("%s.csv" % tag)
    spans_path = OUT / ("%s-spans.json" % tag) if traced else None
    try:
        reply = worker.request(cmd="study", csv=str(csv_path),
                               spans=str(spans_path) if spans_path else None)
    except WorkerError as exc:
        return {"problems": [str(exc)], "dead": True}
    if "error" in reply:
        return {"problems": [reply["error"]]}
    text = csv_path.read_text()
    reply["csv"] = text
    reply["problems"] = workloads.check(text, workloads.reference_text(workload),
                                        reply["converged"])
    if reply.get("unconverged_solves"):
        reply["problems"].append("%d solves report converged=False"
                                 % reply["unconverged_solves"])
    return reply


def csv_metrics(text):
    _, rows = workloads.parse_csv(text)
    return sum(r["iterations"] for r in rows), rows[-1]["H2h_error"]


def timed_round(args, deadline):
    setups, studies = [], []
    worker = None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.close()
            worker = Worker(args.workload, deadline)
            setups.append(worker.setup_s)
        t0 = time.monotonic()
        while True:
            tag = "%s-seed%d-study%d" % (args.workload, args.seed, len(studies))
            studies.append(study(worker, args.workload, tag, traced=False))
            if studies[-1].get("dead"):
                break
            # stop before a study of the mean length would overrun --seconds
            done = len(studies)
            if done >= MIN_STUDIES and (time.monotonic() - t0) * (done + 1) / done > args.seconds:
                break
    finally:
        final = worker.close() if worker is not None else {}
    # failed studies still report their figures when no study passed
    timed = [s for s in studies if not s["problems"]] or [s for s in studies if "csv" in s]
    metrics = {"setup_s": statistics.median(setups)}
    if timed:
        metrics["study_s"] = statistics.median(s["study_s"] for s in timed)
        metrics["gmres_iters"], metrics["h2h_error"] = csv_metrics(timed[0]["csv"])
    env = dict(worker.info, threads_after=final.get("threads"), setups=setups)
    return studies, metrics, env, END_TO_END


def traced_round(args, deadline):
    """The study once untraced and once traced, each in a fresh worker."""
    runs, env = {}, {}
    order = [False, True] if args.seed % 2 == 0 else [True, False]
    for traced in order:
        worker = Worker(args.workload, deadline)
        try:
            tag = "%s-seed%d-%s" % (args.workload, args.seed, "traced" if traced else "plain")
            runs[traced] = study(worker, args.workload, tag, traced)
        finally:
            final = worker.close()
        if not traced:
            env = dict(worker.info, threads_after=final.get("threads"))
            runs[traced]["peak_rss_mb"] = final.get("peak_rss_mb")
    plain, traced = runs[False], runs[True]
    if "csv" in plain and "csv" in traced and plain["csv"] != traced["csv"]:
        traced["problems"].append("traced CSV differs from the untraced one")
    metrics = dict(traced.get("layers", {}))
    if plain.get("peak_rss_mb") is not None:
        metrics["peak_rss_mb"] = plain["peak_rss_mb"]
    print("per-layer metrics (traced study summed over levels; RSS of the untraced one):")
    for name, unit in PER_LAYER:
        if name in metrics:
            print("  %-32s %14.6g %s" % (name, metrics[name], unit))
    return [plain, traced], metrics, env, RESULT_PER_LAYER


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "nondivfem" / "__init__.py").is_file():
        print("error: no nondivfem sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    round_ = traced_round if args.trace else timed_round
    try:
        studies, metrics, env, wanted = round_(args, deadline)
    except WorkerError as exc:
        print("error: worker failed during set-up: %s" % exc, file=sys.stderr)
        return 1

    failed = sum(1 for s in studies if s["problems"])
    for i, s in enumerate(studies):
        for p in s["problems"]:
            print("study %d failed: %s" % (i, p))
    env.update(git_sha=git_sha(), nproc=os.cpu_count(), workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace,
               pinned={v: "1" for v in THREAD_VARS})
    if env.get("threads") != 1:
        print("warning: worker runs %s OS threads, not 1" % env.get("threads"), file=sys.stderr)
    missing = [n for n, _ in wanted if n not in metrics]
    if missing:
        print("error: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    print("environment: %s" % json.dumps(env, sort_keys=True))
    print("studies: %d attempted, %d failed (failed_frac %.3f)"
          % (len(studies), failed, failed / len(studies)))
    record = {"env": env, "studies": [{k: v for k, v in s.items() if k != "csv"}
                                      for s in studies], "metrics": metrics}
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(studies),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
