"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs tiny versions of every workload's code path, checks the metric names
and units against BENCHMARK.json, the self-time arithmetic on synthetic
spans, and that the correctness gate rejects wrong rows.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "uniform-cg-p2": dict(levels=2, initial_n=2),
    "adaptive-exp2-p2": dict(initial_n=2, max_dofs=200),
    "uniform-dg-exp3-p2": dict(levels=2, initial_n=2),
}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.RESULT_PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        self.assertEqual(set(TINY), set(workloads.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_synthetic_spans(self):
        spans_ = [
            ["root", 0.0, 10.0, None],
            ["a", 1.0, 3.0, 0],
            ["b", 2.0, 4.0, 0],       # overlaps a: the union 1..4 counts once
            ["c", 5.0, 6.0, 0],
            ["d", 5.2, 5.5, 3],
            ["e", 9.0, 12.0, 0],      # sticks out of root: only 9..10 counts
        ]
        self.assertEqual(
            [round(x, 12) for x in spans.self_times(spans_)],
            [10.0 - 3.0 - 1.0 - 1.0, 2.0, 2.0, 0.7, 0.3, 3.0],
        )

    def test_recorder_nesting_and_hidden_hook_time(self):
        clock = FakeClock()
        rec = spans.Recorder(clock)

        def inner():
            clock.t += 2.0

        def hook(counts, out, args):
            clock.t += 100.0  # reading counts must not show in any span
            counts["calls"] += 1

        inner_w = rec.wrap("inner", inner, hook)

        def outer():
            clock.t += 1.0
            inner_w()
            inner_w()

        rec.wrap("outer", outer)()
        names = [s[0] for s in rec.spans]
        self.assertEqual(names, ["outer", "inner", "inner"])
        self.assertEqual([s[3] for s in rec.spans], [None, 0, 0])
        self.assertEqual([s[2] - s[1] for s in rec.spans], [5.0, 2.0, 2.0])
        self.assertEqual(spans.self_times(rec.spans), [1.0, 2.0, 2.0])
        self.assertEqual(rec.counts["calls"], 2)
        self.assertEqual(spans.overhead_s(rec, 0.5), 200.0 + 3 * 0.5)

    def test_wrapper_cost_is_small_and_not_negative(self):
        self.assertTrue(0.0 <= spans.wrapper_cost(2000) < 1e-3)


class Gate(unittest.TestCase):
    def rows(self, name):
        return workloads.reference_text(name).splitlines()

    def test_reference_passes(self):
        for name in workloads.WORKLOADS:
            ref = workloads.reference_text(name)
            self.assertEqual(workloads.check(ref, ref), [], name)

    def test_wrong_rows_fail(self):
        for name in workloads.WORKLOADS:
            ref = workloads.reference_text(name)
            lines = self.rows(name)
            cols = lines[-1].split(",")
            bad_dofs = list(cols)
            bad_dofs[0] = str(int(bad_dofs[0]) + 1)
            bad_err = list(cols)
            bad_err[4] = repr(float(bad_err[4]) * (1 + 1e-4))
            bad_its = list(cols)
            bad_its[6] = str(workloads.MAX_ITER)
            for bad in (bad_dofs, bad_err, bad_its):
                text = "\n".join(lines[:-1] + [",".join(bad)]) + "\n"
                self.assertNotEqual(workloads.check(text, ref), [], (name, bad))
            self.assertNotEqual(workloads.check("\n".join(lines[:-1]), ref), [], name)
            self.assertNotEqual(workloads.check(ref, ref, converged=False), [], name)


class TinyStudies(unittest.TestCase):
    """Every workload's code path at toy size, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        import nondivfem.bench as bench

        cls.bench = bench
        cls.tmp = tempfile.TemporaryDirectory()
        cls.results = {}
        for name, shrink in TINY.items():
            settings = dict(workloads.WORKLOADS[name], **shrink)
            plain = Path(cls.tmp.name) / (name + "-plain.csv")
            traced = Path(cls.tmp.name) / (name + "-traced.csv")
            bench.run_convergence(bench.RunConfig(out=str(plain), **settings))
            rec = spans.Recorder()
            with spans.patched(rec):
                bench.run_convergence(bench.RunConfig(out=str(traced), **settings))
            cls.results[name] = (plain.read_text(), traced.read_text(), rec)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_traced_csv_is_byte_identical(self):
        for name, (plain, traced, _) in self.results.items():
            self.assertEqual(plain, traced, name)

    def test_every_layer_metric_is_reported(self):
        for name, (_, _, rec) in self.results.items():
            m = spans.layer_metrics(rec)
            self.assertEqual(sorted(m), sorted(n for n, _ in spans.PER_LAYER), name)
            self.assertEqual(m["hessian.mass_solves_per_apply"], 5.0, name)
            self.assertGreater(m["operator.precond_fill"], 1.0, name)
            self.assertGreater(m["operator.apply_nnz"], 0, name)
            self.assertEqual(rec.counts["unconverged"], 0, name)
            adaptive = name.startswith("adaptive")
            for key in spans.ADAPTIVE_ONLY:
                self.assertEqual(m[key] > 0, adaptive, (name, key))

    def test_stabilization_only_where_eta1_is_on(self):
        for name, (_, _, rec) in self.results.items():
            on = name.startswith("uniform-cg")
            self.assertEqual(rec.counts["stabilization_nnz"] > 0, on, name)

    def test_patch_is_undone(self):
        import nondivfem.operator as op
        import nondivfem.solve as solve

        self.assertIs(solve.build_system, op.build_system)
        self.assertFalse(hasattr(op.build_system, "__wrapped__"))
        self.assertFalse(hasattr(op.SystemOperator.apply, "__wrapped__"))

    def test_missing_target_reports_zero(self):
        gone = {"mesh.gone": ("mesh", "no_such_function", None),
                "operator.gone": ("operator", "NoSuchClass.method", None)}
        rec = spans.Recorder()
        with mock.patch.dict(spans.TARGETS, gone), spans.patched(rec):
            pass
        self.assertEqual(spans.layer_metrics(rec)["mesh.bisect_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
