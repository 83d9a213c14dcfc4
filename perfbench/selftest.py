"""Tests of the benchmark itself, not of compactify.

    python3 perfbench/selftest.py

The file name keeps it out of the package's pytest run: the end-to-end
cases run every workload twice and take a few minutes.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.import_package()

import numpy as np  # noqa: E402

import compactify.compactification as C  # noqa: E402
import compactify.extension as E  # noqa: E402
import compactify.product_space as P  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from compactify.functions import Cos, FunctionDescriptor, Tanh  # noqa: E402

SMALL = C.BuildParams(r_image=5.0, r_tail_lo=5.0, r_tail_hi=200.0, grid_step=0.05)
HELD_OUT_SEED = 90210


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, cls in W.WORKLOADS.items():
                with self.subTest(workload=name):
                    a = cls(7, Path(tmp)).inputs()
                    self.assertEqual(a, cls(7, Path(tmp)).inputs())
                    self.assertNotEqual(a, cls(8, Path(tmp)).inputs())

    def test_query_mix_is_the_same_for_every_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            mixes = {
                seed: sorted(
                    (op["op"], op["level"], op.get("probe_kind", ""))
                    for op in W.QueryWorkload(seed, Path(tmp)).inputs()
                )
                for seed in (1, 2, HELD_OUT_SEED)
            }
        self.assertEqual(mixes[1], mixes[2])
        self.assertEqual(mixes[1], mixes[HELD_OUT_SEED])


def _build_op(model, label="tanh+cos"):
    return W.Op(label, lambda: model, lambda m: ({"family": label, **W.model_summary(m)},
                                                 W.model_problems(m)))


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.model = C.build_compactification((Tanh(), Cos()), SMALL)

    def perturbed(self, **changes):
        fields = {f: getattr(self.model, f) for f in
                  ("embedding", "params", "image_params", "image_points", "remainder")}
        fields.update(changes)
        return C.CompactificationModel(**fields)

    def test_unperturbed_output_passes(self):
        phase = run.run_ops([_build_op(self.model)], 0, None, passes=2)
        self.assertEqual((phase.attempted, phase.failed), (2, 0))

    def test_one_ulp_in_an_image_point_is_a_failure(self):
        expected = run.run_ops([_build_op(self.model)], 0, None, passes=1).digests[0]
        points = self.model.image_points.copy()
        points[17, 1] = np.nextafter(points[17, 1], 2.0)
        phase = run.run_ops([_build_op(self.perturbed(image_points=points))], 0, expected, passes=1)
        self.assertEqual(phase.failed, 1)

    def test_lost_witness_fails_the_invariants_without_a_reference(self):
        first = self.model.remainder[0]
        short = C.RemainderCluster(first.cluster_id, first.center, first.side, first.witnesses[1:])
        model = self.perturbed(remainder=(short,) + self.model.remainder[1:])
        phase = run.run_ops([_build_op(model)], 0, None, passes=1)
        self.assertEqual(phase.failed, 1)

    def test_output_that_changes_between_passes_is_a_failure(self):
        values = iter([0.25, 0.25 + 2**-40])
        op = W.Op("flaky", lambda: next(values), lambda v: ({"value": v}, []))
        phase = run.run_ops([op], 0, None, passes=2)
        self.assertEqual(phase.failed, 1)

    def test_exception_is_a_failure(self):
        op = W.Op("raises", lambda: 1 / 0, lambda v: (v, []))
        phase = run.run_ops([op], 0, None, passes=1)
        self.assertEqual((phase.attempted, phase.failed), (1, 1))


class StatisticsTest(unittest.TestCase):
    def test_typical_pass_takes_each_operations_median(self):
        # A slow spell covers op 0 of the first pass and op 1 of the last.
        phase = run.Phase()
        phase.pass_walls = [3.0, 2.0, 3.0]
        phase.latencies = [2.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        self.assertEqual(phase.typical_pass_s(), 2.0)

    def test_nearest_rank_percentile_ignores_repeats(self):
        once = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.percentile(once, 90), run.percentile(once * 4, 90))


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores_them(self):
        originals = (P.distances_to_cloud, E.distances_to_cloud, FunctionDescriptor.evaluate)
        tracer = spans.Tracer()
        tracer.install()
        tracer.op = "0/0"
        try:
            self.assertIs(E.distances_to_cloud, P.distances_to_cloud)
            self.assertIs(E.distances_to_cloud.__wrapped__, originals[0])
            self.assertIsNot(FunctionDescriptor.evaluate, originals[2])
            model = C.build_compactification((Tanh(), Cos()), SMALL)
            E.check_extendability(model, Cos(2.0, 0.5), deltas=(0.4, 0.2))
        finally:
            tracer.remove()
        self.assertEqual((P.distances_to_cloud, E.distances_to_cloud, FunctionDescriptor.evaluate),
                         originals)
        metrics = tracer.layer_metrics(passes=1)
        self.assertEqual(metrics["compactification.build_compactification.calls"], 1)
        self.assertEqual(metrics["extension.check_extendability.calls"], 1)
        self.assertEqual(metrics["product_space.distances_to_cloud.calls"], len(model.remainder))
        self.assertEqual(metrics["compactification.greedy_cluster.points"], W.tail_size(SMALL))
        self.assertEqual(metrics["extension.check_extendability.witnesses"], W.tail_size(SMALL))

    def test_self_time_excludes_children(self):
        spans_ = [
            ["ordering.compare", 0.0, 10.0, -1, "0/0"],
            ["product_space.rowwise_distance", 1.0, 4.0, 0, "0/0"],
            ["product_space.distances_to_cloud", 5.0, 6.0, 0, "0/0"],
        ]
        m = spans.derive_metrics(spans_, {"setup": {}, "measured": {}}, passes=1)
        self.assertEqual(m["ordering.compare.self_s"], 6.0)
        self.assertEqual(m["product_space.rowwise_distance.self_s"], 3.0)
        self.assertEqual(m["ordering.compare.calls"], 1.0)

    def test_measured_metrics_are_per_pass_and_setup_is_apart(self):
        spans_ = [
            ["compactification.build_compactification", 0.0, 5.0, -1, "setup"],
            ["compactification.greedy_cluster", 1.0, 4.0, 0, "setup"],
            ["compactification.greedy_cluster", 10.0, 12.0, -1, "0/0"],
            ["compactification.greedy_cluster", 20.0, 22.0, -1, "1/0"],
        ]
        counters = {
            "setup": {"compactification.greedy_cluster.points": 100.0},
            "measured": {"compactification.greedy_cluster.points": 60.0},
        }
        m = spans.derive_metrics(spans_, counters, passes=2)
        self.assertEqual(m["compactification.greedy_cluster.calls"], 1.0)
        self.assertEqual(m["compactification.greedy_cluster.self_s"], 2.0)
        self.assertEqual(m["compactification.greedy_cluster.points"], 30.0)
        self.assertEqual(m["compactification.build_compactification.calls"], 0.0)
        self.assertEqual(m["trace.spans"], 1.0)
        self.assertEqual(m["setup.compactification.greedy_cluster.calls"], 1.0)
        self.assertEqual(m["setup.compactification.greedy_cluster.points"], 100.0)
        self.assertEqual(m["setup.compactification.build_compactification.self_s"], 2.0)
        self.assertEqual(m["setup.trace.spans"], 2.0)


class EndToEndTest(unittest.TestCase):
    """A default-seed and a held-out-seed run of every workload, untraced
    and traced, finish with no failed operation."""

    def run_workload(self, name, seed, trace):
        argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr

    def test_error_rate_is_zero(self):
        units = spans.layer_metric_units()
        for name in run.WORKLOAD_NAMES:
            for seed, trace in ((W.DEFAULT_SEED, 0), (HELD_OUT_SEED, 0), (HELD_OUT_SEED, 1)):
                with self.subTest(workload=name, seed=seed, trace=trace):
                    result, stderr = self.run_workload(name, seed, trace)
                    self.assertEqual(result["failed"], 0, stderr[-3000:])
                    self.assertTrue(result["correct"])
                    wanted = units if trace else run.END_TO_END_UNITS
                    self.assertEqual(set(result["metrics"]), set(wanted))


if __name__ == "__main__":
    unittest.main()
