"""Fast self-test of the benchmark harness at tiny sizes (not part of tier-1).

    python3 bench/selftest.py

Checks the tracer's self-time accounting on a scripted clock, that hooks
are installed and removed through every namespace that holds a function,
that reference chunks are not counted as operation time, that each
workload prints exactly the metrics BENCHMARK.json lists with the expected
share of failed operations, and that the benchmark refuses to run without
the package sources. Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from instrument import NO_SPAN, Instrument, Tracer  # noqa: E402
from metrics import LAYER_MODULES  # noqa: E402

# share of operations that fail on every run, through the known faults
FAILED_SHARE = {"thin-film": (1, 2), "mms-1d-fine": (0, 1), "small-grid": (1, 3)}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class ScriptedClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        clock = ScriptedClock()
        t = Tracer(clock)
        clock.now = 1.0
        t.set_phase("step", clock())
        t.enter("a.outer")
        clock.now = 2.0
        t.enter("b.inner")
        clock.now = 5.0
        t.exit()
        clock.now = 5.5
        t.enter("b.inner")
        clock.now = 6.0
        t.exit()
        clock.now = 7.0
        t.exit()
        clock.now = 7.25
        t.set_phase("idle", clock())
        self.assertEqual(t.duration("a.outer", ("step",)), 6.0)
        self.assertEqual(t.self_of("a.outer", ("step",)), 2.5)
        self.assertEqual(t.self_of("b.inner", ("step",)), 3.5)
        self.assertEqual(t.count("b.inner", ("step",)), 2)
        self.assertEqual(t.self_of(NO_SPAN, ("step",)), 0.25)
        self.assertEqual(t.self_of(NO_SPAN, ("idle",)), 1.0)
        self.assertEqual([s[3] for s in t.spans], [-1, 0, 0])


class PatchTest(unittest.TestCase):
    def test_install_and_restore_every_reference(self):
        import gspm2
        from gspm2 import convergence, schemes, spectral
        originals = (schemes.scheme_a_step, convergence._STEPPERS["scheme-a"],
                     gspm2.scheme_a_step, spectral.SpectralPlan.__dict__["forward"],
                     convergence.build_plan)
        inst = Instrument()
        inst.install(traced=True)
        try:
            self.assertIsNot(convergence._STEPPERS["scheme-a"], originals[1])
            self.assertIs(convergence._STEPPERS["scheme-a"], schemes.scheme_a_step)
            self.assertIs(gspm2.scheme_a_step, schemes.scheme_a_step)
            self.assertIsNot(convergence.build_plan, originals[4])
        finally:
            inst.restore()
        self.assertEqual(originals, (schemes.scheme_a_step,
                                     convergence._STEPPERS["scheme-a"],
                                     gspm2.scheme_a_step,
                                     spectral.SpectralPlan.__dict__["forward"],
                                     convergence.build_plan))


class SlowReference:
    """A reference whose chunk takes 50 ms."""

    def __init__(self):
        self.chunks = 0

    def chunk(self):
        time.sleep(0.05)
        self.chunks += 1


class ReferenceTest(unittest.TestCase):
    def test_chunks_are_taken_out_of_operation_time(self):
        inst = Instrument(SlowReference())
        inst.begin_op()
        for _ in range(3):
            inst._on_step()
        inst.end_op()
        self.assertEqual(inst.reference.chunks, 1)
        self.assertLess(inst.op_wall, 0.01)
        self.assertEqual(inst.steps, 3)


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        cls.names = {0: {m["name"] for m in spec["end_to_end"]},
                     1: {m["name"] for m in spec["per_layer"]}}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def check_run(self, workload, seed, trace):
        proc = run_bench("--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace),
                         "--scale", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        num, den = FAILED_SHARE[workload]
        self.assertEqual(result["failed"] * den, result["attempted"] * num)
        self.assertEqual(set(result["metrics"]), self.names[trace])
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_end_to_end(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                m = self.check_run(workload, 1, 0)
                self.assertTrue(all(v > 0 for v in m.values()), m)

    def test_layers_account_for_traced_step_time(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                m = self.check_run(workload, 2, 1)
                parts = sum(m[f"{mod}.self_ms_per_step"] for mod in LAYER_MODULES)
                parts += m["trace.untraced_ms_per_step"]
                self.assertAlmostEqual(parts / m["trace.step_ms"], 1.0, places=9)


class NoSourcesTest(unittest.TestCase):
    def test_refuses_without_package(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_bench("--workload", "small-grid", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
