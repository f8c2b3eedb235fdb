"""Self-tests of the benchmark's own machinery (no orthres run needed).

    python3 perfbench/selftest.py
"""

import copy
import sys
import time
import types
import unittest

import run
import tracer as tracing
import workloads


def fake_report(expected, seed):
    """The report a run would write if it matched ``expected`` exactly."""
    rows = copy.deepcopy(expected["rows"])
    if expected["experiment"] == "comparison_campaign":
        for i, row in enumerate(rows):
            row["seed"] = seed + i
    summary = {"verdict": expected["verdict"]}
    if "all_ok" in expected:
        summary["all_ok"] = expected["all_ok"]
    return {"experiment": expected["experiment"], "rows": rows,
            "summary": summary}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.reference = workloads.load_reference()

    def test_reference_covers_every_config(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(len(self.reference[name]),
                             len(workloads.configs(name, 0)))

    def test_matching_report_passes(self):
        for name in workloads.WORKLOADS:
            for expected in self.reference[name]:
                report = fake_report(expected, seed=7)
                self.assertEqual(
                    workloads.check_report(report, expected, 7), [])

    def test_perturbed_reference_trips_gate(self):
        for name in workloads.WORKLOADS:
            for expected in self.reference[name]:
                report = fake_report(expected, seed=0)
                for col in workloads.NUMERIC_FIELDS:
                    if col not in expected["rows"][-1]:
                        continue
                    bad = copy.deepcopy(expected)
                    v = bad["rows"][-1][col]
                    bad["rows"][-1][col] = v * (1 + 1e-7) + 1e-9
                    self.assertTrue(
                        workloads.check_report(report, bad, 0),
                        f"{name}/{col}: a 1e-7 change passed the gate")
                    near = copy.deepcopy(expected)
                    near["rows"][-1][col] = v * (1 + 1e-12)
                    self.assertEqual(
                        workloads.check_report(report, near, 0), [],
                        f"{name}/{col}: reordered-sum noise failed")

    def test_invariants_trip_gate(self):
        expected = self.reference["solve_campaign"][0]
        report = fake_report(expected, seed=3)
        report["summary"]["all_ok"] = False
        self.assertTrue(workloads.check_report(report, expected, 3))
        report = fake_report(expected, seed=3)
        report["rows"].pop()
        self.assertTrue(workloads.check_report(report, expected, 3))
        report = fake_report(expected, seed=3)
        self.assertTrue(workloads.check_report(report, expected, 4))

    def test_a_miss_fails_the_run(self):
        out = run.Outcome("restart_scan")
        out.metrics = {"wall_s": 1.0}
        out.record(0, [["restart_scan row 3: u differs"]])
        line = run.result_line([out], prefix=False)
        self.assertEqual((line["attempted"], line["failed"]), (1, 1))
        self.assertFalse(line["correct"])
        out = run.Outcome("restart_scan")
        out.metrics = {"wall_s": 1.0}
        out.record(0, [[]])
        self.assertTrue(run.result_line([out], prefix=False)["correct"])


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TracerTest(unittest.TestCase):
    def setUp(self):
        # two fake package modules: b binds a's function the way
        # ``from .a import inner`` does
        a = types.ModuleType("orthres.selftest_a")
        b = types.ModuleType("orthres.selftest_b")

        def inner(x):
            _busy(0.01)
            return x

        def outer(x):
            _busy(0.02)
            return b.inner(x) + b.inner(x)

        a.inner, a.outer, b.inner = inner, outer, inner
        self.mods = {m.__name__: m for m in (a, b)}
        sys.modules.update(self.mods)
        self.a, self.b = a, b

    def tearDown(self):
        for name in self.mods:
            sys.modules.pop(name)

    def test_self_times_add_up(self):
        tr = tracing.Tracer()
        original = self.a.inner
        tr.wrap(self.a, "inner", "fake.inner")
        tr.wrap(self.a, "outer", "fake.outer")
        self.assertIsNot(self.b.inner, original, "alias was not patched")
        t0 = time.perf_counter()
        self.a.outer(1)
        _busy(0.01)
        self.a.outer(2)
        wall = time.perf_counter() - t0
        tr.uninstall()
        self.assertIs(self.a.inner, original)
        self.assertIs(self.b.inner, original)

        times = tr.self_times()
        self.assertEqual(times["fake.outer"][2], 2)
        self.assertEqual(times["fake.inner"][2], 4)
        outer_incl = times["fake.outer"][1]
        inner_incl = times["fake.inner"][1]
        self.assertAlmostEqual(times["fake.outer"][0],
                               outer_incl - inner_incl, places=12)
        self.assertAlmostEqual(times["fake.inner"][0], inner_incl,
                               places=12)
        self_sum = sum(v[0] for v in times.values())
        self.assertAlmostEqual(self_sum, tr.covered(), places=12)
        unattributed = wall - tr.covered()
        self.assertGreater(unattributed, 0.009)
        self.assertLess(unattributed, 0.05)
        self.assertGreater(times["fake.outer"][0], 0.039)
        self.assertGreater(times["fake.inner"][0], 0.039)

    def test_token_is_not_reused(self):
        tr = tracing.Tracer()

        class Obj:
            pass

        seen = set()
        for _ in range(50):
            seen.add(tr.token(Obj()))   # each dies before the next is made
        self.assertEqual(len(seen), 50)


if __name__ == "__main__":
    unittest.main()
