"""Self-test of the benchmark harness: python3 perfbench/selftest.py

Runs a tiny slice of every workload, untraced and traced, and feeds the
checker outputs it must reject.
"""

from __future__ import annotations

import dataclasses
import signal
import unittest

import run
import workloads


def quiet(_line):
    pass


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        signal.signal(signal.SIGALRM, run._alarm)

    def test_tiny_slice_of_every_workload(self):
        for name in run.WORKLOADS:
            for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
                with self.subTest(workload=name, trace=trace):
                    result = run.run_workload(name, 0, 0.0, trace, per_class=1, out=quiet)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(units))

    def test_checker_flags_a_flipped_color(self):
        E, ops, _ = run.setup("cube_ladder", 0, per_class=1)
        op = next(op for op in ops if op.name.startswith("Q6#"))
        coloring = op.call(E)
        self.assertIsNone(op.check(coloring))
        flipped = dict(coloring.assignment)
        edge = next(iter(flipped))
        flipped[edge] = flipped[edge] % 6 + 1
        bad = dataclasses.replace(coloring, assignment=flipped)
        self.assertIsNotNone(op.check(bad))
        self.assertEqual(run.run_op(E, dataclasses.replace(op, call=lambda E: bad), 0).kind, "wrong")

    def test_checker_flags_a_refutation_reported_extendable(self):
        E, ops, _ = run.setup("oracle_sweep", 0, per_class=1)
        op = next(op for op in ops if op.name.startswith("hub "))
        inst, certificate, decided = op.call(E)
        self.assertIsNone(op.check((inst, certificate, decided)))
        witness = E.EdgeColoring(palette_size=inst.precoloring.palette_size, assignment={})
        self.assertIsNotNone(op.check((inst, certificate, witness)))
        self.assertIsNotNone(op.check((inst, None, decided)))

    def test_deadline_ends_a_slow_op(self):
        E, ops, _ = run.setup("cube_ladder", 0, per_class=1)
        op = next(op for op in ops if op.name.startswith("Q9#"))
        record = run.run_op(E, dataclasses.replace(op, deadline=0.01), 0)
        self.assertEqual(record.kind, "timeout")
        self.assertLess(record.wall, 1.0)

    def test_interleave_keeps_the_class_mix_in_every_prefix(self):
        ops = workloads.interleave([["a"] * 8, ["b"] * 2])
        self.assertEqual(ops[:5].count("b"), 1)


if __name__ == "__main__":
    unittest.main()
