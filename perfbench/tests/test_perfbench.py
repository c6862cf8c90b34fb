"""The benchmark's own tests.

Run from the root of a source checkout:

    python3 -m unittest discover -s perfbench/tests

The statistics tests are pure Python; the others build the measuring
program (as perfbench/run.py does) and run reduced-size workloads.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import reduction  # noqa: E402
import run  # noqa: E402

# Reduced size: 5% of the nominal rows (at least 200), 1 second.
SMALL_SCALE = 0.05
SMALL_SECONDS = 1
# Share of a reduced-size traced Find() the stage spans may leave uncovered
# when the measured tracing overhead is smaller: engine and state
# construction and teardown are fixed per-Find costs, 3-7% of a Find at 5%
# of the rows and under 2% at full size.
MAX_STAGE_GAP = 0.10


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(reduction.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(reduction.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            reduction.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(reduction.percentile(values, 50), 50)
        self.assertEqual(reduction.percentile(values, 90), 90)
        self.assertEqual(reduction.percentile(values, 100), 100)
        self.assertEqual(reduction.percentile([7.0], 90), 7.0)
        self.assertEqual(reduction.percentile([1, 2, 3], 90), 3)

    def test_ten_samples_beyond_rule(self):
        # p90 of n samples leaves n - ceil(0.9 n) beyond it: 10 needs n >= 100.
        self.assertEqual(reduction.samples_beyond(list(range(100)), 90), 10)
        self.assertEqual(reduction.samples_beyond(list(range(99)), 90), 9)
        self.assertIsNone(reduction.reportable_tail(list(range(99)), (90,)))
        self.assertEqual(reduction.reportable_tail(list(range(100)), (90,)), 90)
        # p99 needs 1000 samples; below that the tail falls back to p90.
        self.assertEqual(reduction.reportable_tail(list(range(999)), (99, 90)), 90)
        self.assertEqual(reduction.reportable_tail(list(range(1000)), (99, 90)), 99)
        # Ties at the cut are not beyond it.
        self.assertEqual(reduction.samples_beyond([1.0] * 200, 90), 0)
        self.assertIsNone(reduction.reportable_tail([], (90,)))

    def test_pair_p50_weighs_every_pair_the_same(self):
        # Two pairs with separate latency clusters: the plain median of the
        # mix (2.55) lies between them; pair_p50 is the mean of the pairs'
        # medians.
        latencies = [1.0, 1.2, 1.1, 4.0, 4.2, 3.9]
        pairs = [0, 0, 0, 1, 1, 1]
        self.assertAlmostEqual(reduction.median(latencies), 2.55)
        self.assertAlmostEqual(reduction.pair_p50(latencies, pairs), (1.1 + 4.0) / 2)
        # Uneven sample counts do not shift the weight to the faster pair.
        self.assertAlmostEqual(
            reduction.pair_p50([1.0, 1.0, 1.0, 1.0, 5.0], [0, 0, 0, 0, 1]), 3.0)
        # One pair: the plain median.
        self.assertEqual(reduction.pair_p50([3.0, 1.0, 2.0, 9.0], [0] * 4), 2.5)
        with self.assertRaises(ValueError):
            reduction.pair_p50([1.0], [])

    def test_end_to_end_reduction(self):
        raw = {
            "finds": {"latency_s": [1.0, 3.0, 2.0, 4.0], "ok": [True, True, False, True],
                      "f1": [1.0, 0.5, 0.0, 1.0], "request": [0, 1, 0, 1],
                      "pair": [0, 1, 0, 1]},
            "wall_s": 10.0, "peak_rss_kb": 2048,
            "setup_steps": {"generate": 0.5, "references": 7.0, "warm-up": 5.0},
            "attempted": 5, "failed": 1,
        }
        metrics, extras = reduction.end_to_end(raw)
        self.assertEqual(metrics["find_p50_s"], 2.5)  # pair medians 1.5 and 3.5
        self.assertEqual(metrics["finds_per_s"], 0.3)  # correct Find()s only
        self.assertEqual(metrics["recovery_f1"], 0.625)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)
        self.assertEqual(metrics["setup_s"], 12.5)  # every set-up step
        self.assertEqual(metrics["failed_frac"], 0.2)
        self.assertNotIn("find_p90_s", metrics)  # 4 samples: no tail
        self.assertEqual(extras["find_samples"], 4)
        raw["finds"]["latency_s"] = [float(i) for i in range(100)]
        raw["finds"]["pair"] = [0] * 100
        self.assertEqual(reduction.end_to_end(raw)[0]["find_p90_s"], 89.0)


class MeasuredRunTest(unittest.TestCase):
    """Reduced-size runs of the real measuring program."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()

    def run_main(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(list(args))
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_every_named_metric_is_emitted(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_main(
                        "--workload", workload, "--seed", "3", "--seconds",
                        str(SMALL_SECONDS), "--trace", str(trace),
                        "--scale", str(SMALL_SCALE))
                    names = [m["name"] for m in self.spec[declared]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for m in self.spec[declared]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace:
                        self.assert_stages_cover_find(result["metrics"])

    def assert_stages_cover_find(self, metrics):
        # The six stage spans nest in the traced Find()'s root span and sum
        # to it to within the tracing overhead the run reports.
        m = {name: metric["value"] for name, metric in metrics.items()}
        gap = reduction.stage_gap_frac(m)
        self.assertGreaterEqual(gap, 0.0)
        self.assertLessEqual(gap, max(abs(m["trace.overhead_frac"]), MAX_STAGE_GAP))

    def test_corrupted_reference_counts_as_failure(self):
        # Only request 0's reference is corrupted: exactly its Find()s fail
        # (plus, with a context, the warm-up Find() of its pair), the run
        # still completes, and a clean run of the same seed has no failure.
        for workload, warmups in (("cold_large", 0), ("warm_session", 3)):
            with self.subTest(workload=workload):
                raw = run.measure(workload, 3, SMALL_SECONDS, 0,
                                  corrupt_reference=True, scale=SMALL_SCALE)
                requests = raw["finds"]["request"]
                bad = sum(1 for r in requests if r == 0) + (1 if warmups else 0)
                self.assertGreater(bad, 0)
                self.assertEqual(raw["failed"], bad)
                self.assertEqual(raw["attempted"], len(requests) + warmups)
                for r, ok in zip(requests, raw["finds"]["ok"]):
                    self.assertEqual(ok, r != 0)
                metrics, _ = reduction.end_to_end(raw)
                self.assertEqual(metrics["failed_frac"], bad / raw["attempted"])
                self.assertEqual(metrics["finds_per_s"],
                                 sum(1 for r in requests if r != 0) / raw["wall_s"])
                self.assertFalse(run.result_line(raw, 0, self.spec)["correct"])

                clean = run.measure(workload, 3, SMALL_SECONDS, 0, scale=SMALL_SCALE)
                self.assertEqual(clean["failed"], 0)
                self.assertTrue(run.result_line(clean, 0, self.spec)["correct"])


if __name__ == "__main__":
    unittest.main()
