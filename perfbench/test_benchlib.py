#!/usr/bin/env python3
"""Tests of the benchmark's own helpers (benchlib.py).

    python3 perfbench/test_benchlib.py
"""

import math
import unittest

import benchlib as bl


def record(**fields):
    base = {"idx": 0, "status": bl.STATUS_OK, "latency_s": 0.01,
            "elapsed_s": 1.0, "deadline_s": 2.0, "estimate": 10.0,
            "variance": 4.0, "ci_lo": 6.0, "ci_hi": 14.0, "exact": 12,
            "blocks_sampled": 5}
    base.update(fields)
    return base


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bl.percentile(values, 50), 50)
        self.assertEqual(bl.percentile(values, 95), 95)
        self.assertEqual(bl.percentile(values, 100), 100)
        self.assertEqual(bl.percentile(values, 0.1), 1)

    def test_unsorted_and_small(self):
        self.assertEqual(bl.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(bl.percentile([3.0, 1.0], 50), 1.0)
        self.assertEqual(bl.percentile([7.0], 95), 7.0)
        self.assertEqual(bl.percentile([], 50), 0.0)

    def test_picks_a_sample_value(self):
        values = [0.5, 0.25, 4.0, 1.0]
        for p in (1, 25, 50, 75, 95, 100):
            self.assertIn(bl.percentile(values, p), values)


class SlicedPercentileTest(unittest.TestCase):
    def test_steady_series_matches_plain_percentile(self):
        values = [float(i % 10) for i in range(90)]
        self.assertEqual(bl.sliced_percentile(values, 50), 4.0)
        self.assertEqual(bl.sliced_percentile(values, 95),
                         bl.percentile(values, 95))

    def test_stall_in_a_minority_of_slices_is_ignored(self):
        values = [1.0] * 90
        values[10:25] = [50.0] * 15  # a stall over two of nine slices
        self.assertEqual(bl.sliced_percentile(values, 95), 1.0)
        self.assertEqual(bl.percentile(values, 95), 50.0)

    def test_uniform_slowdown_moves_it(self):
        fast = [1.0, 2.0, 3.0] * 30
        slow = [2 * v for v in fast]
        self.assertEqual(bl.sliced_percentile(slow, 50),
                         2 * bl.sliced_percentile(fast, 50))

    def test_short_series(self):
        self.assertEqual(bl.sliced_percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(bl.sliced_percentile([], 50), 0.0)


class ShapeGeomeanTest(unittest.TestCase):
    def test_per_shape_percentiles(self):
        records = ([{"shape": 0, "v": x} for x in (1.0, 2.0, 3.0)]
                   + [{"shape": 1, "v": x} for x in (8.0, 8.0, 100.0)])
        self.assertAlmostEqual(
            bl.shape_geomean(records, lambda r: r["v"],
                             lambda v: bl.percentile(v, 50)), 4.0)
        self.assertAlmostEqual(
            bl.shape_geomean(records, lambda r: r["v"], bl.mean),
            math.sqrt(2.0 * 116.0 / 3.0))

    def test_insensitive_to_shape_mix(self):
        fast = [{"shape": 0, "v": 1.0}] * 5
        slow = [{"shape": 1, "v": 4.0}] * 5
        self.assertAlmostEqual(
            bl.shape_geomean(fast + slow, lambda r: r["v"], bl.mean),
            bl.shape_geomean(fast + slow[:2], lambda r: r["v"], bl.mean))

    def test_empty(self):
        self.assertEqual(bl.shape_geomean([], lambda r: r["v"], bl.mean), 0.0)


class AccountingTest(unittest.TestCase):
    def test_elapsed_rule(self):
        records = [record(), record(elapsed_s=2.5),
                   record(status=bl.STATUS_REJECTED),
                   record(status=bl.STATUS_ERROR)]
        acct = bl.accounting(records, "elapsed")
        self.assertEqual(acct, {"attempted": 4, "failed": 2, "errors": 1,
                                "misses": 3})

    def test_latency_rule(self):
        records = [record(latency_s=0.004, deadline_s=0.005),
                   record(latency_s=0.006, deadline_s=0.005),
                   record(latency_s=0.001, deadline_s=0.005,
                          status=bl.STATUS_REJECTED)]
        acct = bl.accounting(records, "latency")
        self.assertEqual(acct["misses"], 2)
        self.assertEqual(acct["failed"], 1)
        self.assertEqual(acct["errors"], 0)

    def test_deadline_is_inclusive(self):
        self.assertFalse(bl.is_miss(record(elapsed_s=2.0), "elapsed"))

    def test_unknown_rule(self):
        with self.assertRaises(ValueError):
            bl.is_miss(record(), "wall")

    def test_answer_problems(self):
        self.assertEqual(bl.answer_problems(record()), [])
        self.assertTrue(bl.answer_problems(record(estimate=math.nan)))
        self.assertTrue(bl.answer_problems(record(estimate=None)))
        self.assertTrue(bl.answer_problems(record(variance=-1.0)))
        self.assertTrue(bl.answer_problems(record(estimate=20.0)))

    def test_covers(self):
        self.assertTrue(bl.covers(record()))
        self.assertFalse(bl.covers(record(exact=15)))


class DigestTest(unittest.TestCase):
    def test_stable_and_bit_sensitive(self):
        records = [record(idx=0), record(idx=1, estimate=11.0)]
        digest = bl.result_digest(7, records)
        self.assertEqual(digest,
                         bl.result_digest(7, [dict(r) for r in records]))
        self.assertEqual(len(digest), 64)
        nudged = [record(idx=0),
                  record(idx=1, estimate=math.nextafter(11.0, 12.0))]
        self.assertNotEqual(digest, bl.result_digest(7, nudged))
        self.assertNotEqual(digest, bl.result_digest(8, records))
        self.assertNotEqual(digest, bl.result_digest(7, records[::-1]))
        fewer_blocks = [record(idx=0), record(idx=1, estimate=11.0,
                                              blocks_sampled=4)]
        self.assertNotEqual(digest, bl.result_digest(7, fewer_blocks))


def span(id_, parent, layer, start, end):
    return {"id": id_, "parent": parent, "layer": layer, "start_s": start,
            "end_s": end}


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [span(0, -1, "bench", 0.0, 10.0),
                 span(1, 0, "ra", 1.0, 2.0),
                 span(2, 0, "engine", 3.0, 7.0),
                 span(3, 2, "exec", 4.0, 6.0)]
        totals = bl.self_times(spans)
        self.assertAlmostEqual(totals["bench"], 5.0)
        self.assertAlmostEqual(totals["ra"], 1.0)
        self.assertAlmostEqual(totals["engine"], 2.0)
        self.assertAlmostEqual(totals["exec"], 2.0)
        self.assertAlmostEqual(sum(totals.values()), 10.0)

    def test_overlapping_and_overhanging_children(self):
        spans = [span(0, -1, "bench", 0.0, 10.0),
                 span(1, 0, "a", 2.0, 5.0),
                 span(2, 0, "a", 4.0, 6.0),    # overlaps span 1
                 span(3, 0, "b", 9.0, 12.0)]   # runs past its parent
        totals = bl.self_times(spans)
        self.assertAlmostEqual(totals["bench"], 10.0 - 4.0 - 1.0)

    def test_layers_sum_over_spans(self):
        spans = [span(0, -1, "bench", 0.0, 1.0), span(1, 0, "x", 0.0, 0.5),
                 span(2, -1, "bench", 5.0, 6.0), span(3, 2, "x", 5.0, 5.25)]
        totals = bl.self_times(spans)
        self.assertAlmostEqual(totals["x"], 0.75)
        self.assertAlmostEqual(totals["bench"], 1.25)

    def test_covered_length(self):
        self.assertAlmostEqual(
            bl.covered_length([(0, 2), (1, 3), (5, 6), (7, 7)], 0, 10), 4.0)
        self.assertEqual(bl.covered_length([], 0, 1), 0.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 10.4, 9.9]
        self.assertAlmostEqual(bl.spread(values), (10.425 - 9.725) / 10.05)

    def test_constant(self):
        self.assertEqual(bl.spread([2.0] * 5), 0.0)


if __name__ == "__main__":
    unittest.main()
