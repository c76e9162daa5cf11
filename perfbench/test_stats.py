"""Self-tests of the benchmark's statistics: python3 perfbench/test_stats.py"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def span(i, parent, start, end, name="x", tid=0):
    return {"id": i, "parent": parent, "iter": -1, "tid": tid,
            "start": start, "end": end, "name": name}


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(19)), 50))
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(stats.percentile(list(range(999)), 99))
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(stats.percentile(values, 50), 50.0)

    def test_rejects_bad_rank(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 100, 100)

    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        with self.assertRaises(ValueError):
            stats.median([])


class FastHalfMeanTest(unittest.TestCase):
    def test_even_count_takes_upper_half(self):
        self.assertEqual(stats.fast_half_mean([4.0, 1.0, 3.0, 2.0]), 3.5)

    def test_odd_count_includes_middle(self):
        self.assertEqual(stats.fast_half_mean([5.0, 1.0, 3.0]), 4.0)
        self.assertEqual(stats.fast_half_mean([7.0]), 7.0)

    def test_slow_outliers_do_not_move_it(self):
        base = [10.0, 11.0, 12.0, 13.0]
        self.assertEqual(stats.fast_half_mean(base + [1.0, 2.0]),
                         stats.fast_half_mean(base + [9.0, 9.5]))
        with self.assertRaises(ValueError):
            stats.fast_half_mean([])


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)]
        self.assertEqual(stats.self_times(spans), {0: 70, 1: 20, 2: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 50)]
        self.assertEqual(stats.self_times(spans)[0], 60)

    def test_child_clipped_to_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 110)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_other_thread_children_do_not_count(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 90, tid=3)]
        self.assertEqual(stats.self_times(spans)[0], 100)

    def test_attribute_sums_layers_under_roots(self):
        spans = [
            span(0, -1, 0, 1000, "root"),
            span(1, 0, 0, 400, "a"),
            span(2, 1, 100, 200, "b"),
            span(3, 0, 500, 900, "b"),
            span(4, -1, 2000, 3000, "elsewhere"),
            span(5, 0, 0, 800, "b", tid=2),
        ]
        layers, wall = stats.attribute(spans, "root", lambda n: n.upper())
        self.assertEqual(wall, 1000)
        self.assertEqual(layers, {"ROOT": 200, "A": 300, "B": 500})
        self.assertEqual(sum(layers.values()), wall)

    def test_read_spans(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv",
                                         delete=False) as f:
            f.write("id\tparent\titer\ttid\tstart_ns\tend_ns\tname\n")
            f.write("0\t-1\t-1\t0\t5\t9\tps.step\n")
            path = f.name
        try:
            self.assertEqual(stats.read_spans(path), [{
                "id": 0, "parent": -1, "iter": -1, "tid": 0,
                "start": 5, "end": 9, "name": "ps.step"}])
        finally:
            os.unlink(path)


if __name__ == "__main__":
    unittest.main()
