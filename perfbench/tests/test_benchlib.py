"""Unit tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import benchlib as bl  # noqa: E402


def span(name, sid, parent, start, end, pid=1):
    return {"span": name, "id": sid, "parent": parent, "pid": pid, "start_ns": start, "end_ns": end}


class TailPercentile(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        q, value, n = bl.tail_percentile(values)
        self.assertEqual((q, value, n), (99.0, 990, 1000))  # 10 samples above 990

    def test_falls_back_as_samples_shrink(self):
        self.assertEqual(bl.tail_percentile(list(range(1, 201))), (95.0, 190, 200))
        self.assertEqual(bl.tail_percentile(list(range(1, 101))), (90.0, 90, 100))
        self.assertEqual(bl.tail_percentile(list(range(1, 21))), (50.0, 10, 20))

    def test_too_few_samples(self):
        self.assertIsNone(bl.tail_percentile(list(range(19))))
        self.assertIsNone(bl.tail_percentile([]))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(bl.tail_percentile(values), bl.tail_percentile(sorted(values)))


class SpanArithmetic(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertEqual(bl.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(bl.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(bl.union_length([]), 0)

    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            span("root", 1, None, 0, 100),
            span("a", 2, 1, 10, 40),
            span("b", 3, 1, 30, 60),  # overlaps a: counted once
            span("leaf", 4, 2, 15, 20),
        ]
        selfs = bl.self_times(spans)
        self.assertEqual(selfs[(1, 1)], 100 - 50)
        self.assertEqual(selfs[(1, 2)], 30 - 5)
        self.assertEqual(selfs[(1, 3)], 30)
        self.assertEqual(selfs[(1, 4)], 5)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 1, None, 10, 20), span("c", 2, 1, 0, 15)]
        self.assertEqual(bl.self_times(spans)[(1, 1)], 5)

    def test_same_ids_in_other_processes_are_distinct(self):
        spans = [span("p", 1, None, 0, 10, pid=1), span("c", 2, 1, 0, 10, pid=2)]
        self.assertEqual(bl.self_times(spans)[(1, 1)], 10)

    def test_self_time_by_name_sums(self):
        spans = [span("x", 1, None, 0, 10), span("x", 2, None, 20, 25), span("y", 3, 1, 0, 4)]
        self.assertEqual(bl.self_time_by_name(spans), {"x": 11, "y": 4})

    def test_unattributed_counts_only_layer_leaves_under_roots(self):
        spans = [
            span("bench.process", 1, None, 0, 100),
            span("bench.job", 2, 1, 0, 90),
            span("sim.run", 3, 2, 10, 50),
            span("dataplane.replay", 4, 2, 40, 70),
            span("bench.job", 1, None, 0, 10, pid=2),
        ]
        self.assertEqual(bl.unattributed(spans), (90 - 60 + 10, 100))

    def test_wrapper_spans_cover_nothing(self):
        spans = [
            span("bench.job", 1, None, 0, 100),
            span("runner.run_jobs", 2, 1, 0, 100),
            span("experiments.fig4", 3, 2, 0, 100),
            span("serve.request", 4, 3, 0, 100),
            span("sim.run", 5, 4, 20, 30),
        ]
        self.assertEqual(bl.unattributed(spans), (90, 100))

    def test_leaves_count_only_for_their_own_root(self):
        # Two jobs running at once on two threads: one job's layer spans
        # do not cover the other's gaps.
        spans = [
            span("bench.job", 1, None, 0, 100),
            span("bench.job", 2, None, 0, 100),
            span("dataplane.replay", 3, 1, 0, 100),
            span("sim.run", 4, 2, 0, 40),
            span("serve.submit", 5, None, 40, 100),  # under no root
        ]
        self.assertEqual(bl.unattributed(spans), (60, 200))

    def test_layer_metrics_ratios(self):
        spans = [
            span("bench.job", 1, None, 0, 1000),
            span("experiments.run", 2, 1, 0, 400),
            span("sim.run", 3, 1, 400, 500),
            span("dataplane.replay", 4, 1, 500, 800),
        ]
        counters = {"sim.events": 10, "dataplane.packets": 100, "dataplane.memo_hits": 25,
                    "dataplane.indexes": 4, "dataplane.dense_indexes": 1}
        m = bl.layer_metrics(spans, counters)
        self.assertEqual(set(m), set(bl.LAYER_UNITS))
        self.assertEqual(m["sim.ns_per_event"], 10.0)
        self.assertEqual(m["dataplane.replay_ns_per_packet"], 3.0)
        self.assertEqual(m["dataplane.memo_hit_ratio"], 0.25)
        self.assertEqual(m["dataplane.epoch_dense"], 0.25)
        self.assertEqual(m["bench.trace_overhead_frac"], 400 / 400 - 1.0)
        self.assertAlmostEqual(m["bench.unattributed_frac"], 0.2)


class GoldenFilter(unittest.TestCase):
    def test_drops_cargo_and_stderr_noise(self):
        text = (
            "    Finished `release` profile [optimized] target(s) in 0.05s\n"
            "     Running `target/release/all_figures paper`\n"
            "running all figure sweeps at Paper scale…\n"
            "== Figure 4 ==\n"
            "## Fig 4(a)\n"
            "  5   33.1\n"
            "\n"
            "runner: 805 jobs (0 cache hits / 805 executed), wall 13.0s\n"
            "all claim checks passed\n"
        )
        self.assertEqual(bl.golden_lines(text), ["## Fig 4(a)", "  5   33.1"])

    def test_plain_stdout_matches_its_noisy_capture(self):
        stdout = "## Fig 4(a)\n  5   33.1   \n\n[PASS] claim\n\n"
        noisy = "== Figure 4 ==\n" + stdout + "runner: 1 jobs\nall claim checks passed\n"
        self.assertEqual(bl.golden_lines(stdout), bl.golden_lines(noisy))

    def test_data_change_is_visible(self):
        self.assertNotEqual(bl.golden_lines("  5   33.1\n"), bl.golden_lines("  5   33.2\n"))

    def test_committed_golden_has_figure_data(self):
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
        with open(os.path.join(root, "all_figures_paper.txt")) as f:
            lines = bl.golden_lines(f.read())
        self.assertTrue(lines[0].startswith("## Fig 4(a)"))
        self.assertFalse(any(line.startswith(("runner:", "== Figure")) for line in lines))


if __name__ == "__main__":
    unittest.main()
