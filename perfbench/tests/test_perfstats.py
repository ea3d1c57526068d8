"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import hashlib
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfstats  # noqa: E402
import run  # noqa: E402


def span(inclusive=0, child=0, count=0):
    return [inclusive, child, count]


def traced_system(**over):
    """One System of a --trace 1 run, every count and span zero."""
    s = {name: 0 for name in (
        "epochs", "misses", "hits", "evictions", "dirty_evictions",
        "writebacks", "pool_calls", "pool_hits", "dram_accesses",
        "encode_calls", "memo_hits", "recovery_reads", "construct_s",
        "run_s", "traced_s", "fill_epoch", "misses_after_fill", "snapshots",
        "snapshot_bytes")}
    s["spans"] = {name: span() for name in (
        "sim.loop", "workloads.next", "trace.next", "workloads.pool",
        "workloads.bump", "cache.access", "cache.insert", "mem.read",
        "mem.writeback", "mem.alias_check", "reliability.advance",
        "stats.drain")}
    s["codec"] = {"encodes": 0, "encode_ns": 0, "decodes": 0,
                  "decode_ns": 0}
    s["dram_replay"] = {"requests": 0, "ns": 0, "row_hits": 0}
    s.update(over)
    return s


class TailPercentile(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(perfstats.tail_percentile(1))
        self.assertIsNone(perfstats.tail_percentile(10))
        self.assertEqual(perfstats.tail_percentile(11), 9)

    def test_keeps_ten_samples_beyond(self):
        self.assertEqual(perfstats.tail_percentile(20), 50)
        self.assertEqual(perfstats.tail_percentile(100), 90)
        self.assertEqual(perfstats.tail_percentile(1000), 99)
        for n in range(11, 300):
            p = perfstats.tail_percentile(n)
            rank = -(-p * n // 100)
            self.assertGreaterEqual(n - rank, 10)
            # One percent higher would leave fewer than ten beyond.
            self.assertLess(n - -(-(p + 1) * n // 100), 10)

    def test_summary_takes_the_tail_on_the_worse_side(self):
        values = list(range(1, 21))
        low = perfstats.summarize(values, "lower")
        self.assertEqual((low["median"], low["p"], low["tail"], low["n"]),
                         (10.5, 50, 10, 20))
        high = perfstats.summarize(values, "higher")
        self.assertEqual((high["p"], high["tail"]), (50, 11))
        self.assertNotIn("tail", perfstats.summarize([3.0] * 10))

    def test_spread_is_quartile_distance_over_median(self):
        # Exclusive quartiles of 1..5 are 1.5 and 4.5.
        self.assertAlmostEqual(perfstats.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(perfstats.spread([7.0] * 4), 0.0)


class SelfTime(unittest.TestCase):
    def test_self_is_span_minus_children(self):
        self.assertEqual(perfstats.self_ns(span(1000, 400, 3)), 600)

    def test_layer_self_times_per_miss(self):
        spans = traced_system()["spans"]
        spans["sim.loop"] = span(10000, 7000, 1)
        spans["mem.read"] = span(3000, 1000, 2)
        spans["workloads.pool"] = span(1000, 0, 5)
        spans["cache.insert"] = span(900, 300, 2)
        run_ = {"systems": [traced_system(misses=2, spans=spans,
                                          run_s=1.0, traced_s=1.25)]}
        m = perfstats.layer_metrics(run_)
        self.assertEqual(m["sim.loop_self_ns_per_miss"], 1500)
        self.assertEqual(m["mem.read_self_ns_per_miss"], 1000)
        self.assertEqual(m["cache.insert_self_ns"], 300)
        self.assertEqual(m["workloads.pool_ns_per_miss"], 500)
        self.assertEqual(m["sim.tracing_overhead"], 0.25)
        self.assertEqual(set(m), set(perfstats.LAYER_UNITS))

    def test_layer_sums_are_taken_over_systems(self):
        a = traced_system(misses=10, hits=30, dirty_evictions=4)
        b = traced_system(misses=30, hits=30, dirty_evictions=0)
        m = perfstats.layer_metrics({"systems": [a, b]})
        self.assertEqual(m["cache.miss_rate"], 0.4)
        self.assertEqual(m["cache.dirty_evictions_per_miss"], 0.1)


class Digest(unittest.TestCase):
    def test_digest_is_sha256_of_sorted_fields(self):
        text = "cycles=10\nipc=1.5\n"
        self.assertEqual(perfstats.digest({"ipc": 1.5, "cycles": 10}),
                         hashlib.sha256(text.encode()).hexdigest()[:16])

    def test_field_order_does_not_matter_but_values_do(self):
        a = perfstats.digest({"ipc": 2.25, "llc_misses": 7})
        self.assertEqual(a, perfstats.digest({"llc_misses": 7, "ipc": 2.25}))
        self.assertNotEqual(a, perfstats.digest({"ipc": 2.25,
                                                 "llc_misses": 8}))
        self.assertNotEqual(
            perfstats.digest({"ipc": 0.1 + 0.2}),
            perfstats.digest({"ipc": 0.3}))

    def test_mismatch_and_disagreement_fail_the_run(self):
        out = {"mode": "measure", "workload": "w", "seed": 5,
               "labels": ["a", "b"], "fields": [{"x": 1}, {"x": 2}],
               "rep_mismatches": [0, 1]}
        refs = {"seeds": {"5": {"w": {"a": perfstats.digest({"x": 3}),
                                      "b": perfstats.digest({"x": 2})}}}}
        self.assertEqual(sorted(run.check(out, refs)), ["a", "b"])
        self.assertEqual(sorted(run.check(out, {"seeds": {}})), ["b"])

    def test_traced_counter_mismatch_fails_the_run(self):
        out = {"mode": "trace", "workload": "w", "seed": 0, "systems": [
            {"label": "a", "reference_fields": {"x": 1},
             "counters_match": False},
            {"label": "b", "reference_fields": {"x": 1},
             "counters_match": True}]}
        self.assertEqual(list(run.check(out, {"seeds": {}})), ["a"])


class Divergence(unittest.TestCase):
    def test_relative_to_the_oracle(self):
        self.assertAlmostEqual(perfstats.divergence(2.2, 2.0), 0.1)
        self.assertAlmostEqual(perfstats.divergence(1.8, 2.0), 0.1)
        self.assertEqual(perfstats.divergence(2.0, 2.0), 0.0)

    def test_workload_reports_the_largest(self):
        fast = [traced_system(fast={"ipc": 2.2, "oracle_ipc": 2.0,
                                    "run_s": 1, "construct_s": 0.1,
                                    "barriers": 5}),
                traced_system(fast={"ipc": 1.5, "oracle_ipc": 2.0,
                                    "run_s": 1, "construct_s": 0.3,
                                    "barriers": 5})]
        m = perfstats.layer_metrics({"systems": fast})
        self.assertAlmostEqual(m["sim.fast.ipc_divergence_max"], 0.25)
        self.assertAlmostEqual(m["sim.fast.construct_ms"], 200)
        self.assertEqual(m["sim.fast.barriers"], 10)


class ParallelEfficiency(unittest.TestCase):
    def test_busy_share_of_jobs_over_makespan(self):
        self.assertEqual(perfstats.parallel_efficiency([1, 1, 1, 1], 1, 4),
                         1.0)
        self.assertEqual(perfstats.parallel_efficiency([1, 1], 2, 2), 0.5)
        self.assertAlmostEqual(
            perfstats.parallel_efficiency([3, 1, 1, 1], 3, 4), 0.5)

    def test_runner_metrics_come_from_cell_times(self):
        m = perfstats.layer_metrics({
            "systems": [traced_system()],
            "runner": {"jobs": 2, "makespan_s": 4.0,
                       "cell_s": [1.0, 2.0, 3.0]}})
        self.assertEqual(m["sim.runner.parallel_efficiency"], 0.75)
        self.assertEqual(m["sim.runner.cell_s_p50"], 2.0)
        self.assertEqual(m["sim.runner.cell_s_max"], 3.0)


if __name__ == "__main__":
    unittest.main()
