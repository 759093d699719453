#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py (the bench-regression gate).

Builds synthetic BENCH_*.json baseline/fresh pairs in temp dirs and
checks both verdict modes: structural (schema, metric presence,
finiteness, boolean invariants) and --strict (ratio tolerances with
per-metric direction). Registered as ctest `bench_compare_test`, label
`static`.
"""
import json
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

import bench_compare  # noqa: E402


def write_report(directory, filename, bench, rows, schema=1):
    path = os.path.join(directory, filename)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"bench": bench, "schema": schema, "rows": rows}, f)
    return path


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self._tmp.name, "baselines")
        self.run_dir = os.path.join(self._tmp.name, "run")
        os.makedirs(self.base_dir)
        os.makedirs(self.run_dir)

    def tearDown(self):
        self._tmp.cleanup()

    def run_gate(self, *extra_args):
        """Runs main() and returns (exit_code, verdict_dict)."""
        out = os.path.join(self._tmp.name, "verdict.json")
        code = bench_compare.main(
            [self.run_dir, "--baseline-dir", self.base_dir,
             "--json-out", out, *extra_args])
        with open(out, encoding="utf-8") as f:
            return code, json.load(f)

    # -- structural mode ----------------------------------------------

    def test_identical_reports_pass(self):
        rows = [{"kind": "hmac_micro", "scalar_ms": 10.0, "speedup": 4.0,
                 "guard_met": True}]
        write_report(self.base_dir, "BENCH_batched_crypto.json",
                     "batched_crypto", rows)
        write_report(self.run_dir, "BENCH_batched_crypto.json",
                     "batched_crypto", rows)
        code, verdict = self.run_gate()
        self.assertEqual(code, 0)
        self.assertEqual(verdict["verdict"], "PASS")
        self.assertEqual(verdict["benches_compared"], 1)

    def test_structural_ignores_numeric_drift(self):
        write_report(self.base_dir, "BENCH_batched_crypto.json",
                     "batched_crypto",
                     [{"kind": "hmac_micro", "scalar_ms": 10.0}])
        write_report(self.run_dir, "BENCH_batched_crypto.json",
                     "batched_crypto",
                     [{"kind": "hmac_micro", "scalar_ms": 9999.0}])
        code, verdict = self.run_gate()
        self.assertEqual(code, 0, verdict)

    def test_schema_bump_fails(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 5.0}], schema=1)
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 5.0}], schema=2)
        code, verdict = self.run_gate()
        self.assertEqual(code, 1)
        kinds = {f["kind"] for b in verdict["benches"]
                 for f in b["failures"]}
        self.assertIn("schema_mismatch", kinds)

    def test_missing_metric_fails(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 5.0, "drops": 0}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 6.0}])
        code, verdict = self.run_gate()
        self.assertEqual(code, 1)
        kinds = {f["kind"] for b in verdict["benches"]
                 for f in b["failures"]}
        self.assertIn("missing_metric", kinds)

    def test_nan_metric_fails_even_structurally(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 5.0}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": float("nan")}])
        code, verdict = self.run_gate()
        self.assertEqual(code, 1)
        kinds = {f["kind"] for b in verdict["benches"]
                 for f in b["failures"]}
        self.assertIn("not_finite", kinds)

    def test_broken_boolean_invariant_fails(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "all_verified": True}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "all_verified": False}])
        code, verdict = self.run_gate()
        self.assertEqual(code, 1)
        kinds = {f["kind"] for b in verdict["benches"]
                 for f in b["failures"]}
        self.assertIn("invariant_broken", kinds)

    def test_baseline_false_boolean_places_no_obligation(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "guard_met": False}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "guard_met": True}])
        code, _ = self.run_gate()
        self.assertEqual(code, 0)

    def test_fewer_fresh_rows_tolerated(self):
        write_report(self.base_dir, "BENCH_engine_multiquery.json",
                     "engine_multiquery",
                     [{"k": 1, "epoch_ms": 1.0}, {"k": 64, "epoch_ms": 9.0}])
        write_report(self.run_dir, "BENCH_engine_multiquery.json",
                     "engine_multiquery", [{"k": 1, "epoch_ms": 1.1}])
        code, verdict = self.run_gate()
        self.assertEqual(code, 0)
        bench = verdict["benches"][0]
        self.assertEqual(bench["matched_rows"], 1)
        self.assertEqual(bench["unmatched_baseline_rows"], [64])

    def test_fresh_bench_without_baseline_skipped(self):
        write_report(self.run_dir, "BENCH_new_thing.json", "new_thing",
                     [{"x_ms": 1.0}])
        code, verdict = self.run_gate()
        self.assertEqual(code, 0)
        self.assertEqual(verdict["benches_skipped_no_baseline"],
                         ["new_thing"])

    # -- strict mode --------------------------------------------------

    def test_strict_regression_beyond_slack_fails(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 10.0}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 30.0}])  # 3x > 2.5x slack
        code, verdict = self.run_gate("--strict")
        self.assertEqual(code, 1)
        kinds = {f["kind"] for b in verdict["benches"]
                 for f in b["failures"]}
        self.assertIn("regression", kinds)

    def test_strict_regression_within_slack_passes(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 10.0}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 20.0}])  # 2x < 2.5x slack
        code, _ = self.run_gate("--strict")
        self.assertEqual(code, 0)

    def test_strict_speedup_drop_fails(self):
        write_report(self.base_dir, "BENCH_batched_crypto.json",
                     "batched_crypto",
                     [{"kind": "hmac_micro", "speedup": 5.0}])
        write_report(self.run_dir, "BENCH_batched_crypto.json",
                     "batched_crypto",
                     [{"kind": "hmac_micro", "speedup": 1.0}])  # 0.2 < 1/2.5
        code, verdict = self.run_gate("--strict")
        self.assertEqual(code, 1, verdict)

    def test_strict_improvement_passes(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 10.0}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "rtt_us": 1.0}])
        code, _ = self.run_gate("--strict")
        self.assertEqual(code, 0)

    def test_strict_exact_metric_must_match(self):
        write_report(self.base_dir, "BENCH_engine_multiquery.json",
                     "engine_multiquery",
                     [{"k": 8, "channel_epochs": 100, "epoch_ms": 2.0}])
        write_report(self.run_dir, "BENCH_engine_multiquery.json",
                     "engine_multiquery",
                     [{"k": 8, "channel_epochs": 101, "epoch_ms": 2.0}])
        code, verdict = self.run_gate("--strict")
        self.assertEqual(code, 1)
        kinds = {f["kind"] for b in verdict["benches"]
                 for f in b["failures"]}
        self.assertIn("exact_mismatch", kinds)

    def test_strict_ignored_suffix_never_compared(self):
        write_report(self.base_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "cache_hits": 10}])
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp", "cache_hits": 99999}])
        code, _ = self.run_gate("--strict")
        self.assertEqual(code, 0)

    # -- classify() and CLI edge cases --------------------------------

    def test_rows_sharing_a_kind_are_keyed_by_threads(self):
        # batched_crypto's cold_start rows share `kind`; each baseline row
        # must be judged against the fresh row with its own thread count.
        def cold(threads, ms):
            return {"kind": "cold_start", "threads": threads,
                    "cold_evaluate_ms": ms}
        write_report(self.base_dir, "BENCH_batched_crypto.json",
                     "batched_crypto", [cold(1, 100.0), cold(4, 25.0)])
        write_report(self.run_dir, "BENCH_batched_crypto.json",
                     "batched_crypto", [cold(1, 1000.0), cold(4, 25.0)])
        code, verdict = self.run_gate("--strict")
        self.assertEqual(code, 1, verdict)
        bench = verdict["benches"][0]
        self.assertEqual(bench["matched_rows"], 2)
        self.assertEqual([f["row"] for f in bench["failures"]],
                         [["cold_start", 1]])

    def test_duplicate_row_key_fails(self):
        rows = [{"kind": "hmac_micro", "scalar_ms": 10.0}]
        write_report(self.base_dir, "BENCH_batched_crypto.json",
                     "batched_crypto", rows)
        write_report(self.run_dir, "BENCH_batched_crypto.json",
                     "batched_crypto", rows + rows)
        code, verdict = self.run_gate()
        self.assertEqual(code, 1, verdict)
        kinds = {f["kind"] for b in verdict["benches"]
                 for f in b["failures"]}
        self.assertEqual(kinds, {"duplicate_key"})

    def test_duplicate_row_key_in_baseline_fails(self):
        rows = [{"op": "mod_add", "fp_ns": 3.0}]
        write_report(self.base_dir, "BENCH_micro_crypto.json",
                     "micro_crypto", rows + rows)
        write_report(self.run_dir, "BENCH_micro_crypto.json",
                     "micro_crypto", rows)
        code, verdict = self.run_gate()
        self.assertEqual(code, 1, verdict)
        self.assertEqual(verdict["benches"][0]["failures"][0]["kind"],
                         "duplicate_key")

    def test_classify_directions(self):
        self.assertEqual(bench_compare.classify("epoch_ms"), "lower")
        self.assertEqual(bench_compare.classify("rtt_us"), "lower")
        self.assertEqual(bench_compare.classify("speedup"), "higher")
        self.assertEqual(bench_compare.classify("adx_speedup"), "higher")
        self.assertEqual(bench_compare.classify("channel_epochs"), "exact")
        self.assertEqual(bench_compare.classify("cache_hits"), "ignore")
        self.assertEqual(bench_compare.classify("overhead_pct"), "ignore")
        self.assertEqual(bench_compare.classify("unknown_metric"), "ignore")

    def test_missing_run_dir_is_usage_error(self):
        code = bench_compare.main(
            [os.path.join(self._tmp.name, "nope"),
             "--baseline-dir", self.base_dir])
        self.assertEqual(code, 2)

    def test_empty_run_dir_is_usage_error(self):
        code = bench_compare.main(
            [self.run_dir, "--baseline-dir", self.base_dir])
        self.assertEqual(code, 2)

    def test_bad_slack_is_usage_error(self):
        write_report(self.run_dir, "BENCH_transport.json", "transport",
                     [{"mode": "udp"}])
        code = bench_compare.main(
            [self.run_dir, "--baseline-dir", self.base_dir,
             "--slack", "0.5"])
        self.assertEqual(code, 2)

    def test_corrupt_fresh_report_is_io_error(self):
        with open(os.path.join(self.run_dir, "BENCH_broken.json"), "w",
                  encoding="utf-8") as f:
            f.write("{not json")
        code = bench_compare.main(
            [self.run_dir, "--baseline-dir", self.base_dir])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
