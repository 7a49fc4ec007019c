#!/usr/bin/env python3
"""Unit tests for bench_gate.py's direction inference and retired-file
report.

Run directly (CI does): ``python3 scripts/test_bench_gate.py``

The gate's only judgment call is whether a metric key means "lower is
better" or "higher is better"; a wrong inference silently inverts a
regression check. These tests pin the marker table, in particular the
histogram-quantile markers (``_p50``/``_p99``/``_p999``) and the rule
that lower-is-better markers win when both kinds match.
"""

import unittest

from bench_gate import direction, retired_files, retired_keys


class DirectionInference(unittest.TestCase):
    def test_quantile_keys_are_lower_is_better(self):
        for key in (
            "obs_traced_submit_e2e_p99",
            "open_loop_assign_p50",
            "flush_sync_p999",
            "router_hop_P99",  # case-insensitive
        ):
            self.assertEqual(direction(key), "lower", key)

    def test_unit_suffix_keys_are_lower_is_better(self):
        for key in (
            "obs_hist_record_ns",
            "replication_single_event_lag_us",
            "fence_window_ms",
            "wire_bytes_per_event",
        ):
            self.assertEqual(direction(key), "lower", key)

    def test_throughput_keys_are_higher_is_better(self):
        for key in (
            "obs_off_tput_answers_per_s",
            "pipeline_tput",
            "recovery_speedup",
            "ti_accuracy",
            "scaling_8_shards_x",
        ):
            self.assertEqual(direction(key), "higher", key)

    def test_lower_wins_when_both_kinds_of_marker_match(self):
        # An overhead multiplier is a cost even though it ends in `_x`,
        # and a latency quantile stays a cost when the key also names a
        # throughput-ish word.
        self.assertEqual(direction("obs_on_overhead_x"), "lower")
        self.assertEqual(direction("tput_latency_p99"), "lower")

    def test_unmarked_keys_have_no_direction(self):
        for key in ("events_replayed", "campaigns", "p99"):  # bare p99: no `_p99`
            self.assertIsNone(direction(key), key)

    def test_count_keys_are_not_direction_inferred(self):
        # `_count` keys are informational in main(); direction() itself
        # must not claim them either way unless another marker matches.
        self.assertIsNone(direction("migration_forwarded_count"))


class RetiredFiles(unittest.TestCase):
    def test_a_whole_file_missing_from_the_tree_is_reported(self):
        # The baseline's root tree holds more than bench files; only a
        # BENCH_*.json the working tree lost is retired.
        tree = ["BENCH_codec.json", "BENCH_ota.json", "Cargo.toml", "README.md"]
        self.assertEqual(retired_files(tree, ["BENCH_codec.json"]), ["BENCH_ota.json"])
        self.assertEqual(retired_files(tree, ["BENCH_codec.json", "BENCH_ota.json"]), [])
        # A file new in the tree is not the baseline's to retire.
        self.assertEqual(retired_files(["BENCH_codec.json"], ["BENCH_codec.json", "BENCH_new.json"]), [])


class RetiredKeys(unittest.TestCase):
    def test_a_partially_emptied_file_reports_what_it_dropped(self):
        # BENCH_latency.json after the push plane went: the pull keys of
        # the gated cells stay (and are compared), the rest retire.
        base = {
            "openloop_pull_w100_assign_p99_ms": 1.1,
            "openloop_pull_w5000_assign_p99_ms": 58.7,
            "openloop_push_w100_assign_p99_ms": 1.2,
            "openloop_push_p99_assign_speedup_w100": 0.94,
        }
        current = {"openloop_pull_w100_assign_p99_ms": 0.6, "openloop_new_key": 1.0}
        self.assertEqual(
            retired_keys(base, current),
            [
                "openloop_pull_w5000_assign_p99_ms",
                "openloop_push_p99_assign_speedup_w100",
                "openloop_push_w100_assign_p99_ms",
            ],
        )
        # Nothing dropped, nothing retired; a new key is not a retirement.
        self.assertEqual(retired_keys(base, {**base, "extra": 1.0}), [])


if __name__ == "__main__":
    unittest.main()
