#!/usr/bin/env python3
"""Unit tests for smoke_fingerprints.py.

Run directly (CI does): ``python3 scripts/test_smoke_fingerprints.py``

The check reads the benchmark's human-readable output, so these tests pin
that it finds every workload's pair in that layout, and that a moved hash,
a moved call count, a missing workload and an unpinned one each fail it.
"""

import unittest

from smoke_fingerprints import PINNED, parse, problems


def smoke_output(pairs):
    """The lines --smoke prints that the check reads, per workload."""
    lines = []
    for workload, (truth_hash, calls) in pairs.items():
        lines += [
            f"workload {workload} | seed 1 | nproc 2 | kernel x | rustc y | durability dir on ext4",
            "  why: ...",
            "  answers_per_s       123.0000 1/s    higher-is-better  bound 0.25",
            f"  answers 200  calls {calls}  truth hash {truth_hash}  identical across repeats: yes",
            "  attempted 188  failed 0  failed_op_ratio 0",
            '{"correct": true}',
            "",
        ]
    return lines + ["4 workloads in 25.0 s: all checks passed"]


class SmokeFingerprints(unittest.TestCase):
    def test_the_pinned_output_passes(self):
        found = parse(smoke_output(PINNED))
        self.assertEqual(found, PINNED)
        self.assertEqual(problems(found), [])

    def test_a_moved_hash_or_call_count_fails(self):
        for workload in PINNED:
            truth_hash, calls = PINNED[workload]
            for moved in ((truth_hash[::-1], calls), (truth_hash, calls + 1)):
                pairs = dict(PINNED, **{workload: moved})
                wrong = problems(parse(smoke_output(pairs)))
                self.assertEqual(len(wrong), 1, wrong)
                self.assertTrue(wrong[0].startswith(workload), wrong)

    def test_a_missing_or_unpinned_workload_fails(self):
        missing = {w: p for w, p in PINNED.items() if w != "tenants_durable"}
        self.assertEqual(
            problems(parse(smoke_output(missing))),
            ["tenants_durable: no truth hash in the output"],
        )
        extra = dict(PINNED, clustered=("0123456789abcdef", 1))
        wrong = problems(parse(smoke_output(extra)))
        self.assertEqual(len(wrong), 1, wrong)
        self.assertTrue(wrong[0].startswith("clustered: not pinned"), wrong)

    def test_a_fingerprint_without_a_workload_is_an_error(self):
        lines = smoke_output({"paper_qa_mem": PINNED["paper_qa_mem"]})[3:]
        with self.assertRaises(ValueError):
            parse(lines)


if __name__ == "__main__":
    unittest.main()
