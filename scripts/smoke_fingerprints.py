#!/usr/bin/env python3
"""Fail when the canonical benchmark's --smoke fingerprints move.

Reads the standard output of

  cargo run --release --locked --offline --quiet \
      --manifest-path bench/Cargo.toml -- --smoke

from the file named on the command line (or from stdin) and compares each
workload's `truth hash` and `calls` with the pairs pinned below. Exits 1
when a pair differs, when a pinned workload is missing from the output and
when the output names a workload the table does not pin.

The inference kernels are bit-identical by contract, so these pairs only
move with a change that is meant to move outputs; such a change updates the
table in the same diff and says why. This check is a stopgap until --smoke
checks its own fingerprints (ROADMAP item 1(e)).

  python3 scripts/smoke_fingerprints.py smoke.txt
"""

import re
import sys

# workload -> (truth hash, calls) of the --smoke run.
PINNED = {
    "paper_qa_mem": ("50e6065d6f2441bd", 188),
    "tenants_mem": ("a1ec53d32aa21b30", 1873),
    "tenants_durable": ("a1ec53d32aa21b30", 1873),
    "tenants_replicated": ("a1ec53d32aa21b30", 2341),
}

HEADER = re.compile(r"^workload (\S+) \|")
FINGERPRINT = re.compile(r"^\s+answers \d+\s+calls (\d+)\s+truth hash ([0-9a-f]{16})\b")


def parse(lines):
    """workload -> (truth hash, calls), in the order the output names them."""
    found = {}
    workload = None
    for line in lines:
        header = HEADER.match(line)
        if header:
            workload = header.group(1)
            continue
        fingerprint = FINGERPRINT.match(line)
        if fingerprint:
            if workload is None:
                raise ValueError(f"a fingerprint before any workload header: {line.strip()}")
            found[workload] = (fingerprint.group(2), int(fingerprint.group(1)))
    return found


def problems(found):
    """One line per difference from PINNED; empty when everything matches."""
    out = []
    for workload, (truth_hash, calls) in PINNED.items():
        if workload not in found:
            out.append(f"{workload}: no truth hash in the output")
            continue
        got_hash, got_calls = found[workload]
        if (got_hash, got_calls) != (truth_hash, calls):
            out.append(
                f"{workload}: truth hash {got_hash} / calls {got_calls}, "
                f"pinned {truth_hash} / {calls}"
            )
    for workload in found:
        if workload not in PINNED:
            out.append(f"{workload}: not pinned in {__file__}")
    return out


def main(argv):
    if len(argv) > 2:
        sys.exit("usage: smoke_fingerprints.py [SMOKE_OUTPUT]")
    if len(argv) == 2:
        with open(argv[1]) as f:
            lines = f.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    try:
        found = parse(lines)
    except ValueError as e:
        sys.exit(f"smoke_fingerprints.py: {e}")
    wrong = problems(found)
    for line in wrong:
        print(f"FINGERPRINT MOVED  {line}")
    if wrong:
        return 1
    for workload, (truth_hash, calls) in found.items():
        print(f"fingerprint ok  {workload}: truth hash {truth_hash} / calls {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
