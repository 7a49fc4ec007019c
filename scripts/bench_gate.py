#!/usr/bin/env python3
"""Bench-trajectory gate: compare working-tree BENCH_*.json files against
the committed baseline (``git show HEAD:<file>``) and fail if any headline
metric regressed beyond the tolerance (default 20%).

Usage:
    python3 scripts/bench_gate.py [--tolerance 0.20] [--baseline HEAD]

The direction of "better" is inferred from the key name:

* lower-is-better keys contain one of: ``overhead``, ``latency``, ``lag``,
  ``bytes``, ``allocation``, ``_ns``, ``_us``, ``_ms``, ``_p50``, ``_p99``,
  ``_p999``, ``calibration_err``, ``per_correct``. The quantile markers
  cover the histogram metrics ``BENCH_obs.json`` reports: a latency
  quantile is always a cost, whatever unit suffix it carries.
* higher-is-better keys contain one of: ``_per_s``, ``tput``, ``speedup``,
  ``accuracy``, or end in ``_x``. This covers the quality metrics of
  ``BENCH_quality.json`` (``*_accuracy``, ``*_accuracy_delta_vs_majority``):
  scenario runs are byte-deterministic, so any change in a quality key is a
  real inference change, not run-to-run noise — a PR that makes the service
  faster but dumber fails here like any perf regression.
* keys ending in ``_count`` are **informational**: reported, never gated
  (they describe workload shape — e.g. how many submissions a migration
  forwarded — not performance).

Lower-is-better markers win when both match (e.g. a ``..._overhead_..._x``
multiplier is an overhead, not a speedup). A metric (or whole file) with no
committed baseline is a **warning, never a failure** — new metrics appear
with every bench added and old ones retire; the gate only protects metrics
with a real baseline, and the warnings make the unprotected ones visible
so a typo'd key can't silently opt a metric out of the gate. A key, or a
whole ``BENCH_*.json``, that the baseline has and the tree does not is
printed as ``retired``.
"""

import argparse
import fnmatch
import glob
import json
import os
import subprocess
import sys

LOWER_MARKERS = (
    "overhead",
    "latency",
    "lag",
    "bytes",
    "allocation",
    "_ns",
    "_us",
    "_ms",
    "_p50",
    "_p99",
    "_p999",
    "calibration_err",
    "per_correct",
)
HIGHER_MARKERS = ("_per_s", "tput", "speedup", "accuracy")


def direction(key: str) -> str | None:
    k = key.lower()
    if any(m in k for m in LOWER_MARKERS):
        return "lower"
    if any(m in k for m in HIGHER_MARKERS) or k.endswith("_x"):
        return "higher"
    return None


def baseline_json(repo: str, rev: str, name: str) -> dict | None:
    try:
        blob = subprocess.run(
            ["git", "-C", repo, "show", f"{rev}:{name}"],
            capture_output=True,
            check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def retired_files(baseline_tree: list[str], current: list[str]) -> list[str]:
    """``BENCH_*.json`` names in the baseline revision's root tree that the
    working tree no longer has."""
    return sorted(
        name
        for name in baseline_tree
        if fnmatch.fnmatch(name, "BENCH_*.json") and name not in current
    )


def retired_keys(base: dict, current: dict) -> list[str]:
    """Keys of one ``BENCH_*.json`` the baseline has and the tree dropped."""
    return sorted(set(base) - set(current))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", "0.20")),
        help="allowed fractional regression before failing (default 0.20)",
    )
    parser.add_argument(
        "--baseline",
        default="HEAD",
        help="git revision holding the committed baseline (default HEAD)",
    )
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = []
    warnings = []
    compared = 0

    def warn(message: str) -> None:
        warnings.append(message)
        print(f"WARNING: {message}")

    paths = sorted(glob.glob(os.path.join(repo, "BENCH_*.json")))
    baseline_tree = subprocess.run(
        ["git", "-C", repo, "ls-tree", "--name-only", args.baseline],
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    for name in retired_files(baseline_tree, [os.path.basename(p) for p in paths]):
        base = baseline_json(repo, args.baseline, name) or {}
        print(f"{name}: retired ({len(base)} metric(s) no longer tracked)")

    for path in paths:
        name = os.path.basename(path)
        with open(path) as f:
            current = json.load(f)
        base = baseline_json(repo, args.baseline, name)
        if base is None:
            warn(
                f"{name}: no baseline at {args.baseline} — "
                f"{len(current)} metric(s) unchecked (new file)"
            )
            continue
        for key in sorted(current):
            if key.endswith("_count"):
                print(f"{name}: {key} = {current[key]:.6g} (informational, never gated)")
                continue
            if key not in base:
                warn(f"{name}: {key} = {current[key]:.6g} — new metric, no baseline")
                continue
            old, new = base[key], current[key]
            d = direction(key)
            if d is None:
                warn(f"{name}: {key} has no inferable direction — unchecked")
                continue
            compared += 1
            if old == 0:
                continue
            change = (new - old) / abs(old)
            regressed = (d == "lower" and change > args.tolerance) or (
                d == "higher" and change < -args.tolerance
            )
            arrow = "LOWER-IS-BETTER" if d == "lower" else "higher-is-better"
            status = "REGRESSED" if regressed else "ok"
            print(
                f"{name}: {key}: {old:.6g} -> {new:.6g} "
                f"({change:+.1%}, {arrow}) {status}"
            )
            if regressed:
                failures.append(f"{name}: {key} {old:.6g} -> {new:.6g} ({change:+.1%})")
        for key in retired_keys(base, current):
            print(f"{name}: {key} retired (was {base[key]:.6g})")

    print(
        f"\n{compared} metrics compared against {args.baseline}, "
        f"{len(warnings)} warning(s)"
    )
    if failures:
        print(f"bench gate FAILED: {len(failures)} metric(s) regressed > {args.tolerance:.0%}")
        for f in failures:
            print(f"  {f}")
        return 1
    print("bench gate passed" + (" (with warnings)" if warnings else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
