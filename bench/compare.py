#!/usr/bin/env python3
"""Collect and compare result sets of the canonical DOCS benchmark.

A *set* is a JSON-lines file: one line per benchmark run, holding the
workload, seed, trace flag and the run's one-line result. The rules are
those of the choosing-metrics guide (sections 6 to 8): medians and
quartiles per workload x metric, pair wins, and a verdict against the
bound BENCHMARK.json fixes.

  compare.py collect A.jsonl [B.jsonl] [--runs 5] [--seed0 1] [--seconds N]
                     [--workloads a,b] [--trace] [--cmd-a "..."] [--cmd-b "..."]
      Run every workload --runs times (seed0, seed0+1, ...) and append the
      results to A.jsonl. With B.jsonl, runs alternate A, B, B, A, ... so
      both sets see the same machine weather; --cmd-a/--cmd-b name the
      command of each side (default: BENCHMARK.json's command for both,
      which is the same-commit acceptance check).

  compare.py spread A.jsonl
      Per workload x metric: median, quartiles, and the quartile distance
      as a share of the median next to the metric's bound.

  compare.py A.jsonl B.jsonl
      A is the parent, B the change: medians, quartiles, pair wins, and a
      verdict per workload x metric. Exits 1 if any verdict is
      "worse than bound".

Run it from the repository root.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_json():
    path = Path("BENCHMARK.json")
    if not path.is_file():
        sys.exit("compare.py: run from the repository root (no BENCHMARK.json here)")
    return json.loads(path.read_text())


def metric_table(spec):
    """name -> (better, bound or None) for end-to-end and per-layer metrics."""
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return table


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(argv)} exited {done.returncode}")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": int(trace), **result}


def collect(args):
    spec = benchmark_json()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    commands = [shlex.split(args.cmd_a) if args.cmd_a else spec["command"]]
    if args.set_b:
        commands.append(shlex.split(args.cmd_b) if args.cmd_b else spec["command"])
    files = [open(args.set_a, "a")] + ([open(args.set_b, "a")] if args.set_b else [])
    for i in range(args.runs):
        seed = args.seed0 + i
        for workload in workloads:
            # Alternate which side runs first (section 8).
            order = range(len(files)) if i % 2 == 0 else reversed(range(len(files)))
            for side in order:
                row = run_once(commands[side], workload, seed, seconds, args.trace)
                files[side].write(json.dumps(row) + "\n")
                files[side].flush()
                shown = ", ".join(f"{k}={v['value']:.5g}" for k, v in list(row["metrics"].items())[:4])
                print(f"{'AB'[side]} seed {seed} {workload}: failed {row['failed']}; {shown} ...", flush=True)
    for f in files:
        f.close()


def load(path):
    """(workload, metric) -> values in run order; plus failures seen."""
    values, failed = {}, 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        failed += int(row["failed"]) + (0 if row["correct"] else 1)
        for name, metric in row["metrics"].items():
            values.setdefault((row["workload"], name), []).append(metric["value"])
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread_of(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def spread(args):
    table = metric_table(benchmark_json())
    values, failed = load(args.set_a)
    print(f"{'workload':<20}{'metric':<40}{'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    over = 0
    for (workload, name), vals in sorted(values.items()):
        _, bound = table.get(name, ("lower", None))
        q1, q3 = quartiles(vals)
        s = spread_of(vals)
        flag = ""
        if bound is not None and name != "setup_s":
            if s > bound:
                flag, over = "  OVER BOUND", over + 1
            elif s > bound / 3:
                flag = "  above bound/3"
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:<20}{name:<40}{len(vals):>3} {statistics.median(vals):>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {shown:>6}{flag}")
    print(f"failed operations in the set: {failed}; metrics over their bound: {over}")
    return 1 if over or failed else 0


def verdict(better, bound, a, b):
    """Sections 6.5 and 8 of the guide, for one workload x metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    # Positive: B is worse than A, as a share of A's median.
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    ties = sum(1 for x, y in pairs if x == y)
    q1, q3 = quartiles(a)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if bound is None:
        text = "per-layer (no bound)"
    elif all(x == a[0] for x in a + b):
        text = "identical"
    elif worse_by > bound:
        text = "WORSE THAN BOUND"
    elif max(spread_of(a), spread_of(b)) > bound and not all_better:
        text = "unresolved (spread wider than bound)"
    elif pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > (q3 - q1):
        text = "gain"
    else:
        text = "agree"
    return med_a, med_b, worse_by, wins, ties, len(pairs), text


def compare(args):
    table = metric_table(benchmark_json())
    a_values, a_failed = load(args.set_a)
    b_values, b_failed = load(args.set_b)
    print("A = parent, B = change; 'worse by' is B's median against A's, positive = worse; wins = pairs where B reads better")
    print(f"{'workload':<20}{'metric':<40}{'A median':>13} {'A q1..q3':>25} {'B median':>13} {'B q1..q3':>25} {'worse by':>9} {'bound':>6} {'wins':>7}  verdict")
    worse = 0
    for key in sorted(a_values):
        if key not in b_values:
            continue
        workload, name = key
        better, bound = table.get(name, ("lower", None))
        a, b = a_values[key], b_values[key]
        med_a, med_b, worse_by, wins, ties, pairs, text = verdict(better, bound, a, b)
        worse += text == "WORSE THAN BOUND"
        qa, qb = quartiles(a), quartiles(b)
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(
            f"{workload:<20}{name:<40}{med_a:>13.6g} {qa[0]:>12.6g}..{qa[1]:<11.6g} {med_b:>13.6g} {qb[0]:>12.6g}..{qb[1]:<11.6g} "
            f"{worse_by:>+9.4f} {shown:>6} {wins:>3}/{pairs:<3}  {text}"
        )
    print(f"failed operations: A {a_failed}, B {b_failed}; metrics worse than their bound: {worse}")
    if b_failed > a_failed:
        print("B fails more operations than A: no gain counts")
    return 1 if worse or b_failed > a_failed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        p = argparse.ArgumentParser(prog="compare.py collect")
        p.add_argument("set_a")
        p.add_argument("set_b", nargs="?")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--seed0", type=int, default=1)
        p.add_argument("--seconds", type=int)
        p.add_argument("--workloads")
        p.add_argument("--trace", action="store_true")
        p.add_argument("--cmd-a")
        p.add_argument("--cmd-b")
        return collect(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        p = argparse.ArgumentParser(prog="compare.py spread")
        p.add_argument("set_a")
        return spread(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="compare.py", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("set_a")
    p.add_argument("set_b")
    return compare(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
