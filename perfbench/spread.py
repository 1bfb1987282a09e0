#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--workloads order_mix,...]
                                [--first-seed 1] [--trace 0|1]
    python3 perfbench/spread.py --repeat-check [--seed 7] [--seconds 6]

Run from the root of the repository. The first form runs every workload
once per seed (seeds first-seed, first-seed+1, ...) through the command in
BENCHMARK.json and prints, per end-to-end metric, the median, the quartile
spread (Q3 - Q1) as a share of the median, and that share against the
metric's bound. The second form runs the traced run twice with one seed
and checks that every exact count repeats bit for bit.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics that count work and must repeat exactly for one seed.
EXACT = [
    "core.plan_groups",
    "core.plan_candidates",
    "exec.rows_out",
    "exec.comparisons",
    "exec.run_pages_written",
    "exec.run_pages_read",
    "exec.runs_created",
    "storage.device_reads",
    "storage.device_writes",
    "storage.wal_bytes",
]


def run(bench, args, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds or bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def spread(bench, args):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run(bench, args, workload, seed, args.trace)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            with open(f".perfbench_out/{workload}-seed{seed}-trace{args.trace}.json") as f:
                record = json.load(f)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items())
                + f" | steal {record['host']['steal_pct']:.1f}%, calibration p50 "
                f"{record['calibration']['p50_ms']:.2f} ms", flush=True)
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            share = (q[2] - q[0]) / med if med else 0.0
            bound = m.get("bound")
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}, spread/bound {share / bound:.2f}"
                if m["name"] != "setup_s":
                    worst = max(worst, share / bound)
            print(f"  {workload:>15} {m['name']:>28} median {med:.6g} "
                  f"iqr/median {share:.4f} {note}")
    if args.trace == 0:
        print(f"largest spread/bound outside setup_s: {worst:.2f}")


def repeat_check(bench, args):
    ok = True
    for w in bench["workloads"]:
        a = run(bench, args, w["name"], args.seed, 1)["metrics"]
        b = run(bench, args, w["name"], args.seed, 1)["metrics"]
        for name in EXACT:
            same = a[name]["value"] == b[name]["value"]
            ok &= same
            print(f"{w['name']:>15} {name:>24} {a[name]['value']!r:>22} "
                  f"{b[name]['value']!r:>22} {'same' if same else 'DIFFERENT'}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--repeat-check", action="store_true")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=0,
                   help="override run_seconds (for quick checks)")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.repeat_check:
        repeat_check(bench, args)
    else:
        spread(bench, args)


if __name__ == "__main__":
    main()
