#!/usr/bin/env python3
"""Run the benchmark declared in BENCHMARK.json repeatedly and judge its steadiness.

    python3 benchmark/repeat.py [--runs 10] [--sets 2] [--trace 0|1] [--workload NAME ...]

Each set runs every workload --runs times in a fresh process, each time with
another seed, exactly as the driver does. Per end-to-end metric it prints the
median, min, max and the spread (interquartile range / median, from
statistics.quantiles(values, n=4)), as a markdown table; benchmark/RUNS.md is
this output. It exits non-zero if a run fails, if a spread (setup_s excepted)
exceeds the metric's bound, or if the second set's median is worse than the
first's by more than the bound. Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stdout}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect run: {out}")
    return {k: v["value"] for k, v in out["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bad = []
    seed = args.first_seed
    medians = {}  # (set, workload, metric) -> median
    for s in range(args.sets):
        for wl in names:
            runs, walls = [], []
            for _ in range(args.runs):
                m, wall = run_once(bench, wl, seed, args.trace)
                missing = [d["name"] for d in declared if d["name"] not in m]
                if missing or len(m) != len(declared):
                    sys.exit(f"{wl}: metrics do not match BENCHMARK.json (missing {missing})")
                runs.append(m)
                walls.append(wall)
                seed += 1
            print(f"\n### set {s + 1}, `{wl}`: {args.runs} runs, seeds {seed - args.runs}..{seed - 1}, "
                  f"{statistics.median(walls):.1f} s wall per run\n")
            print("| metric | unit | median | min | max | spread | bound |")
            print("|---|---|---:|---:|---:|---:|---:|")
            for d in declared:
                vals = [r[d["name"]] for r in runs]
                med = statistics.median(vals)
                medians[s, wl, d["name"]] = med
                sp = spread(vals) if len(vals) >= 2 and med else 0.0
                bound = d.get("bound")
                print(f"| {d['name']} | {d['unit']} | {med:.6g} | {min(vals):.6g} | {max(vals):.6g} | "
                      f"{sp:.3f} | {'' if bound is None else bound} |")
                if bound is not None and d["name"] != "setup_s" and sp > bound:
                    bad.append(f"set {s + 1} {wl} {d['name']}: spread {sp:.3f} > bound {bound}")
            sys.stdout.flush()
    if args.sets >= 2 and args.trace == 0:
        print("\n### second set against first\n")
        print("| workload | metric | first median | second median | worse by | bound |")
        print("|---|---|---:|---:|---:|---:|")
        for wl in names:
            for d in declared:
                a, b = medians[0, wl, d["name"]], medians[args.sets - 1, wl, d["name"]]
                worse = (b - a) / a if d["better"] == "lower" else (a - b) / a
                print(f"| {wl} | {d['name']} | {a:.6g} | {b:.6g} | {worse:+.3f} | {d['bound']} |")
                if worse > d["bound"]:
                    bad.append(f"{wl} {d['name']}: second median worse by {worse:.3f} > bound {d['bound']}")
    if bad:
        print("\nNOT STEADY:\n" + "\n".join("- " + b for b in bad))
        sys.exit(1)
    print("\nsteady: every spread and every median shift is within its bound")


if __name__ == "__main__":
    main()
