#!/usr/bin/env python3
"""Steadiness check: runs every workload of BENCHMARK.json in two sets of
runs on the same commit and reports, per workload and end-to-end metric,
each set's median and quartiles and whether the sets agree within the
metric's bound.

Run from the repository root:

    python3 perfbench/steady.py                 # 2 sets x 10 runs x every workload
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads churn-replicated

A set is accepted when, for every metric, the distance between the
first and third quartile is within the bound as a share of the median; the second set is accepted when each of its medians is not
worse than the first set's by more than the bound, and the share of
failed operations is the same. Raw results go to .bench_build/steady/.
Exits 1 if any run fails or any check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, metrics):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in metrics}
    if got != want or not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: result does not match BENCHMARK.json: {res}")
    print(f"{workload} seed {seed}: ok", file=sys.stderr, flush=True)
    return res


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs (1 or 2)")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    metrics = bench["end_to_end"]
    outdir = os.path.join(".bench_build", "steady")
    os.makedirs(outdir, exist_ok=True)

    # results[set][workload] = list of result objects; workloads are
    # interleaved so slow phases of the machine hit all of them alike.
    results = []
    seed = a.first_seed
    for s in range(a.sets):
        got = {w: [] for w in names}
        for _ in range(a.runs):
            for w in names:
                got[w].append(run_once(bench["command"], w, seed, bench["run_seconds"], metrics))
            seed += 1
        results.append(got)
        with open(os.path.join(outdir, f"set{s + 1}.json"), "w") as f:
            json.dump(got, f)

    ok = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':<16}" + "".join(
            f"{'set' + str(s + 1) + ' median [q1, q3] spread':>46}" for s in range(a.sets)) + "  bound  verdict")
        for m in metrics:
            cols, meds, verdict = [], [], []
            for s in range(a.sets):
                vals = [r["metrics"][m["name"]]["value"] for r in results[s][w]]
                med, q1, q3 = summary(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                cols.append(f"{med:>12.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:5.1f}%")
                if spread > m["bound"]:
                    verdict.append(f"set{s + 1} spread over bound")
                elif spread > m["bound"] / 3:
                    verdict.append(f"set{s + 1} spread over bound/3")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                if worse > m["bound"]:
                    verdict.append(f"set2 worse by {100 * worse:.1f}%")
            bad = [v for v in verdict if "bound/3" not in v]
            ok = ok and not bad
            print(f"  {m['name']:<16}" + "".join(f"{c:>46}" for c in cols)
                  + f"  {m['bound']:5.2f}  " + ("; ".join(verdict) or "ok"))
        shares = {s: sorted({r["failed"] / r["attempted"] for r in results[s][w]}) for s in range(a.sets)}
        print(f"  failed share per set: {shares}")
        if len({tuple(v) for v in shares.values()}) > 1:
            ok = False
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
