#!/usr/bin/env python3
"""Repeat the rcload benchmark over seeds and summarise its spread.

Run from the repository root.

  python3 bench/spread.py --runs 10 --first-seed 1 --out .bench_build/set-a.json
      runs every workload of BENCHMARK.json once per seed (untraced) and
      writes every run's metrics plus, per workload and end-to-end
      metric, the median, the quartiles and the spread: the distance
      between the quartiles as a share of the median, with the quartiles
      of statistics.quantiles(values, n=4).

  python3 bench/spread.py --merge .bench_build/set-a.json .bench_build/set-b.json --out .bench_build/set-ab.json
      pools the runs of several sets into one and summarises it.

  python3 bench/spread.py --compare .bench_build/set-a.json .bench_build/set-b.json
      for every (metric, workload) pair, how much worse the second set's
      median is than the first's, against the metric's bound in
      BENCHMARK.json, and each set's spread. Exits 1 when a pair is
      worse by more than its bound, or a spread (setup_s excepted)
      exceeds it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {proc.stderr}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def collect(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names:
            m = run_once(bench, w, seed)
            runs[w].append({"seed": seed, "metrics": m})
            print(f"{w} seed={seed} " + " ".join(f"{k}={v:.4g}" for k, v in sorted(m.items())),
                  flush=True)
    write(bench, args.out, bench["run_seconds"], runs)


def merge(args):
    bench = load_benchmark()
    runs, seconds = {}, None
    for path in args.merge:
        with open(path) as f:
            d = json.load(f)
        seconds = d["seconds"]
        for w, rs in d["runs"].items():
            runs.setdefault(w, []).extend(rs)
    write(bench, args.out, seconds, runs)


def write(bench, out, seconds, runs):
    summary = {}
    for w, rs in runs.items():
        summary[w] = {}
        for e in bench["end_to_end"]:
            vals = [r["metrics"][e["name"]] for r in rs]
            summary[w][e["name"]] = summarise(vals)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "runs": runs, "summary": summary}, f, indent=1)
        f.write("\n")
    report_spreads(bench, summary)


def report_spreads(bench, summary):
    for e in bench["end_to_end"]:
        row = " ".join(f"{w}={summary[w][e['name']]['spread']:.3f}" for w in summary)
        print(f"spread {e['name']:<16} bound={e['bound']:<5} {row}")


def compare(args):
    bench = load_benchmark()
    with open(args.compare[0]) as f:
        a = json.load(f)["summary"]
    with open(args.compare[1]) as f:
        b = json.load(f)["summary"]
    ok = True
    for e in bench["end_to_end"]:
        name, bound = e["name"], e["bound"]
        for w in a:
            ma, mb = a[w][name]["median"], b[w][name]["median"]
            worse = (mb - ma) / ma if e["better"] == "lower" else (ma - mb) / ma
            sa, sb = a[w][name]["spread"], b[w][name]["spread"]
            bad = worse > bound or (name != "setup_s" and max(sa, sb) > bound)
            ok = ok and not bad
            print(f"{'FAIL' if bad else 'ok  '} {name:<16} {w:<17} first={ma:<10.4g} second={mb:<10.4g} "
                  f"worse={worse:+.3f} spreads={sa:.3f},{sb:.3f} bound={bound}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=".bench_build/spread.json")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    p.add_argument("--merge", nargs="+", metavar="SET")
    args = p.parse_args()
    if args.compare:
        compare(args)
    elif args.merge:
        merge(args)
    else:
        collect(args)


if __name__ == "__main__":
    main()
