#!/usr/bin/env python3
"""Steadiness tool for the benchmark described by BENCHMARK.json.

Run from the repository root:

  python3 ltpbench/steady.py run --runs 10 --out a.json [--seed0 N]
  python3 ltpbench/steady.py show a.json
  python3 ltpbench/steady.py compare a.json b.json

`run` runs every workload in BENCHMARK.json `--runs` times at its
`run_seconds`, each time with another seed (`seed0`, `seed0 + 1`, ...),
saves every result line to `--out` and prints, for every end-to-end metric,
the median, the quartiles (as `statistics.quantiles(values, n=4)` gives
them), the range and the metric's bound. The spread is the distance between
the quartiles as a share of the median; a spread above a third of the bound
is flagged, for every metric, `setup_s` included. `compare` prints each
metric's two medians and fails (exit 1) when the second set is worse than
the first by more than the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def show(bench, results):
    ok = True
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, {attempted} operations, {failed} failed, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':<22}{'median':>16}{'q1':>16}{'q3':>16}{'iqr%':>8}{'range%':>8}"
              f"{'bound%':>8}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                print(f"  {m['name']:<22}{values[0]:>16.6g}")
                continue
            med, q1, q3, iqr, rng = spread(values)
            flag = ""
            if iqr > m["bound"] / 3:
                flag = "  <- above a third of the bound"
                ok = False
            print(f"  {m['name']:<22}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{iqr * 100:>8.2f}"
                  f"{rng * 100:>8.2f}{m['bound'] * 100:>8.1f}{flag}")
        if failed or not all(r["correct"] for r in runs):
            ok = False
    return ok


def compare(bench, a, b):
    ok = True
    for workload in a:
        if workload not in b:
            continue
        print(f"\n{workload}")
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            if verdict != "ok":
                ok = False
            print(f"  {m['name']:<22}{ma:>16.6g}{mb:>16.6g}  worse by {worse * 100:+6.2f}% "
                  f"(bound {m['bound'] * 100:.1f}%)  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--seed0", type=int, default=1)
    p_run.add_argument("--out", required=True)
    p_show = sub.add_parser("show")
    p_show.add_argument("file")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args()
    bench = load_benchmark()

    if args.cmd == "run":
        results = {}
        for workload in (w["name"] for w in bench["workloads"]):
            results[workload] = []
            for i in range(args.runs):
                r = run_once(bench, workload, args.seed0 + i)
                results[workload].append(r)
                print(f"{workload} seed {r['seed']}: {r['wall_s']:.1f} s, "
                      f"failed {r['failed']}/{r['attempted']}", flush=True)
                with open(args.out, "w") as f:
                    json.dump(results, f, indent=1)
        sys.exit(0 if show(bench, results) else 1)
    if args.cmd == "show":
        with open(args.file) as f:
            sys.exit(0 if show(bench, json.load(f)) else 1)
    with open(args.a) as fa, open(args.b) as fb:
        sys.exit(0 if compare(bench, json.load(fa), json.load(fb)) else 1)


if __name__ == "__main__":
    main()
