#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
prints, for every end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, against the metric's bound.

    python3 perfbench/steady.py --workloads figures,service-run --seeds 1-10 --json a.json
    python3 perfbench/steady.py --seeds 21-30 --json b.json
    python3 perfbench/steady.py --compare a.json b.json

--compare runs nothing: it checks that the second set's median of every
metric is no worse than the first set's by more than the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="also write the raw values to this file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two --json files")
    args = ap.parse_args()
    if args.compare:
        return compare(spec, *args.compare)

    raw = {}
    ok = True
    for wl in args.workloads.split(","):
        vals = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds(args.seeds):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(last)
            ok = ok and res["correct"]
            for name, v in res["metrics"].items():
                vals[name].append(v["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)
        raw[wl] = vals
        print(f"\n### {wl} ({len(seeds(args.seeds))} seeds, {args.seconds} s)\n")
        print("| metric | median | q1 | q3 | spread | bound | spread / bound |")
        print("|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            xs = vals[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / statistics.median(xs)
            print(f"| {m['name']} ({m['unit']}) | {statistics.median(xs):.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} | {m['bound']} | {spread / m['bound']:.2f} |")
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)
    return 0 if ok else 1


def compare(spec, first, second):
    a, b = json.load(open(first)), json.load(open(second))
    ok = True
    print("| workload | metric | first median | second median | worse by | bound | ok |")
    print("|---|---|---|---|---|---|---|")
    for wl in a:
        for m in spec["end_to_end"]:
            x, y = statistics.median(a[wl][m["name"]]), statistics.median(b[wl][m["name"]])
            worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
            good = worse <= m["bound"]
            ok = ok and good
            print(f"| {wl} | {m['name']} | {x:.6g} | {y:.6g} | {worse:+.4f} | {m['bound']} | {'yes' if good else 'NO'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
