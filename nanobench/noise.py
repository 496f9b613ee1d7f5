#!/usr/bin/env python3
"""A/A noise report for the repository benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with its own seed, in two (or more) sets of the same code, and
prints for every metric:

* each set's median and its spread, the distance between the first and
  third quartile (``statistics.quantiles(values, n=4)``) as a share of
  the median;
* how far each later set's median moved from the first set's, in the
  metric's worse direction.

Each end-to-end metric is compared with its ``bound`` from BENCHMARK.json:
a spread below a third of the bound is ``steady``, below the bound
``within``, above it ``NOISY``. ``setup_s`` spread is reported but, like
the acceptance rule, only its median shift is held to the bound.

Run from the repository root:

    python3 nanobench/noise.py --runs 10 --sets 2
    python3 nanobench/noise.py --workloads heat_deps --runs 5 --sets 1
    python3 nanobench/noise.py --trace 1 --runs 3 --sets 1   # per-layer
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """Median and quartile distance as a share of it (None if median 0)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else None


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=2, help="A/A sets of runs")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--first-seed", type=int, default=1)
    opts = ap.parse_args()
    if opts.runs < 2:
        sys.exit("--runs must be at least 2 to have quartiles")

    listed = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    metrics = {m["name"]: m for m in listed}
    seed = opts.first_seed
    values = {}  # (set, workload, metric) -> [value per run]
    for s in range(opts.sets):
        for workload in opts.workloads.split(","):
            for _ in range(opts.runs):
                got = run_once(bench["command"], workload, seed, opts.seconds, opts.trace)
                print(f"set {s} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in got.items() if k in metrics),
                      flush=True)
                for name in metrics:
                    values.setdefault((s, workload, name), []).append(got[name])
                seed += 1

    worst = "ok"
    print(f"\n{'workload':<13} {'metric':<36} {'set':>3} {'median':>14} {'spread':>8} "
          f"{'shift':>8} {'bound':>6}  verdict")
    for workload in opts.workloads.split(","):
        for name, m in metrics.items():
            bound = m.get("bound")
            first = None
            for s in range(opts.sets):
                med, spr = spread(values[(s, workload, name)])
                if first is None:
                    first, shift = med, 0.0
                else:
                    worse = med - first if m["better"] == "lower" else first - med
                    shift = worse / abs(first) if first else 0.0
                verdict = ""
                if spr is None:
                    verdict = "zero median" if bound is None else "NOISY (zero median)"
                    worst = "NOISY" if bound is not None else worst
                elif bound is not None:
                    checked_spread = name != "setup_s"
                    if shift > bound or (checked_spread and spr > bound):
                        verdict = "NOISY"
                    elif checked_spread and spr > bound / 3:
                        verdict = "within"
                    else:
                        verdict = "steady"
                    if verdict == "NOISY" or (verdict == "within" and worst == "ok"):
                        worst = verdict
                spr_text = "-" if spr is None else f"{spr:.4f}"
                print(f"{workload:<13} {name:<36} {s:>3} {med:>14.6g} {spr_text:>8} "
                      f"{shift:>8.4f} {'' if bound is None else bound:>6}  {verdict}")
    print(f"\noverall: {worst}")


if __name__ == "__main__":
    main()
