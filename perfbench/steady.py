"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads jf-gen genus checks --seeds 1-10 \
        --seconds 20 [--out perfbench/results/steady-a.json]

For every workload and metric it prints the median of the per-seed values
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  With
`--out` the raw per-seed results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds_arg, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--out")
    args = p.parse_args()

    runs = {}
    summary = {}
    for wl in args.workloads:
        runs[wl] = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            res["run_s"] = time.perf_counter() - t0
            runs[wl].append(res)
            print(f"{wl} seed {seed}: {res['run_s']:.1f} s, correct={res['correct']}, "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        names = runs[wl][0]["metrics"]
        summary[wl] = {}
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs[wl]]
            summary[wl][name] = {"median": statistics.median(vals), "spread": spread(vals),
                                 "unit": runs[wl][0]["metrics"][name]["unit"]}
    for wl, metrics in summary.items():
        print(f"\n{wl}")
        for name, s in metrics.items():
            print(f"  {name:36s} median {s['median']:>14.6f} {s['unit']:6s} spread {s['spread']:.4f}")
    if args.out:
        doc = {"python": platform.python_version(), "cpus": os.cpu_count(),
               "seconds": args.seconds, "seeds": args.seeds,
               "summary": summary, "runs": runs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
