"""Benchmark of the `genera` CLI: seeded workloads of fresh-process requests.

Run from the root of a checkout:

    python3 perfbench/run.py --workload jf-gen --seed 1 --seconds 20 --trace 0

Every request is one `python -m genera.cli ...` process with the checkout's
`src` on PYTHONPATH, run in a closed loop with one request at a time.  The
loop repeats whole passes of the seeded request list (see plan.py) until
`--seconds` of request time have passed and the tail percentile has at least
ten samples beyond it.  Every output is checked independently (see
checks.py), and times are scaled by an interleaved reference program (see
README.md).

With `--trace 0` the end-to-end metrics are reported; with `--trace 1` the
run alternates one plain pass and one traced pass (see tracer.py) and
reports per-layer metrics per pass of the list.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import plan
from layers import Totals

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "cpu_s.mean": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}
TAIL_PCT = 75  # fixed, so that a faster or slower program is compared at the same percentile
MIN_BEYOND = 10  # samples the tail percentile must have beyond it
# Caller settings that would change what a request costs: requests always use
# and write the bytecode cache under src/, with default stdout buffering.
CHILD_ENV_DROP = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONUNBUFFERED")
# A fixed program that does not import genera: a fresh interpreter that
# imports the standard modules genera.cli imports and does Fraction and dict
# work.  Its median time in each run rescales the other times, so that the
# machine's drifting speed cancels out (see README).
REF_CODE = (
    "import argparse, csv, dataclasses, functools, importlib.resources, json, typing\n"
    "from fractions import Fraction\n"
    "s, d = Fraction(0), {}\n"
    "for i in range(1, 6000):\n"
    "    s += Fraction(1, i)\n"
    "    d[i % 97, i % 13] = d.get((i % 97, i % 13), 0) + i * i\n"
)
REF_WALL_S = 0.14  # reference program wall and CPU time this benchmark is scaled to
REF_CPU_S = 0.14
MAX_LOOP_S = 120.0
ARG_SEP = "\x1f"


@dataclass
class Result:
    rc: int
    wall: float
    cpu: float
    rss_kb: int
    out: str
    err: str


class Spawner:
    """One long-lived spawner.py process that starts and reaps each request."""

    def __init__(self, work: str, env: dict, cwd: str):
        self.out = os.path.join(work, "stdout.txt")
        self.err = os.path.join(work, "stderr.txt")
        stdin_file = os.path.join(work, "stdin.txt")
        open(stdin_file, "w").close()
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-E", os.path.join(HERE, "spawner.py"), stdin_file],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)

    def run(self, argv: list) -> Result:
        if any(c in arg for arg in argv for c in "\t\n" + ARG_SEP):
            raise ValueError(f"argument not representable in the spawner protocol: {argv}")
        self.proc.stdin.write(f"{self.out}\t{self.err}\t{ARG_SEP.join(argv)}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the request spawner exited")
        rc, wall_ns, utime, stime, rss = line.split()
        with open(self.out, encoding="utf-8") as fh:
            out = fh.read()
        with open(self.err, encoding="utf-8") as fh:
            err = fh.read()
        return Result(int(rc), int(wall_ns) / 1e9, float(utime) + float(stime), int(rss), out, err)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


def percentile(values: list, pct: float) -> tuple:
    """Harrell-Davis estimate of a percentile, and the samples beyond its rank.

    The estimate weights every order statistic by the Beta((n+1)p, (n+1)(1-p))
    mass of its slot, which varies far less from run to run than a single
    order statistic when the sample mixes requests of very different cost.
    """
    s = sorted(values)
    n = len(s)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule inside each slot [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                           for x in xs))
    total = sum(weights)
    estimate = sum(w * v for w, v in zip(weights, s)) / total
    return estimate, n - 1 - math.floor(p * (n - 1))


class Bench:
    def __init__(self, args, root: str, work: str):
        self.args = args
        self.work = work
        self.py = sys.executable
        env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.reqs = plan.build(args.workload, args.seed, work, root)
        self.ref_path = os.path.join(work, "reference.py")
        with open(self.ref_path, "w", encoding="utf-8") as fh:
            fh.write(REF_CODE)
        self.spawner = Spawner(work, env, root)
        self.attempted = 0
        self.failures: list = []

    def request(self, req: plan.Request, traced: bool = False) -> Result:
        if traced:
            argv = [self.py, os.path.join(HERE, "tracer.py"), self.spans_path, *req.argv]
        else:
            argv = [self.py, "-m", "genera.cli", *req.argv]
        res = self.spawner.run(argv)
        self.attempted += 1
        reason = checks.verify(req.kind, req.expect, res.rc, res.out)
        if reason is not None:
            tail = res.err.strip().splitlines()[-1:] if res.err.strip() else []
            self.failures.append(f"{req.rid}: {reason} {tail}")
        return res

    @property
    def spans_path(self) -> str:
        return os.path.join(self.work, "spans.json")

    def import_only(self) -> float:
        return self.spawner.run([self.py, "-c", "import genera.cli"]).wall

    def reference(self) -> Result:
        return self.spawner.run([self.py, self.ref_path])

    def warm(self) -> None:
        """Write the bytecode cache and touch every input once, untimed."""
        for _ in range(2):
            self.import_only()
            self.reference()
        for req in self.reqs[:2]:
            self.spawner.run([self.py, "-m", "genera.cli", *req.argv])

    def timed(self) -> dict:
        """Repeat whole passes, with one probe after each request.

        Probes alternate between import-only (setup_s) and the reference
        program (the speed scale), so both see the same machine conditions as
        the requests; the loop clock stops while they run.
        """
        walls, cpus, rss, setup, ref_wall, ref_cpu = [], [], [], [], [], []
        passes = 0
        loop_s = 0.0
        while True:
            for i, req in enumerate(self.reqs):
                t = time.perf_counter()
                res = self.request(req)
                loop_s += time.perf_counter() - t
                walls.append(res.wall)
                cpus.append(res.cpu)
                rss.append(res.rss_kb)
                if i % 2:
                    setup.append(self.import_only())
                else:
                    ref = self.reference()
                    ref_wall.append(ref.wall)
                    ref_cpu.append(ref.cpu)
            passes += 1
            _tail, beyond = percentile(walls, TAIL_PCT)
            if (loop_s >= self.args.seconds and beyond >= MIN_BEYOND) or loop_s >= MAX_LOOP_S:
                break
        wall_scale = REF_WALL_S / statistics.median(ref_wall)
        cpu_scale = REF_CPU_S / statistics.median(ref_cpu)
        tail, beyond = percentile(walls, TAIL_PCT)
        n, failed = len(walls), len(self.failures)
        raw = {
            "setup_s": statistics.median(setup),
            "job_s.p50": percentile(walls, 50)[0],
            "job_s.tail": tail,
            "cpu_s.mean": statistics.fmean(cpus),
            "jobs_per_s": (n - failed) / loop_s,
        }
        print(f"# {self.args.workload} seed {self.args.seed}: {passes} passes of "
              f"{len(self.reqs)} requests in {loop_s:.2f} s; job_s.tail is p{TAIL_PCT} "
              f"with {beyond} of {n} samples beyond it; {len(setup)} import probes")
        print(f"# reference program: median {statistics.median(ref_wall):.4f} s wall, "
              f"{statistics.median(ref_cpu):.4f} s CPU over {len(ref_wall)} probes; unscaled "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        values = {
            "job_s.p50": raw["job_s.p50"] * wall_scale,
            "job_s.tail": raw["job_s.tail"] * wall_scale,
            "cpu_s.mean": raw["cpu_s.mean"] * cpu_scale,
            "jobs_per_s": raw["jobs_per_s"] / wall_scale,
            "peak_rss_mb": max(rss) / 1024,
            "ok_ratio": (n - failed) / n,
            "setup_s": raw["setup_s"] * wall_scale,
        }
        return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}

    def traced(self) -> dict:
        totals = Totals()
        plain_s = traced_s = 0.0
        pairs = 0
        t0 = time.perf_counter()
        while True:
            for req in self.reqs:
                plain_s += self.request(req).wall
            for req in self.reqs:
                res = self.request(req, traced=True)
                traced_s += res.wall
                if os.path.exists(self.spans_path):  # absent only if the tracer itself failed
                    with open(self.spans_path, encoding="utf-8") as fh:
                        totals.add(json.load(fh), res.wall)
                    os.remove(self.spans_path)
            pairs += 1
            if time.perf_counter() - t0 >= min(self.args.seconds, MAX_LOOP_S):
                break
        print(f"# {self.args.workload} seed {self.args.seed}: {pairs} plain and {pairs} traced "
              f"passes of {len(self.reqs)} requests; per-layer values are per pass")
        return totals.metrics(pairs, traced_s / plain_s)

    def close(self) -> None:
        self.spawner.close()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(plan.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "genera", "cli.py")):
        print("error: src/genera/cli.py not found; run from the root of a genera checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args, root, work)
        try:
            bench.warm()
            metrics = bench.traced() if args.trace else bench.timed()
        finally:
            bench.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in bench.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6f} {m['unit']}")
    failed = len(bench.failures)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
