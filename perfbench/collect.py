"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--seconds 25]
                                 [--write perfbench/baseline.json]

Every run is end-to-end (``--trace 0``).  For each workload and metric it
prints the median of the per-seed values, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (Q3 - Q1) / median,
which is how steadiness is judged against each metric's bound in
``BENCHMARK.json``.  ``--write`` stores those figures
together with the machine's description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, THREAD_ENV, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def environment() -> dict:
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps({'numpy': numpy.__version__,"
             " 'blas': b['name'] + ' ' + b['version']}))")
    env = {**os.environ, **THREAD_ENV}
    info = json.loads(subprocess.run([sys.executable, "-c", probe], env=env,
                                     capture_output=True, text=True, check=True).stdout)
    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {"nproc": len(os.sched_getaffinity(0)), "memory_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(), **info, "thread_env": THREAD_ENV}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--write", default=None, help="JSON file for the summary")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"unit": first["unit"], "median": median, "q1": q1,
                          "q3": q3, "spread": spread, "n": len(values)}
            print(f"  {name:<34} {median:12.4f} {first['unit']:<8} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.1%} "
                  f"n={len(values)}", flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  {'failed_frac':<34} {failed / attempted:12.4f} fraction "
              f"({failed} of {attempted} commands and checks)", flush=True)
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "failed": failed, "attempted": attempted,
                             "metrics": rows}

    if args.write:
        Path(args.write).write_text(json.dumps(
            {"environment": environment(), "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
