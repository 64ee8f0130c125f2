"""Harness self-test: run every workload's chain once at a tiny size.

    python3 perfbench/selftest.py

Each workload runs with ``--trace 0`` and ``--trace 1`` on a seed other
than the default.  Every run must exit 0 and report ``correct`` with no
failures, and must print exactly the metrics ``BENCHMARK.json`` declares,
each with its declared unit.  A copy holding only ``BENCHMARK.json`` and
``perfbench/`` must exit non-zero without printing a result.  Timings are
not checked.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK, WORKLOADS

SEED = 7


def run(cwd, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(label: str, proc, declared: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stderr[-2000:]}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(k for k in set(printed) & set(declared) if printed[k] != declared[k])
        problems.append(f"{label}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            problems += check_result(label, run(ROOT, workload, trace), declared[trace])
            print(f"{label}: done", flush=True)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, WORKLOADS[0], 0, tiny=False)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the sources: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[-200:]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
