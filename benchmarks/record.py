"""Run the benchmark over several seeds, report its spread, and write a BENCH record.

    python3 benchmarks/record.py --seeds 1-10 [--workloads bigterm,sweep,matrix]
                                 [--trace-runs 2] [--out benchmarks/BENCH_<date>_<topic>.json]

Each (workload, seed) is one ``run.py --trace 0`` run of BENCHMARK.json's
``run_seconds``.  For every end-to-end metric it prints the median, the
quartiles and their distance as a share of the median (the spread), next to
the metric's bound.  ``--trace-runs`` traced runs per workload (with the
first seed) give the per-layer medians and show that count metrics repeat.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result from {' '.join(cmd)}: {result}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"end_to_end": {}, "per_layer": {}}
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"], **s}
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:<14} median {s['median']:12.6f}  q1 {s['q1']:12.6f}  q3 {s['q3']:12.6f}"
                  f"  spread {s['spread']:6.2%}  bound {bound:.0%}  {flag}")
            print("      runs: " + " ".join(f"{v:.4f}" for v in s["runs"]))
        traced = [run(workload, seeds[0], args.seconds, 1) for _ in range(args.trace_runs)]
        for name in traced[0]["metrics"] if traced else ():
            values = [r["metrics"][name]["value"] for r in traced]
            entry["per_layer"][name] = {"unit": traced[0]["metrics"][name]["unit"], **summarize(values)}
            if traced[0]["metrics"][name]["unit"] != "s" and len(set(values)) != 1:
                print(f"  count metric {name} differs between traced runs: {values}")
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
