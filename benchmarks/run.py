"""The kpell benchmark: drive the real CLI and report end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload bigterm|sweep|matrix|all --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --list [--seed N]

Run from anywhere; kpell is taken from ``src/`` next to this directory.

``--trace 0`` is a closed loop with one client: each request is a fresh
``python -m kpell <argv>`` process, run one at a time with stdout drained in
full, and passes over the workload repeat until ``--seconds`` would be
exceeded.  It reports:

* ``setup_s``: median wall time of a no-op ``kpell eval --n 0`` process,
  sampled about SETUP_SAMPLES times, spread over the run;
* ``wall_s``: wall time of one pass, the mean over the run's passes;
* ``req_p50_s`` / ``req_p90_s``: quantiles of per-request wall time over all
  requests of the run (the sample count is printed);
* ``peak_rss_mb``: the largest max-RSS of any child process;
* ``fail_frac`` (printed, not a metric): failed over attempted requests.

``--trace 1`` times process start-up (``process.interp_s``: ``python -c
pass``; ``process.import_s``: ``import kpell.cli`` on top of it), then
replays the same argv in process through ``kpell.cli.main``, alternating an
untraced and a traced pass (see tracing.py), and reports per-layer metrics:
times are medians over traced passes, counts come from one pass and must be
equal in all of them, and ``trace.overhead_s`` is the median traced pass
minus the median untraced pass.  The spans of the first traced pass are
written to ``.bench_out/``.

Every output is checked by checker.py.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

NOOP = ["eval", "--kind", "P", "--k", "1", "--n", "0"]
SETUP_SAMPLES = 30  # spread evenly over the run
PROBE_SAMPLES = 9
REQUEST_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0  # every run must end within 180 s

UNITS = {"peak_rss_mb": "MB", "cli.out_bytes": "bytes", "bigint.result_digits": "digits"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


class Runner:
    """Runs and checks child processes; counts attempts and failures."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, args: list[str]) -> tuple[float, int, str]:
        """Run ``python <args>``; returns (wall seconds, exit code, stdout)."""
        timeout = max(1.0, min(REQUEST_TIMEOUT_S, self.remaining()))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, -1, ""
        return time.perf_counter() - start, proc.returncode, proc.stdout.decode()

    def request(self, argv: list[str]) -> float:
        """One checked ``kpell`` request; returns its wall seconds."""
        seconds, code, out = self.spawn(["-m", "kpell", *argv])
        self.record(argv, code, out)
        return seconds

    def record(self, argv: list[str], code: int, out: str) -> None:
        self.attempted += 1
        try:
            checker.check(argv, code, out)
        except checker.CheckError as exc:
            self.fail(f"{shlex.join(argv)}: {exc}")

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def measure(runner: Runner, reqs: list[list[str]], seconds: float) -> dict[str, float]:
    """End-to-end metrics of closed-loop passes over ``reqs``.

    The machine's speed drifts over tens of seconds, so set-up samples are
    spread over the whole run and ``wall_s`` is the mean pass: both average
    over the run rather than over one stretch of it.
    """
    runner.request(NOOP)  # writes bytecode caches, so setup samples are warm
    setup: list[float] = []
    times: list[float] = []
    passes = 0
    interval = seconds / SETUP_SAMPLES
    start = last_setup = time.perf_counter()
    while True:
        for argv in reqs:
            if not setup or time.perf_counter() - last_setup >= interval:
                setup.append(runner.request(NOOP))
                last_setup = time.perf_counter()
            times.append(runner.request(argv))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > min(seconds, runner.remaining()) or runner.failures:
            break
    print(f"# {passes} passes, {len(times)} request samples, {len(setup)} setup samples")
    for i, argv in enumerate(reqs):
        print(f"# {statistics.median(times[i :: len(reqs)]):9.4f} s  kpell {shlex.join(argv)}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times) / passes,
        "req_p50_s": statistics.median(times),
        "req_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def probe_startup(runner: Runner) -> dict[str, float]:
    """Median no-op interpreter time, and ``import kpell.cli`` on top of it."""
    interp, imported = [], []
    for _ in range(PROBE_SAMPLES):
        interp.append(runner.spawn(["-c", "pass"])[0])
        imported.append(runner.spawn(["-c", "import kpell.cli"])[0])
    return {
        "process.interp_s": statistics.median(interp),
        "process.import_s": statistics.median(imported) - statistics.median(interp),
    }


def measure_layers(runner: Runner, reqs: list[list[str]], seconds: float, dump: Path) -> dict[str, float]:
    """Per-layer metrics from alternating untraced and traced in-process passes."""
    import tracing

    runner.spawn(["-c", "import kpell.cli"])  # warm bytecode caches
    metrics = probe_startup(runner)
    main = tracing.load_cli(SRC)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        elapsed, _, failures = tracing.replay(main, reqs, None)
        plain.append(elapsed)
        rec, elapsed, out_bytes, more = tracing.traced_pass(main, reqs)
        traced.append(elapsed)
        layers.append(tracing.layer_metrics(rec, out_bytes))
        runner.attempted += 2 * len(reqs)
        for message in failures + more:
            runner.fail(message)
        if len(layers) == 1:
            rec.dump(dump)
        del rec
        used = time.perf_counter() - start
        if used + used / len(layers) > min(seconds, runner.remaining()) or runner.failures:
            break
    print(f"# {len(layers)} traced and {len(plain)} untraced passes; spans in {dump}")
    for name in tracing.COUNT_METRICS:
        if len({m[name] for m in layers}) != 1:
            runner.fail(f"count metric {name} differs between passes: {[m[name] for m in layers]}")
    for name in layers[0]:
        metrics[name] = layers[0][name] if name in tracing.COUNT_METRICS else statistics.median(
            m[name] for m in layers
        )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reqs = workloads.requests(workload, seed)
    runner = Runner()
    if trace:
        dump = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
        metrics = measure_layers(runner, reqs, seconds, dump)
    else:
        metrics = measure(runner, reqs, seconds)
    for name, value in metrics.items():
        print(f"# {workload:<8} {name:<30} {value:>16.6f} {unit_of(name)}")
    # Not a bounded metric: it is 0 on correct code; the result line carries the counts.
    print(f"# {workload:<8} {'fail_frac':<30} {len(runner.failures) / max(1, runner.attempted):>16.6f}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every workload's argv and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name in workloads.WORKLOADS:
            for req in workloads.requests(name, args.seed):
                print(f"{name}\tkpell {shlex.join(req)}")
        return 0
    if not (SRC / "kpell" / "__main__.py").is_file():
        print(f"benchmark: no kpell sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One child per workload, so each reports its own children's peak RSS.
        code = 0
        for name in workloads.WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(child).returncode)
        return code
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
