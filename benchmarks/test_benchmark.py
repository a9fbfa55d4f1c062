"""Tests of the benchmark itself: python -m pytest benchmarks"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 0.02


def kpell(*argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "kpell", *argv], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(run.SRC)), check=True,
    )
    return proc.stdout


def rejects(argv: list[str], out: str) -> bool:
    try:
        checker.check(argv, 0, out)
    except checker.CheckError:
        return True
    return False


def change_char(text: str, index: int) -> str:
    new = "7" if text[index] != "7" else "3"
    return text[:index] + new + text[index + 1 :]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "P", "--k", "2", "--n", "700", "--method", "fast"],
        ["eval", "--kind", "G", "--k", "5", "--a", "3", "--n", "400", "--method", "binet", "--format", "json"],
        ["eval", "--kind", "Q", "--k", "1", "--n", "300"],
        ["eval", "--kind", "q", "--k", "4", "--n", "250"],
    ],
)
def test_checker_rejects_a_changed_digit(argv):
    out = kpell(*argv)
    checker.check(argv, 0, out)
    if "json" in argv:
        start = out.index('"value": "') + len('"value": "')
        end = out.index('"', start)
    else:
        start, end = 0, len(out) - 1
    for index in (start, (start + end) // 2, end - 1):
        assert rejects(argv, change_char(out, index)), index
    assert rejects(argv, out[:start] + out[start + 1 :])
    at = argv.index("--n") + 1
    assert rejects(argv[:at] + [str(int(argv[at]) + 1)] + argv[at + 1 :], out)


def test_checker_rejects_a_wrong_bench_digest():
    argv = ["bench", "--k", "3", "--n", "5000", "--method", "fast", "--repeat", "2"]
    out = kpell(*argv)
    checker.check(argv, 0, out)
    digest = out.split("digest=")[1].split()[0]
    assert rejects(argv, out.replace(digest, str(int(digest) + 1), 1))
    assert rejects(argv, out.splitlines()[0] + "\n")


def test_checker_rejects_a_wrong_pass_count():
    argv = ["verify", "--identities", "catalan,cassini", "--k-max", "2", "--a-max", "2", "--n-max", "6"]
    out = kpell(*argv)
    checker.check(argv, 0, out)
    assert "cassini" in out and rejects(argv, out.replace(" 24 ", " 23 "))
    wider = argv[:-1] + ["7"]
    assert rejects(wider, out)

    argv = argv + ["--format", "json"]
    payload = json.loads(kpell(*argv))
    checker.check(argv, 0, json.dumps(payload))
    short = dict(payload, results=payload["results"][:-1])
    assert rejects(argv, json.dumps(short))
    wrong = json.loads(json.dumps(payload))
    wrong["summary"]["pass"] += 1
    assert rejects(argv, json.dumps(wrong))
    wrong = json.loads(json.dumps(payload))
    cassini = next(r for r in wrong["results"] if r["identity_name"] == "cassini")
    cassini["lhs"] = cassini["rhs"] = str(int(cassini["rhs"]) + 1)
    assert rejects(argv, json.dumps(wrong))


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--kind", "P", "--k", "2", "--n", "9", "--show", "inverse"],
        ["matrix", "--kind", "G", "--k", "3", "--a", "2", "--n", "8", "--show", "inverse", "--format", "json"],
        ["matrix", "--kind", "G", "--k", "1", "--a", "3", "--n", "7", "--show", "cofactor"],
        ["matrix", "--kind", "P", "--k", "4", "--n", "6", "--show", "cofactor", "--format", "json"],
        ["matrix", "--kind", "Q", "--k", "2", "--n", "9", "--show", "theta-phi"],
        ["matrix", "--kind", "q", "--k", "2", "--n", "9", "--show", "theta-phi", "--format", "json"],
        ["matrix", "--kind", "q", "--k", "5", "--n", "5", "--show", "matrix"],
    ],
)
def test_checker_rejects_an_altered_matrix_entry(argv):
    out = kpell(*argv)
    checker.check(argv, 0, out)
    first = out.index("[") if "json" in argv else 0  # skip the JSON "n" field
    digits = [i for i, c in enumerate(out) if c.isdigit() and i > first]
    for index in (digits[len(digits) // 3], digits[-1]):
        assert rejects(argv, change_char(out, index)), (index, out)


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.requests(name, 7)
        assert first == workloads.requests(name, 7)
        assert first != workloads.requests(name, 8)
        assert all(isinstance(arg, str) for argv in first for arg in argv)


def metric_names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_smoke_pass_runs_every_workload(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for name in workloads.WORKLOADS:
        runner = run.Runner()
        metrics = run.measure(runner, workloads.requests(name, 3, SMOKE_SCALE), 0)
        assert runner.failures == [] and runner.attempted > 2
        assert set(metrics) == metric_names("end_to_end")
        assert all(value > 0 for value in metrics.values())


def test_traced_pass_counts_repeat_and_wrappers_come_off(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "PROBE_SAMPLES", 1)
    main = tracing.load_cli(run.SRC)
    import kpell.cli
    import kpell.sequences

    for name in workloads.WORKLOADS:
        reqs = workloads.requests(name, 3, SMOKE_SCALE)
        runner = run.Runner()
        metrics = run.measure_layers(runner, reqs, 0, tmp_path / f"{name}.json.gz")
        assert runner.failures == []
        assert set(metrics) == metric_names("per_layer")
        again = []
        for _ in range(2):
            rec, _, out_bytes, failures = tracing.traced_pass(main, reqs)
            assert failures == []
            again.append(tracing.layer_metrics(rec, out_bytes))
        for count in tracing.COUNT_METRICS:
            assert again[0][count] == again[1][count] == metrics[count], count
        assert metrics["sequences.term.calls"] > 0 and metrics["tridiagonal.bareiss.calls"] > 0
        with gzip.open(tmp_path / f"{name}.json.gz") as fh:
            spans = json.load(fh)
        assert len(spans["start_ns"]) == len(spans["parent"]) == len(spans["request"]) > 0
    assert not hasattr(kpell.cli.term, "__wrapped__")
    assert not hasattr(kpell.sequences.prefix, "__wrapped__")
    assert not hasattr(json.dumps, "__wrapped__")


def test_refuses_to_run_without_kpell_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
