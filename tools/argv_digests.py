#!/usr/bin/env python3
"""Digest kpell's output on the benchmark's and the interpreter test's argv.

    python3 tools/argv_digests.py SRC_DIR [--seeds 1-3] > digests.txt

Runs ``python -m kpell`` with ``PYTHONPATH=SRC_DIR`` and the caller's
environment on each distinct ``benchmarks/run.py --list`` argv of the seeds,
then on ``COMPARED`` and ``VERIFY`` of ``tests/test_interpreters.py``, and
prints per argv: exit code, sha256 of stdout without ``time_s=...``, sha256
of stderr, argv.  Run it on two trees' ``src/`` and ``diff`` the outputs.
"""

import argparse
import ast
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _argvs(first: int, last: int) -> list[tuple[str, ...]]:
    found: dict[tuple[str, ...], None] = {}
    for seed in range(first, last + 1):
        # -B: no bytecode is written under benchmarks/
        command = [sys.executable, "-B", ROOT / "benchmarks" / "run.py", "--list", "--seed"]
        listing = subprocess.check_output([*command, str(seed)], text=True)
        for line in listing.splitlines():  # "<workload>\tkpell <argv>"
            found[tuple(shlex.split(line.split("\t", 1)[1])[1:])] = None
    tree = ast.parse((ROOT / "tests" / "test_interpreters.py").read_text())
    lists = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "id", None) in ("COMPARED", "VERIFY")
    }
    found.update(dict.fromkeys([*lists["COMPARED"], lists["VERIFY"]]))
    return list(found)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", type=Path, help="the src/ directory holding kpell")
    parser.add_argument("--seeds", default="1-3", help="N or FIRST-LAST")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    env = dict(os.environ, PYTHONPATH=str(args.src_dir.resolve()))
    for argv in _argvs(int(first), int(last or first)):
        proc = subprocess.run([sys.executable, "-m", "kpell", *argv], env=env, capture_output=True)
        out = hashlib.sha256(re.sub(rb" time_s=\S+", b"", proc.stdout)).hexdigest()
        err = hashlib.sha256(proc.stderr).hexdigest()
        print(proc.returncode, out, err, shlex.join(argv), flush=True)


if __name__ == "__main__":
    main()
