"""The CLI gives the same answers under every local CPython the package supports.

Interpreters are looked up as ``$(pyenv root)/versions/<minor>.*/bin/python``;
a minor version with none installed is skipped.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MINORS = ("3.10", "3.12", "3.13")
# Each argv below runs a path whose output could differ by interpreter:
# - bench and eval run the doubling loop on Decimal at every size: bench
#   prints a digest (a Decimal %), eval every digit.  They run the fast route
#   and Binet on P and G, at small n too, where the CLI cross-checks them
#   against the recurrence, and at a perfect-square 1+k = 4.
# - The recurrence's steps m terms apart run in eval (printed through
#   to_str), with m = 1 at k = 2**31, and in bench.
# - verify renders integer sides, k = 3 among them, and d'Ocagne's from q
#   and P prefixes at square 1+k (k = 3, 8) too.  It also renders the FAIL
#   lines of eigen-verbatim, which exits 1 by design.
# - matrix renders the inverse's reduced ratio cells (their gcds bounded
#   through theta/phi, JSON lists of strings quoted in one pass), a cofactor
#   grid formatted a row at a time, and theta-phi continuants from the
#   printing walk.  That walk runs on Decimal from its first step, up to
#   15,341 bits (k = 2**59) and about 16,000 bits (G, k = 10**6), past
#   STR_MAX_BITS.
# - table renders symbolic rows, and numeric rows from the same walk, small
#   ones at k = 1.
# - The JSON writer streams a table's rows, theta-phi's two lists, a sweep's
#   row texts (FAIL rows of eigen-verbatim among them) and a cofactor grid's
#   rows.  Each interpreter's own json.dumps writes the heads and a whole
#   eval payload.
COMPARED = (
    ("bench", "--k", "1", "--n", "200000"),
    ("bench", "--k", "1", "--n", "100000", "--method", "recurrence"),
    ("bench", "--k", "2", "--n", "1000"),
    ("bench", "--k", "6", "--n", "20000", "--method", "recurrence"),
    ("eval", "--kind", "G", "--k", "2", "--a", "3", "--n", "60000"),
    ("eval", "--kind", "Q", "--k", "2147483648", "--n", "3000"),
    ("eval", "--kind", "P", "--k", "2", "--n", "50000", "--method", "fast"),
    ("eval", "--kind", "P", "--k", "2", "--n", "50000", "--method", "fast", "--format", "json"),
    ("eval", "--kind", "P", "--k", "3", "--n", "300", "--method", "fast"),
    ("eval", "--kind", "G", "--k", "3", "--a", "2", "--n", "5000", "--method", "binet"),
    ("eval", "--kind", "P", "--k", "2", "--n", "30011", "--method", "binet"),
    ("eval", "--kind", "G", "--k", "5", "--a", "3", "--n", "30011", "--method", "binet"),
    ("eval", "--kind", "P", "--k", "1", "--n", "5000", "--method", "binomial"),
    ("eval", "--kind", "G", "--k", "2", "--a", "3", "--n", "5001", "--method", "double-sum"),
    ("verify", "--k-max", "4", "--a-max", "2", "--n-max", "10", "--format", "json"),
    ("verify", "--identities", "eigen-verbatim", "--k-max", "3", "--n-max", "12"),
    ("matrix", "--kind", "G", "--k", "2", "--a", "3", "--n", "40", "--show", "inverse",
     "--format", "json"),
    ("matrix", "--kind", "G", "--k", "2", "--a", "4", "--n", "60", "--show", "inverse",
     "--format", "json"),
    ("matrix", "--kind", "P", "--k", "2", "--n", "80", "--show", "cofactor"),
    ("matrix", "--kind", "G", "--k", "1", "--a", "4", "--n", "60", "--show", "cofactor",
     "--format", "json"),
    ("matrix", "--kind", "q", "--k", "2", "--n", "150", "--show", "matrix"),
    ("matrix", "--kind", "P", "--k", "576460752303423488", "--n", "520", "--show", "theta-phi"),
    ("matrix", "--kind", "P", "--k", "576460752303423488", "--n", "520", "--show", "theta-phi",
     "--format", "json"),
    ("matrix", "--kind", "G", "--k", "1000000", "--a", "3", "--n", "1600", "--show", "theta-phi"),
    ("table", "--kind", "G", "--symbolic", "--n-max", "60"),
    ("table", "--kind", "P", "--k", "1", "--n-max", "2000"),
    ("table", "--kind", "G", "--k", "2", "--a", "3", "--n-max", "40", "--format", "json"),
    ("verify", "--identities", "all,eigen-verbatim", "--k-max", "2", "--a-max", "2",
     "--n-max", "6", "--format", "json"),
    ("verify", "--identities", "docagne", "--k-max", "8", "--a-max", "2", "--n-max", "12",
     "--format", "json"),
    ("verify", "--identities", "all,eigen,eigen-verbatim", "--k-max", "3", "--n-max", "12",
     "--format", "json"),
)
VERIFY = ("verify", "--k-max", "2", "--a-max", "2", "--n-max", "8")


def _kpell(python: str, argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [python, "-m", "kpell", *argv], env=env, capture_output=True, text=True, timeout=60
    )


def _stdout(python: str, argv) -> str:
    proc = _kpell(python, argv)
    fails = any("eigen-verbatim" in arg.split(",") for arg in argv)
    assert proc.returncode == (1 if fails else 0), proc.stderr
    return re.sub(r" time_s=\S+", "", proc.stdout)


def _interpreters(minor: str) -> list[str]:
    root = os.environ.get("PYENV_ROOT")
    if root is None and (pyenv := shutil.which("pyenv")):
        found = subprocess.run([pyenv, "root"], capture_output=True, text=True)
        root = found.stdout.strip() if found.returncode == 0 else None
    if not root:
        return []
    return sorted(str(p) for p in Path(root).glob(f"versions/{minor}.*/bin/python"))


@pytest.fixture(scope="module")
def expected() -> list[str]:
    return [_stdout(sys.executable, argv) for argv in COMPARED]


@pytest.mark.parametrize("minor", MINORS)
def test_interpreter_matches_running_one(minor, expected):
    pythons = _interpreters(minor)
    if not pythons:
        pytest.skip(f"no local CPython {minor}")
    for python in pythons:
        assert [_stdout(python, argv) for argv in COMPARED] == expected, python
        proc = _kpell(python, VERIFY)
        assert proc.returncode == 0, f"{python}: {proc.stderr}"
