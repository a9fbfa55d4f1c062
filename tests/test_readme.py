"""The README's examples hold as written: each ``kpell`` line of its sh blocks
runs with the exit code and stdout shown under it, and the Python block runs."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
TIME = re.compile(r"time_s=\S+")


def _examples() -> list[tuple[str, list[str] | None]]:
    """Each sh block's kpell argv with the lines shown under it (None: no prompt)."""
    found = []
    for lines in (body.splitlines() for lang, body in BLOCKS if lang == "sh"):
        for i, line in enumerate(lines):
            if line.startswith("$ kpell "):
                shown = []
                for below in lines[i + 1:]:
                    if not below or below.startswith("$"):
                        break
                    shown.append(below)
                found.append((line[len("$ kpell "):], shown))
            elif line.startswith("kpell "):
                found.append((line[len("kpell "):], None))
    return found


EXAMPLES = _examples()


def test_examples_are_found():
    assert sum(shown is not None for _, shown in EXAMPLES) >= 6 and len(EXAMPLES) >= 10


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv for argv, _ in EXAMPLES])
def test_cli_example(argv, shown):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "kpell", *shlex.split(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == (1 if argv.startswith("eigen") and "--paper-verbatim" in argv else 0)
    if shown is not None:
        # a "..." line stands for any number of lines
        lines = ("(?:.*\n)*?" if s == "..." else re.escape(TIME.sub("", s)) + "\n" for s in shown)
        assert re.fullmatch("".join(lines), TIME.sub("", proc.stdout)), proc.stdout


def test_python_example():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
