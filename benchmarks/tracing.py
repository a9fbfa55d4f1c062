"""In-process traced replay of a workload through ``kpell.cli.main``.

Spans are recorded by wrappers that this file installs around kpell's public
functions and ``QuadNum`` methods; kpell itself is not changed.  Each wrapper
is installed on the defining module and on every kpell module that imported
the function by name, and all of them are removed after the pass.  A span
has a name, start, end, parent span and request id; spans live in arrays in
memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import io
import itertools
import json
import math
import sys
import time
from array import array
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable

import checker

KPELL_MODULES = ("sequences", "quadratic", "closed_forms", "tridiagonal", "verify", "cli")

# (module, attribute, span name).  Spans whose names are in ROUTE_SPANS also
# add the decimal size of the value they hand back to the CLI.
FUNCTION_SPANS = (
    ("sequences", "term", "sequences.term"),
    ("sequences", "prefix", "sequences.prefix"),
    ("sequences", "pell_fast", "sequences.pell_fast"),
    ("sequences", "pell_binet", "sequences.binet"),
    ("sequences", "gen_binet", "sequences.binet"),
    ("closed_forms", "pell_binomial", "closed_forms.sum"),
    ("closed_forms", "gen_double_sum", "closed_forms.sum"),
    ("quadratic", "quad_roots", "quadratic.roots"),
    ("tridiagonal", "theta_phi", "tridiagonal.theta_phi"),
    ("tridiagonal", "usmani_inverse", "tridiagonal.inverse"),
    ("tridiagonal", "pell_cofactor", "tridiagonal.cofactor"),
    ("tridiagonal", "gen_pell_cofactor", "tridiagonal.cofactor"),
    ("tridiagonal", "bareiss_det", "tridiagonal.bareiss"),
    ("tridiagonal", "entry_strings", "tridiagonal.render"),
    ("tridiagonal", "render_grid", "tridiagonal.render"),
    ("verify", "run_suite", "verify.suite"),
    ("verify", "check_catalan", "verify.check"),
    ("verify", "check_cassini", "verify.check"),
    ("verify", "check_docagne", "verify.check"),
    ("verify", "check_convolution1", "verify.check"),
    ("verify", "check_convolution2", "verify.check"),
    ("verify", "check_squares", "verify.check"),
    ("verify", "check_partition", "verify.check"),
    ("verify", "check_cofactor_dets", "verify.check"),
)
QUADNUM_SPANS = {
    "__mul__": "quadratic.mul",
    "__rmul__": "quadratic.mul",
    "__truediv__": "quadratic.mul",
    "__rtruediv__": "quadratic.mul",
    "__add__": "quadratic.add",
    "__radd__": "quadratic.add",
    "__sub__": "quadratic.add",
    "__rsub__": "quadratic.add",
    "__neg__": "quadratic.add",
    "__pow__": "quadratic.pow",
    "__eq__": "quadratic.eq",
}
ROUTE_SPANS = {"sequences.term", "sequences.pell_fast", "sequences.binet", "closed_forms.sum"}

# Per-layer metrics read from the spans of one traced pass:
# metric -> (span names, statistic).
SPAN_METRICS = {
    "cli.self_s": (("cli",), "self"),
    "cli.json_s": (("cli.json",), "total"),
    "sequences.term.calls": (("sequences.term",), "calls"),
    "sequences.term.self_s": (("sequences.term",), "self"),
    "sequences.prefix.calls": (("sequences.prefix",), "calls"),
    "sequences.prefix.self_s": (("sequences.prefix",), "self"),
    "sequences.pell_fast.self_s": (("sequences.pell_fast",), "self"),
    "sequences.binet.self_s": (("sequences.binet",), "self"),
    "closed_forms.sum.self_s": (("closed_forms.sum",), "self"),
    "quadratic.mul.calls": (("quadratic.mul",), "calls"),
    "quadratic.self_s": (("quadratic.mul", "quadratic.add", "quadratic.pow", "quadratic.eq", "quadratic.roots"), "self"),
    "tridiagonal.theta_phi.self_s": (("tridiagonal.theta_phi",), "self"),
    "tridiagonal.inverse.self_s": (("tridiagonal.inverse",), "self"),
    "tridiagonal.cofactor.self_s": (("tridiagonal.cofactor",), "self"),
    "tridiagonal.bareiss.calls": (("tridiagonal.bareiss",), "calls"),
    "tridiagonal.bareiss.self_s": (("tridiagonal.bareiss",), "self"),
    "tridiagonal.render.self_s": (("tridiagonal.render",), "self"),
    "verify.suite.self_s": (("verify.suite",), "self"),
    "verify.checks": (("verify.check",), "calls"),
    "verify.check.self_s": (("verify.check",), "self"),
    "verify.to_dict.self_s": (("verify.to_dict",), "self"),
}
COUNT_METRICS = ("cli.out_bytes", "bigint.result_digits") + tuple(
    name for name, (_, stat) in SPAN_METRICS.items() if stat == "calls"
)

_LOG10_2 = math.log10(2)


class Recorder:
    """Spans in parallel arrays; ``stack`` holds the indices of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.result_digits = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        cli_id = self.name_id("cli")
        route = name in ROUTE_SPANS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            parent = self.stack[-1] if self.stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if route and parent >= 0 and self.name[parent] == cli_id:
                value = result[0] if isinstance(result, tuple) else result
                self.result_digits += int(abs(value).bit_length() * _LOG10_2) + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per span name."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for i in range(count):
            slot = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            slot["calls"] += 1
            slot["total"] += duration
            slot["self"] += duration - child[i]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON columns, times in ns from the first span.

        Columns are streamed in chunks, so a million spans need no million-item lists.
        """
        origin = self.start[0] if self.start else 0.0
        columns = {
            "name": self.name,
            "start_ns": (round((t - origin) * 1e9) for t in self.start),
            "end_ns": (round((t - origin) * 1e9) for t in self.end),
            "parent": self.parent,
            "request": self.request,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            for key, values in columns.items():
                fh.write(f', "{key}": [')
                values = iter(values)
                sep = ""
                while chunk := list(itertools.islice(values, 1 << 16)):
                    fh.write(sep + ",".join(map(str, chunk)))
                    sep = ","
                fh.write("]")
            fh.write("}")


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(rec: Recorder) -> _Patches:
    """Wrap every traced function wherever kpell holds a reference to it."""
    patches = _Patches()
    modules = [importlib.import_module("kpell")] + [
        importlib.import_module(f"kpell.{m}") for m in KPELL_MODULES
    ]
    for mod_name, attr, span in FUNCTION_SPANS:
        original = getattr(importlib.import_module(f"kpell.{mod_name}"), attr)
        wrapped = rec.wrap(span, original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                patches.set(mod, attr, wrapped)
    quad = importlib.import_module("kpell.quadratic").QuadNum
    for attr, span in QUADNUM_SPANS.items():
        patches.set(quad, attr, rec.wrap(span, quad.__dict__[attr]))
    suite = importlib.import_module("kpell.verify").SuiteReport
    patches.set(suite, "to_dict", rec.wrap("verify.to_dict", suite.to_dict))
    patches.set(json, "dumps", rec.wrap("cli.json", json.dumps))
    return patches


def replay(main: Callable, reqs: list[list[str]], rec: Recorder | None) -> tuple[float, int, list[str]]:
    """Run every request through ``main`` in process and check its output.

    Returns (seconds inside ``main``, bytes written to stdout, failures).
    """
    elapsed, out_bytes, failures = 0.0, 0, []
    for rid, argv in enumerate(reqs):
        sink = io.StringIO()
        with redirect_stdout(sink):
            start = time.perf_counter()
            try:
                if rec is None:
                    code = main(argv)
                else:
                    rec.request_id = rid
                    code = rec.wrap("cli", main)(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            elapsed += time.perf_counter() - start
        out = sink.getvalue()
        out_bytes += len(out.encode())
        try:
            checker.check(argv, code, out)
        except checker.CheckError as exc:
            failures.append(f"{' '.join(argv)}: {exc}")
    return elapsed, out_bytes, failures


def load_cli(src: Path) -> Callable:
    """Import ``kpell.cli.main`` from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("kpell.cli")
    if Path(cli.__file__).resolve().parent != (src / "kpell").resolve():
        raise RuntimeError(f"kpell was imported from {cli.__file__}, not from {src}")
    return cli.main


def traced_pass(main: Callable, reqs: list[list[str]]) -> tuple[Recorder, float, int, list[str]]:
    rec = Recorder()
    patches = install(rec)
    try:
        elapsed, out_bytes, failures = replay(main, reqs, rec)
    finally:
        patches.undo()
    return rec, elapsed, out_bytes, failures


def layer_metrics(rec: Recorder, out_bytes: int) -> dict[str, float]:
    spans = rec.aggregate()
    empty = {"calls": 0, "total": 0.0, "self": 0.0}
    metrics: dict[str, float] = {"cli.out_bytes": out_bytes, "bigint.result_digits": rec.result_digits}
    for metric, (names, stat) in SPAN_METRICS.items():
        metrics[metric] = sum(spans.get(name, empty)[stat] for name in names)
    return metrics
