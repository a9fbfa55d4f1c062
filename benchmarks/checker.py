"""Independent checks of kpell's CLI output.

Nothing here imports kpell or compares one kpell route with another.  Every
expected value is derived from the request's argv alone:

* terms and ``bench`` digests: x_n mod 2**64 and mod 2**61 - 1 from a 2x2
  matrix power, with x_n = x1*P_n + x0*(P_{n+1} - 2*P_n) for every kind,
  against a linear-time chunked reduction of the printed decimal string (the
  second modulus is prime to 10, so a change to any digit shows);
* sweeps: exit 0, no failures, the pass count the grid implies, and for the
  JSON report both sides of every Cassini and Catalan check recomputed;
* matrices: the checker's own generating matrix T, with T * inverse = I,
  T * cofactor^T = det * I and theta_n = det = x_{n+1}.
"""

from __future__ import annotations

import json
from fractions import Fraction

MOD64 = 1 << 64
M61 = (1 << 61) - 1

EXACT_IDENTITIES = (
    "catalan", "cassini", "docagne", "convolution1", "convolution2",
    "squares1", "squares2", "partition", "cofactor-dets",
)


class CheckError(Exception):
    """A request's exit code or output is not what its argv implies."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _flags(argv: list[str]) -> dict[str, str]:
    out = {}
    for i in range(1, len(argv), 2):
        _require(argv[i].startswith("--"), f"unexpected argv layout {argv}")
        out[argv[i][2:]] = argv[i + 1]
    return out


# -- terms ---------------------------------------------------------------------


def _pell_pair_mod(k: int, n: int, m: int) -> tuple[int, int]:
    """(P_n, P_{n+1}) mod m from [[2, k], [1, 0]]**n."""
    a, b, c, d = 1, 0, 0, 1  # result matrix
    e, f, g, h = 2 % m, k % m, 1, 0  # base matrix
    while n:
        if n & 1:
            a, b, c, d = (a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m
        e, f, g, h = (e * e + f * g) % m, (e * f + f * h) % m, (g * e + h * g) % m, (g * f + h * h) % m
        n >>= 1
    return c, a  # M**n = [[P_{n+1}, k*P_n], [P_n, k*P_{n-1}]]


def initial_pair(kind: str, a: int) -> tuple[int, int]:
    return {"P": (0, 1), "Q": (2, 2), "q": (1, 1), "G": (a, a)}[kind]


def term_mod(kind: str, k: int, a: int, n: int, m: int) -> int:
    x0, x1 = initial_pair(kind, a)
    p, p_next = _pell_pair_mod(k, n, m)
    return (x1 * p + x0 * (p_next - 2 * p)) % m


def decimal_mod(text: str, m: int, chunk: int = 18) -> int:
    """int(text) mod m in time linear in len(text)."""
    r = 0
    head = len(text) % chunk or chunk
    r = int(text[:head]) % m
    scale = 10**chunk % m
    for i in range(head, len(text), chunk):
        r = (r * scale + int(text[i : i + chunk])) % m
    return r


def check_term_string(text: str, kind: str, k: int, a: int, n: int) -> None:
    _require(text.isdigit() and (text == "0" or text[0] != "0"), f"not a decimal term: {text[:40]!r}")
    for m in (MOD64, M61):
        want = term_mod(kind, k, a, n, m)
        _require(decimal_mod(text, m) == want, f"{kind}_{n}(k={k}, a={a}) is wrong mod {m}")


def _check_eval(f: dict[str, str], out: str) -> None:
    kind, k, n = f["kind"], int(f["k"]), int(f["n"])
    a = int(f.get("a", 1))
    if f.get("format") == "json":
        payload = json.loads(out)
        want = {"kind": kind, "k": k, "n": n, "value": payload.get("value")}
        if kind == "G":
            want["a"] = a
        _require(payload == want, "eval JSON has the wrong shape or parameters")
        text = payload["value"]
    else:
        _require(out.endswith("\n") and out.count("\n") == 1, "eval text is not one line")
        text = out[:-1]
    check_term_string(text, kind, k, a, n)


def _check_bench(f: dict[str, str], out: str) -> None:
    k, n, repeat = int(f["k"]), int(f["n"]), int(f.get("repeat", 1))
    method = f.get("method", "fast")
    digest = term_mod("P", k, 1, n, MOD64)
    lines = out.splitlines()
    _require(len(lines) == repeat, f"bench printed {len(lines)} lines, expected {repeat}")
    for run, line in enumerate(lines):
        fields = dict(part.split("=", 1) for part in line.split())
        _require(float(fields.pop("time_s")) >= 0, "negative bench time")
        want = {"method": method, "k": str(k), "n": str(n), "run": str(run), "digest": str(digest)}
        _require(fields == want, f"bench line {run} is wrong: {line!r}")


# -- sweeps ----------------------------------------------------------------------


def expected_counts(identity: str, k_max: int, a_max: int, n_max: int) -> int:
    """The number of checks ``verify`` makes for one identity on a grid."""
    tri = n_max * (n_max + 1) // 2
    if identity in ("catalan", "docagne", "partition"):
        return a_max * k_max * tri
    if identity == "cassini":
        return a_max * k_max * n_max
    if identity in ("convolution1", "convolution2"):
        return k_max * n_max * n_max
    if identity in ("squares1", "squares2"):
        return k_max * n_max
    if identity == "cofactor-dets":
        return k_max * (a_max + 1) * max(0, min(8, n_max) - 1)
    raise CheckError(f"no count formula for {identity!r}")


def _selection(spec: str) -> list[str]:
    out: list[str] = []
    for name in spec.split(","):
        for item in EXACT_IDENTITIES if name == "all" else (name,):
            if item not in out:
                out.append(item)
    return out


class _GenTerms:
    """G_n by the checker's own recurrence, cached per (k, a)."""

    def __init__(self) -> None:
        self._cache: dict[tuple[int, int], list[int]] = {}

    def __call__(self, k: int, a: int, n: int) -> int:
        seq = self._cache.setdefault((k, a), [a, a])
        while len(seq) <= n:
            seq.append(2 * seq[-1] + k * seq[-2])
        return seq[n]


def _check_json_results(results: list[dict]) -> None:
    g = _GenTerms()
    for r in results:
        _require(r["residual_is_zero"] is True and r["lhs"] == r["rhs"], f"failed check {r}")
        name, i = r["identity_name"], r["inputs"]
        if name == "cassini":
            a, k, n = i["a"], i["k"], i["n"]
            lhs = g(k, a, n - 1) * g(k, a, n + 1) - g(k, a, n) ** 2
            rhs = a * a * (-k) ** (n - 1) * (1 + k)
        elif name == "catalan":
            a, k, n, s = i["a"], i["k"], i["n"], i["r"]
            lhs = g(k, a, n - s) * g(k, a, n + s) - g(k, a, n) ** 2
            rhs = (-k) ** (n - s) * (g(k, a, s) ** 2 - a * a * (-k) ** s)
        else:
            continue
        _require(r["lhs"] == str(lhs) and r["rhs"] == str(rhs) and lhs == rhs, f"wrong {name} values {r}")


def _check_verify(f: dict[str, str], out: str) -> None:
    grid = (int(f.get("k-max", 5)), int(f.get("a-max", 3)), int(f.get("n-max", 30)))
    want = {name: expected_counts(name, *grid) for name in _selection(f.get("identities", "all"))}
    total = sum(want.values())
    if f.get("format") == "json":
        payload = json.loads(out)
        _require(payload["summary"] == {"pass": total, "fail": 0}, f"summary {payload['summary']} != {total} passes")
        got: dict[str, int] = {}
        for r in payload["results"]:
            got[r["identity_name"]] = got.get(r["identity_name"], 0) + 1
        _require(got == want and list(got) == list(want), f"per-identity counts {got} != {want}")
        _check_json_results(payload["results"])
        return
    lines = out.splitlines()
    _require(lines[0].split() == ["identity", "pass", "fail"], "missing verify header")
    rows = [line.split() for line in lines[1:]]
    expect = [[name, str(count), "0"] for name, count in want.items()] + [["total", str(total), "0"]]
    _require(rows == expect, f"verify table {rows} != {expect}")


# -- matrices --------------------------------------------------------------------


def gen_matrix(kind: str, k: int, a: int, n: int) -> tuple[list[int], list[int], list[int]]:
    """(diag, sup, sub) of the n x n generating matrix, det = x_{n+1}."""
    d0, b0 = {"P": (2, k), "Q": (2 * k + 4, 2 * k), "q": (k + 2, k), "G": (a * k + 2 * a, a * k)}[kind]
    return [d0] + [2] * (n - 1), ([b0] + [k] * (n - 2))[: n - 1], [-1] * (n - 1)


def _continuants(diag, sup, sub) -> tuple[list[int], list[int]]:
    n = len(diag)
    theta = [1, diag[0]]
    for i in range(1, n):
        theta.append(diag[i] * theta[-1] - sup[i - 1] * sub[i - 1] * theta[-2])
    phi = [1, diag[-1]]  # built from the bottom: phi_{n+1}, phi_n, ...
    for j in range(n - 2, -1, -1):
        phi.append(diag[j] * phi[-1] - sup[j] * sub[j] * phi[-2])
    return theta, phi[::-1]


def _band_times(diag, sup, sub, rows: list[list[int]]) -> list[list[int]]:
    n = len(diag)
    out = []
    for i in range(n):
        acc = [diag[i] * x for x in rows[i]]
        if i > 0:
            acc = [s + sub[i - 1] * x for s, x in zip(acc, rows[i - 1])]
        if i < n - 1:
            acc = [s + sup[i] * x for s, x in zip(acc, rows[i + 1])]
        out.append(acc)
    return out


def _grid(out: str, fmt: str, n: int) -> list[list[str]]:
    if fmt == "json":
        payload = json.loads(out)
        _require(payload.get("n") == n and set(payload) == {"n", "entries"}, "matrix JSON shape")
        cells = payload["entries"]
    else:
        cells = [line.split() for line in out.splitlines()]
    _require(len(cells) == n and all(len(row) == n for row in cells), f"grid is not {n}x{n}")
    return cells


def _is_scaled_identity(rows: list[list[int]], det: int) -> bool:
    return all(x == (det if i == j else 0) for i, row in enumerate(rows) for j, x in enumerate(row))


def _check_matrix(f: dict[str, str], out: str) -> None:
    kind, k, n = f["kind"], int(f["k"]), int(f["n"])
    a = int(f.get("a", 1))
    show, fmt = f.get("show", "matrix"), f.get("format", "text")
    diag, sup, sub = gen_matrix(kind, k, a, n)
    theta, phi = _continuants(diag, sup, sub)
    det = theta[-1]
    x0, x1 = initial_pair(kind, a)
    for _ in range(n + 1):
        x0, x1 = x1, 2 * x1 + k * x0
    _require(det == x0 == phi[0], f"checker's own det {det} != x_{n + 1}")
    if show == "theta-phi":
        if fmt == "json":
            payload = json.loads(out)
            got_theta, got_phi = payload["theta"], payload["phi"]
            _require(payload["n"] == n, "theta-phi JSON has the wrong n")
        else:
            lines = out.splitlines()
            _require(len(lines) == 2 and lines[0].startswith("theta:") and lines[1].startswith("phi:"), "theta-phi text")
            got_theta, got_phi = lines[0].split()[1:], lines[1].split()[1:]
        _require(got_theta == [str(x) for x in theta], "theta is wrong")
        _require(got_phi == [str(x) for x in phi], "phi is wrong")
        return
    cells = _grid(out, fmt, n)
    if show == "matrix":
        want = [["0"] * n for _ in range(n)]
        for i in range(n):
            want[i][i] = str(diag[i])
            if i < n - 1:
                want[i][i + 1], want[i + 1][i] = str(sup[i]), str(sub[i])
        _require(cells == want, "generating matrix entries are wrong")
    elif show == "inverse":
        scaled = []
        for row in cells:
            out_row = []
            for cell in row:
                x = Fraction(cell)
                _require(det % x.denominator == 0, f"inverse entry {cell} has a stray denominator")
                out_row.append(x.numerator * (det // x.denominator))
            scaled.append(out_row)
        _require(_is_scaled_identity(_band_times(diag, sup, sub, scaled), det), "T * inverse != I")
    elif show == "cofactor":
        adj = [list(col) for col in zip(*([int(c) for c in row] for row in cells))]
        _require(_is_scaled_identity(_band_times(diag, sup, sub, adj), det), "T * cofactor^T != det * I")
    else:
        raise CheckError(f"unknown --show {show!r}")


_CHECKS = {"eval": _check_eval, "bench": _check_bench, "verify": _check_verify, "matrix": _check_matrix}


def check(argv: list[str], code: int, out: str) -> None:
    """Raise CheckError unless ``out`` and exit ``code`` are right for ``argv``."""
    _require(code == 0, f"exit code {code}")
    try:
        _CHECKS[argv[0]](_flags(argv), out)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
