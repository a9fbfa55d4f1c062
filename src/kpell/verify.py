"""Identity checks with exact residuals, plus grid sweeps over parameters.

Each ``check_*`` function evaluates both sides of one identity and returns a
CheckResult rather than asserting, so callers can render counterexamples.
``sweep`` yields the results of selected checks over a parameter grid one
at a time, and ``run_suite`` collects them into a report with per-identity
pass/fail counts.  A check and a sweep both run the identity's registry
entry: its body and its domain of valid index tuples.  A ``check_*`` call
refuses a tuple outside the domain and feeds the body terms read one at a time
through ``term``; a sweep reads the guard once, when called, at the largest
index its selection reads, then runs every valid tuple in 0..n_max and feeds
it integer prefixes, each built once per sweep: G's for each (k, a), P's and
q's for each k.  Every body reads sequence terms only: d'Ocagne's root power
(1 + sqrt(1+k))**j is q_j + P_j*sqrt(1+k).  The two eigenvalue checks are
floating-point cross-checks and are therefore *not* part of the ``"all"``
selection, whose checks are exact; they must be selected by name.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import partial
from itertools import product, starmap
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .digits import to_str
from .sequences import SeqKind, SeqParams, guard_index, prefix, term


class CheckResult(namedtuple("CheckResult", "identity_name inputs lhs rhs residual_is_zero")):
    """One identity evaluated at one parameter tuple, both sides exact.

    ``residual_is_zero`` is not an argument: it is decided once, at
    construction, however often a report reads it.
    """

    __slots__ = ()

    def __new__(
        cls, identity_name: str, inputs: Mapping[str, object], lhs: object, rhs: object
    ) -> CheckResult:
        return tuple.__new__(cls, (identity_name, inputs, lhs, rhs, lhs == rhs))

    def __getnewargs__(self) -> tuple:
        return self[:4]

    def __repr__(self) -> str:
        # an int side through to_str, which needs no digit limit
        lhs, rhs = (to_str(v) if isinstance(v, int) else repr(v) for v in (self.lhs, self.rhs))
        return (
            f"CheckResult(identity_name={self.identity_name!r}, inputs={self.inputs!r}, "
            f"lhs={lhs}, rhs={rhs})"
        )

    def to_dict(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "inputs": dict(self.inputs),
            "lhs": to_str(self.lhs),
            "rhs": to_str(self.rhs),
            "residual_is_zero": self.residual_is_zero,
        }


class _Walk:
    """Terms of one kind read one at a time through ``term``, for a single check.

    A single check reads a handful of indices, so it walks the recurrence
    for each rather than hold a prefix: memory stays flat at large indices.
    """

    def __init__(self, kind: SeqKind, params: SeqParams) -> None:
        self.kind, self.params = kind, params

    def __getitem__(self, n: int) -> int:
        return term(self.kind, self.params, n)


_Terms = list | _Walk


# The bodies: both sides of one identity, read from the terms G (generalized,
# k and a), q (modified Pell, k) and P (Pell, k) that precede ``params``: a
# prefix in a sweep, a _Walk in a single check.


def _catalan(G: _Terms, params: SeqParams, n: int, r: int) -> CheckResult:
    a, k = params.a, params.k
    lhs = G[n - r] * G[n + r] - G[n] ** 2
    rhs = (-k) ** (n - r) * (G[r] ** 2 - a * a * (-k) ** r)
    return CheckResult("catalan", {"a": a, "k": k, "n": n, "r": r}, lhs, rhs)


def _cassini(G: _Terms, params: SeqParams, n: int) -> CheckResult:
    a, k = params.a, params.k
    lhs = G[n - 1] * G[n + 1] - G[n] ** 2
    rhs = a * a * (-k) ** (n - 1) * (1 + k)
    return CheckResult("cassini", {"a": a, "k": k, "n": n}, lhs, rhs)


def _docagne(
    G: _Terms, q: _Terms, P: _Terms, params: SeqParams, m: int, n: int
) -> CheckResult:
    a, k = params.a, params.k
    d = 1 + k
    lhs = G[m] * G[n + 1] - G[m + 1] * G[n]
    # s*sqrt(d)*(G_{m-n} - a*(x + y*sqrt(d))), with s = a*(-k)**n and
    # r1**(m-n) = x + y*sqrt(d) = q_{m-n} + P_{m-n}*sqrt(d)
    x, y = q[m - n], P[m - n]
    s = a * (-k) ** n
    rhs = -s * a * y * d
    root_coeff = s * (G[m - n] - a * x)  # zero whenever the identity holds
    if root_coeff:
        from .quadratic import QuadNum

        rhs = QuadNum(rhs, root_coeff, d)
    return CheckResult("docagne", {"a": a, "k": k, "m": m, "n": n}, lhs, rhs)


def _convolution1(P: _Terms, params: SeqParams, n: int, m: int) -> CheckResult:
    k = params.k
    lhs = P[n + m]
    rhs = k * P[n - 1] * P[m] + P[n] * P[m + 1]
    return CheckResult("convolution1", {"k": k, "n": n, "m": m}, lhs, rhs)


def _convolution2(P: _Terms, params: SeqParams, n: int, m: int) -> CheckResult:
    k = params.k
    lhs = 2 * P[n + m]
    rhs = P[n + 1] * P[m + 1] - k * k * P[m - 1] * P[n - 1]
    return CheckResult("convolution2", {"k": k, "n": n, "m": m}, lhs, rhs)


def _squares1(P: _Terms, params: SeqParams, n: int) -> CheckResult:
    k = params.k
    lhs = P[n + 1] ** 2 + k * P[n] ** 2
    return CheckResult("squares1", {"k": k, "n": n}, lhs, P[2 * n + 1])


def _squares2(P: _Terms, params: SeqParams, n: int) -> CheckResult:
    k = params.k
    lhs = P[n + 1] ** 2 - k * k * P[n - 1] ** 2
    return CheckResult("squares2", {"k": k, "n": n}, lhs, 2 * P[2 * n])


def _partition(G: _Terms, P: _Terms, params: SeqParams, n: int, i: int) -> CheckResult:
    a, k = params.a, params.k
    lhs = G[n + 1]
    rhs = k * G[i] * P[n - i] + G[i + 1] * P[n + 1 - i]
    return CheckResult("partition", {"a": a, "k": k, "n": n, "i": i}, lhs, rhs)


def _cofactor_det(
    G: _Terms, P: _Terms, params: SeqParams, n: int, matrix: str
) -> CheckResult:
    """|C_n| = P_{n+1}**(n-1) for matrix "C", |D_n| = G_{n+1}**(n-1) for "D"."""
    from .tridiagonal import bareiss_det, gen_pell_cofactor, pell_cofactor

    a, k = params.a, params.k
    if matrix == "C":
        inputs = {"matrix": "C", "k": k, "n": n}
        det, base = bareiss_det(pell_cofactor(k, n)), P[n + 1]
    else:
        inputs = {"matrix": "D", "a": a, "k": k, "n": n}
        det, base = bareiss_det(gen_pell_cofactor(params, n)), G[n + 1]
    return CheckResult("cofactor-dets", inputs, det, base ** (n - 1))


def _eigen(params: SeqParams, n: int, paper_verbatim: bool) -> CheckResult:
    from .closed_forms import eigen_product

    report = eigen_product(params.k, n, paper_verbatim)
    name = "eigen-verbatim" if paper_verbatim else "eigen"
    inputs = {
        "k": params.k,
        "n": n,
        "product": f"{report.product.real:.6f}{report.product.imag:+.6f}i",
        "abs_residual": f"{report.abs_residual:.6f}",
    }
    return CheckResult(name, inputs, report.rounded, report.exact)


class _Identity(NamedTuple):
    """One registry entry: the prefixes a body reads, its domain and its sweep.

    ``body(*prefixes, params, *index)`` takes one prefix per entry of
    ``kinds``; ``top(n_max)`` is the largest index the sweep's tuples read.
    ``domain`` is a triple (arity, valid, rule): the index tuples are the
    tuples of ``arity`` ints for which ``valid`` holds, and ``rule``,
    formatted with any other tuple, is the text of its ValueError.  A sweep
    runs a over the grid only when G is among ``kinds``.
    """

    kinds: tuple[SeqKind, ...]
    top: Callable[[int], int]
    domain: tuple[int, Callable[..., bool], str]
    body: Callable[..., CheckResult]
    # what follows each index tuple of a sweep at a: cofactor-dets' matrices
    tails: Callable[[int], tuple[tuple, ...]] = lambda a: ((),)

    def valid_tuples(self, n_max: int) -> Iterator[tuple]:
        """Every valid index tuple in 0..n_max, lazily, in lexicographic order."""
        arity, valid, _ = self.domain
        return (index for index in product(range(n_max + 1), repeat=arity) if valid(*index))

    def indices(self, tuples: list[tuple], a: int) -> list[tuple]:
        """A sweep's index tuples at a: each of ``tuples`` followed by each tail of a."""
        return [index + tail for index in tuples for tail in self.tails(a)]


def _matrices(a: int) -> tuple[tuple[str], ...]:
    # C_n does not depend on a, so it is checked at a = 1 only
    return (("C",), ("D",)) if a == 1 else (("D",),)


_G, _q, _P = (SeqKind.GEN_PELL,), (SeqKind.MODIFIED_PELL,), (SeqKind.PELL,)
# Index domains (arity, valid, rule), named after the indices they take
_N = (1, lambda n: n >= 1, "need n >= 1, got {0!r}")
_NR = (2, lambda n, r: n >= r >= 1, "need n >= r >= 1, got n={0!r}, r={1!r}")
_MN = (2, lambda m, n: m > n >= 0, "need m > n >= 0, got m={0!r}, n={1!r}")
_NM = (2, lambda n, m: n >= 1 and m >= 1, "need n, m >= 1, got n={0!r}, m={1!r}")
_NI = (2, lambda n, i: 1 <= i <= n, "need 1 <= i <= n, got i={1!r}, n={0!r}")
_N8 = (1, lambda n: 2 <= n <= 8, "need 2 <= n <= 8 (bignum growth guard), got {0!r}")
_ORDER = (1, lambda n: n >= 1, "matrix order must be >= 1, got {0!r}")

_REGISTRY: dict[str, _Identity] = {
    "catalan": _Identity(_G, lambda n: 2 * n, _NR, _catalan),
    "cassini": _Identity(_G, lambda n: n + 1, _N, _cassini),
    "docagne": _Identity(_G + _q + _P, lambda n: n + 1, _MN, _docagne),
    "convolution1": _Identity(_P, lambda n: 2 * n, _NM, _convolution1),
    "convolution2": _Identity(_P, lambda n: 2 * n, _NM, _convolution2),
    "squares1": _Identity(_P, lambda n: 2 * n + 1, _N, _squares1),
    "squares2": _Identity(_P, lambda n: 2 * n, _N, _squares2),
    "partition": _Identity(_G + _P, lambda n: n + 1, _NI, _partition),
    "cofactor-dets": _Identity(
        _G + _P, lambda n: min(8, n) + 1, _N8, _cofactor_det, tails=_matrices
    ),
    # eigen_product reads P_{n+1} through term()
    "eigen": _Identity((), lambda n: n + 1, _ORDER, lambda p, n: _eigen(p, n, False)),
    "eigen-verbatim": _Identity((), lambda n: n + 1, _ORDER, lambda p, n: _eigen(p, n, True)),
}

FLOAT_IDENTITIES: tuple[str, ...] = ("eigen", "eigen-verbatim")

EXACT_IDENTITIES: tuple[str, ...] = tuple(n for n in _REGISTRY if n not in FLOAT_IDENTITIES)


def _check(name: str, params: SeqParams, *index) -> CheckResult:
    """One identity at one index tuple, in its domain, on terms read through _Walk."""
    entry = _REGISTRY[name]
    arity, valid, rule = entry.domain
    ints = index[:arity]
    if not (all(isinstance(i, int) for i in ints) and valid(*ints)):
        raise ValueError(rule.format(*ints))
    return entry.body(*(_Walk(kind, params) for kind in entry.kinds), params, *index)


def check_catalan(params: SeqParams, n: int, r: int) -> CheckResult:
    """G_{n-r}*G_{n+r} - G_n**2 = (-k)**(n-r) * (G_r**2 - a**2*(-k)**r)."""
    return _check("catalan", params, n, r)


def check_cassini(params: SeqParams, n: int) -> CheckResult:
    """G_{n-1}*G_{n+1} - G_n**2 = a**2 * (-k)**(n-1) * (1+k)."""
    return _check("cassini", params, n)


def check_docagne(params: SeqParams, m: int, n: int) -> CheckResult:
    """G_m*G_{n+1} - G_{m+1}*G_n against its closed form in Q(sqrt(1+k)).

    The right side is a*(-1)**n * k**n * sqrt(1+k) * (G_{m-n} - a*r1**(m-n)),
    irrational termwise for non-square 1+k.  It is evaluated in integers, with
    r1**(m-n) = q_{m-n} + P_{m-n}*sqrt(1+k).  Both sides are ints, except a
    right side with a nonzero sqrt(1+k) part, which is returned as a QuadNum.
    """
    return _check("docagne", params, m, n)


def check_convolution1(k: int, n: int, m: int) -> CheckResult:
    """P_{n+m} = k*P_{n-1}*P_m + P_n*P_{m+1}."""
    return _check("convolution1", SeqParams(k), n, m)


def check_convolution2(k: int, n: int, m: int) -> CheckResult:
    """2*P_{n+m} = P_{n+1}*P_{m+1} - k**2*P_{m-1}*P_{n-1}."""
    return _check("convolution2", SeqParams(k), n, m)


def check_squares(k: int, n: int) -> tuple[CheckResult, CheckResult]:
    """Both square identities at once:

    P_{n+1}**2 + k*P_n**2 = P_{2n+1}  and  P_{n+1}**2 - k**2*P_{n-1}**2 = 2*P_{2n}.
    """
    return _check("squares1", SeqParams(k), n), _check("squares2", SeqParams(k), n)


def check_partition(params: SeqParams, n: int, i: int) -> CheckResult:
    """G_{n+1} = k*G_i*P_{n-i} + G_{i+1}*P_{n+1-i}, for every 1 <= i <= n."""
    return _check("partition", params, n, i)


def check_cofactor_dets(params: SeqParams, n: int) -> tuple[CheckResult, CheckResult]:
    """det of both cofactor matrices against the sequence-term powers.

    |C_n| = P_{n+1}**(n-1) and |D_n| = G_{n+1}**(n-1), evaluated by exact
    fraction-free elimination on the constructed matrices.
    """
    return _check("cofactor-dets", params, n, "C"), _check("cofactor-dets", params, n, "D")


def check_eigen(k: int, n: int, paper_verbatim: bool = False) -> CheckResult:
    """Rounded eigenvalue product against the exact term (floating point)."""
    return _check("eigen-verbatim" if paper_verbatim else "eigen", SeqParams(k), n)


class SweepGrid(namedtuple("SweepGrid", "k_max a_max n_max")):
    """Inclusive upper bounds for the sweep parameters."""

    __slots__ = ()

    def __new__(cls, k_max: int = 5, a_max: int = 3, n_max: int = 30) -> SweepGrid:
        for name, value in zip(cls._fields, (k_max, a_max, n_max)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        return super().__new__(cls, k_max, a_max, n_max)


def tally(
    results: Iterable[CheckResult],
) -> tuple[dict[str, tuple[int, int]], list[CheckResult]]:
    """Per-identity (pass count, fail count) in result order, and the failures,
    from one pass that holds no passing result."""
    counts: dict[str, list[int]] = {}
    failures: list[CheckResult] = []
    for r in results:
        slot = counts.setdefault(r.identity_name, [0, 0])
        if r.residual_is_zero:
            slot[0] += 1
        else:
            slot[1] += 1
            failures.append(r)
    return {name: (p, f) for name, (p, f) in counts.items()}, failures


def _row_form(name: str, inputs: Mapping[str, object]) -> str:
    """The %-template of a result's JSON item, from ``CheckResult.to_dict``.
    Each int input and the flag is a %s, filled with its JSON text; each side
    and string input a "%s", filled with the string as it is."""
    from .jsonout import SLOT, TEXT, template

    marks = {key: TEXT if type(value) is str else SLOT for key, value in inputs.items()}
    shape = CheckResult(name, marks, TEXT, TEXT).to_dict()
    shape["residual_is_zero"] = SLOT
    return template(shape)


def json_rows(results: Iterable[CheckResult]) -> tuple[list[str], int]:
    """Each result as ``jsonout.item(result.to_dict())``, and the number that failed.

    No dict is built for a result: its row fills one %-template, made once per
    identity and input keys, with its inputs, sides and flag as they are.  A
    registry body gives an input under a key one type, an int or a string.
    """
    forms: dict[tuple, str] = {}
    rows: list[str] = []
    failed = 0
    for r in results:
        name, inputs, lhs, rhs, passed = r
        key = (name, *inputs)
        if key not in forms:
            forms[key] = _row_form(name, inputs)
        flag = "true" if passed else "false"
        rows.append(forms[key] % (*inputs.values(), to_str(lhs), to_str(rhs), flag))
        failed += not passed
    return rows, failed


class SuiteReport(namedtuple("SuiteReport", "results failures")):
    """All results of one sweep, in deterministic grid order.

    ``failures`` is not an argument: it is collected once, at construction.
    """

    __slots__ = ()

    def __new__(cls, results: tuple[CheckResult, ...] = ()) -> SuiteReport:
        failures = tuple(r for r in results if not r.residual_is_zero)
        return tuple.__new__(cls, (results, failures))

    def __getnewargs__(self) -> tuple:
        return (self.results,)

    def __repr__(self) -> str:
        return f"SuiteReport(results={self.results!r})"

    @property
    def passed(self) -> int:
        return len(self.results) - self.failed

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def per_identity(self) -> dict[str, tuple[int, int]]:
        """Mapping identity name -> (pass count, fail count), in result order."""
        return tally(self.results)[0]

    def to_dict(self) -> dict:
        return {
            "summary": {"pass": self.passed, "fail": self.failed},
            "results": [r.to_dict() for r in self.results],
        }


def expand_selection(identities: Sequence[str]) -> tuple[str, ...]:
    """Resolve "all" and validate names, preserving order without duplicates."""
    out: list[str] = []
    for name in identities:
        if name == "all":
            expansion: tuple[str, ...] = EXACT_IDENTITIES
        elif name in _REGISTRY:
            expansion = (name,)
        else:
            known = ", ".join(("all",) + EXACT_IDENTITIES + FLOAT_IDENTITIES)
            raise ValueError(f"unknown identity {name!r}; known: {known}")
        for item in expansion:
            if item not in out:
                out.append(item)
    return tuple(out)


def _plan(entries: list[_Identity], grid: SweepGrid, top: int) -> Iterator[CheckResult]:
    """The results of each entry's sweep in turn, each prefix built once, to top."""
    prefixes: dict[tuple, list] = {}
    for entry in entries:
        tuples = list(entry.valid_tuples(grid.n_max))
        az = range(1, grid.a_max + 1) if SeqKind.GEN_PELL in entry.kinds else (1,)
        for a in az:
            indices = entry.indices(tuples, a)
            for k in range(1, grid.k_max + 1):
                params = SeqParams(k, a)
                # only G depends on a; the other kinds on k alone
                keys = [(kind, params if kind is SeqKind.GEN_PELL else k) for kind in entry.kinds]
                for key in keys:
                    if key not in prefixes:
                        prefixes[key] = prefix(key[0], params, top + 1)
                seqs = map(prefixes.__getitem__, keys)
                yield from starmap(partial(entry.body, *seqs, params), indices)


def _first_overflow(grid: SweepGrid, paper_verbatim: bool) -> None:
    """Raise the error an eigen sweep over the grid meets first, if it meets one.

    ``eigen_product`` refuses an n whose product or P_{n+1} is past a double:
    at each k, every n from some n on.  The sweep runs k outer, n inner, so
    it first meets a refusal at the first k refused at n_max, at the least
    refused n there, which bisection finds.
    """
    from .closed_forms import eigen_product

    def refused(k: int, n: int) -> bool:
        try:
            eigen_product(k, n, paper_verbatim)
        except ValueError:
            return True
        return False

    ns = range(1, grid.n_max + 1)
    for k in range(1, grid.k_max + 1):
        if refused(k, grid.n_max):
            n = ns[bisect_left(ns, True, key=partial(refused, k))]
            eigen_product(k, n, paper_verbatim)  # raises the sweep's error at (k, n)


def sweep(
    grid: SweepGrid = SweepGrid(), identities: Sequence[str] = ("all",)
) -> Iterator[CheckResult]:
    """Every selected check over the grid, one result at a time, in grid order.

    The call settles the plan: the identities with a tuple to check, and the
    largest index they read, which the guard refuses here, before any prefix
    is built or any check runs.  An eigen check past a double is refused here
    too, with the error its sweep would meet first.  Each prefix is built
    once, up to that index, and lives as long as the iterator.
    """
    names = expand_selection(identities)
    selected = map(_REGISTRY.__getitem__, names)
    # any() stops at the first valid tuple, so a refused sweep lists no tuples
    entries = [entry for entry in selected if any(entry.valid_tuples(grid.n_max))]
    if not entries:
        return iter(())
    top = max(entry.top(grid.n_max) for entry in entries)
    guard_index(top)
    for name in names:  # each eigen selection has its tuples: n_max >= 1
        if name in FLOAT_IDENTITIES:
            _first_overflow(grid, name == "eigen-verbatim")
    return _plan(entries, grid, top)


def run_suite(
    grid: SweepGrid = SweepGrid(), identities: Sequence[str] = ("all",)
) -> SuiteReport:
    """Run every selected check over the grid; failures are data, not errors."""
    return SuiteReport(tuple(sweep(grid, identities)))
