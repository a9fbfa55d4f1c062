"""Identity checks with exact residuals, plus grid sweeps over parameters.

Each ``check_*`` function evaluates both sides of one identity and returns a
CheckResult rather than asserting, so callers can render counterexamples.
``run_suite`` sweeps selected checks over a parameter grid and reports
per-identity pass/fail counts.  The two eigenvalue checks are floating-point
cross-checks and are therefore *not* part of the ``"all"`` selection, whose
checks are exact; they must be selected by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .closed_forms import eigen_product
from .digits import to_str
from .quadratic import QuadNum, quad_roots
from .sequences import SeqKind, SeqParams, prefix, term
from .tridiagonal import bareiss_det, gen_pell_cofactor, pell_cofactor


@dataclass(frozen=True)
class CheckResult:
    """One identity evaluated at one parameter tuple, both sides exact."""

    identity_name: str
    inputs: Mapping[str, object]
    lhs: object
    rhs: object

    @property
    def residual_is_zero(self) -> bool:
        return self.lhs == self.rhs

    def to_dict(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "inputs": dict(self.inputs),
            "lhs": to_str(self.lhs),
            "rhs": to_str(self.rhs),
            "residual_is_zero": self.residual_is_zero,
        }


def _gen(params: SeqParams, n: int) -> int:
    return term(SeqKind.GEN_PELL, params, n)


def _pell(k: int, n: int) -> int:
    return term(SeqKind.PELL, SeqParams(k), n)


def check_catalan(params: SeqParams, n: int, r: int) -> CheckResult:
    """G_{n-r}*G_{n+r} - G_n**2 = (-k)**(n-r) * (G_r**2 - a**2*(-k)**r)."""
    if not (isinstance(n, int) and isinstance(r, int) and n >= r >= 1):
        raise ValueError(f"need n >= r >= 1, got n={n!r}, r={r!r}")
    a, k = params.a, params.k
    lhs = _gen(params, n - r) * _gen(params, n + r) - _gen(params, n) ** 2
    rhs = (-k) ** (n - r) * (_gen(params, r) ** 2 - a * a * (-k) ** r)
    return CheckResult("catalan", {"a": a, "k": k, "n": n, "r": r}, lhs, rhs)


def check_cassini(params: SeqParams, n: int) -> CheckResult:
    """G_{n-1}*G_{n+1} - G_n**2 = a**2 * (-k)**(n-1) * (1+k)."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"need n >= 1, got {n!r}")
    a, k = params.a, params.k
    lhs = _gen(params, n - 1) * _gen(params, n + 1) - _gen(params, n) ** 2
    rhs = a * a * (-k) ** (n - 1) * (1 + k)
    return CheckResult("cassini", {"a": a, "k": k, "n": n}, lhs, rhs)


def check_docagne(params: SeqParams, m: int, n: int) -> CheckResult:
    """G_m*G_{n+1} - G_{m+1}*G_n against its closed form in Q(sqrt(1+k)).

    The right side is a*(-1)**n * k**n * sqrt(1+k) * (G_{m-n} - a*r1**(m-n)),
    irrational termwise for non-square 1+k, so both sides are compared as
    exact QuadNum values.
    """
    if not (isinstance(m, int) and isinstance(n, int) and m > n >= 0):
        raise ValueError(f"need m > n >= 0, got m={m!r}, n={n!r}")
    a, k = params.a, params.k
    d = 1 + k
    lhs_int = _gen(params, m) * _gen(params, n + 1) - _gen(params, m + 1) * _gen(params, n)
    lhs = QuadNum(lhs_int, 0, d)
    r1, _ = quad_roots(k)
    root = QuadNum(0, 1, d)
    scale = a * (-1) ** n * k**n
    rhs = scale * root * (QuadNum(_gen(params, m - n), 0, d) - a * r1 ** (m - n))
    return CheckResult("docagne", {"a": a, "k": k, "m": m, "n": n}, lhs, rhs)


def check_convolution1(k: int, n: int, m: int) -> CheckResult:
    """P_{n+m} = k*P_{n-1}*P_m + P_n*P_{m+1}."""
    if not (isinstance(n, int) and isinstance(m, int) and n >= 1 and m >= 1):
        raise ValueError(f"need n, m >= 1, got n={n!r}, m={m!r}")
    lhs = _pell(k, n + m)
    rhs = k * _pell(k, n - 1) * _pell(k, m) + _pell(k, n) * _pell(k, m + 1)
    return CheckResult("convolution1", {"k": k, "n": n, "m": m}, lhs, rhs)


def check_convolution2(k: int, n: int, m: int) -> CheckResult:
    """2*P_{n+m} = P_{n+1}*P_{m+1} - k**2*P_{m-1}*P_{n-1}."""
    if not (isinstance(n, int) and isinstance(m, int) and n >= 1 and m >= 1):
        raise ValueError(f"need n, m >= 1, got n={n!r}, m={m!r}")
    lhs = 2 * _pell(k, n + m)
    rhs = _pell(k, n + 1) * _pell(k, m + 1) - k * k * _pell(k, m - 1) * _pell(k, n - 1)
    return CheckResult("convolution2", {"k": k, "n": n, "m": m}, lhs, rhs)


def check_squares(k: int, n: int) -> tuple[CheckResult, CheckResult]:
    """Both square identities at once:

    P_{n+1}**2 + k*P_n**2 = P_{2n+1}  and  P_{n+1}**2 - k**2*P_{n-1}**2 = 2*P_{2n}.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"need n >= 1, got {n!r}")
    P = prefix(SeqKind.PELL, SeqParams(k), 2 * n + 2)
    first = CheckResult(
        "squares1", {"k": k, "n": n}, P[n + 1] ** 2 + k * P[n] ** 2, P[2 * n + 1]
    )
    second = CheckResult(
        "squares2", {"k": k, "n": n}, P[n + 1] ** 2 - k * k * P[n - 1] ** 2, 2 * P[2 * n]
    )
    return first, second


def check_partition(params: SeqParams, n: int, i: int) -> CheckResult:
    """G_{n+1} = k*G_i*P_{n-i} + G_{i+1}*P_{n+1-i}, for every 1 <= i <= n."""
    if not (isinstance(n, int) and isinstance(i, int) and 1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i!r}, n={n!r}")
    a, k = params.a, params.k
    lhs = _gen(params, n + 1)
    rhs = k * _gen(params, i) * _pell(k, n - i) + _gen(params, i + 1) * _pell(k, n + 1 - i)
    return CheckResult("partition", {"a": a, "k": k, "n": n, "i": i}, lhs, rhs)


def check_cofactor_dets(params: SeqParams, n: int) -> tuple[CheckResult, CheckResult]:
    """det of both cofactor matrices against the sequence-term powers.

    |C_n| = P_{n+1}**(n-1) and |D_n| = G_{n+1}**(n-1), evaluated by exact
    fraction-free elimination on the constructed matrices.
    """
    if not (isinstance(n, int) and 2 <= n <= 8):
        raise ValueError(f"need 2 <= n <= 8 (bignum growth guard), got {n!r}")
    a, k = params.a, params.k
    c_det = bareiss_det(pell_cofactor(k, n))
    d_det = bareiss_det(gen_pell_cofactor(params, n))
    c_result = CheckResult(
        "cofactor-dets", {"matrix": "C", "k": k, "n": n}, c_det, _pell(k, n + 1) ** (n - 1)
    )
    d_result = CheckResult(
        "cofactor-dets",
        {"matrix": "D", "a": a, "k": k, "n": n},
        d_det,
        _gen(params, n + 1) ** (n - 1),
    )
    return c_result, d_result


def check_eigen(k: int, n: int, paper_verbatim: bool = False) -> CheckResult:
    """Rounded eigenvalue product against the exact term (floating point)."""
    report = eigen_product(k, n, paper_verbatim)
    name = "eigen-verbatim" if paper_verbatim else "eigen"
    inputs = {
        "k": k,
        "n": n,
        "product": f"{report.product.real:.6f}{report.product.imag:+.6f}i",
        "abs_residual": f"{report.abs_residual:.6f}",
    }
    return CheckResult(name, inputs, report.rounded, report.exact)


EXACT_IDENTITIES: tuple[str, ...] = (
    "catalan",
    "cassini",
    "docagne",
    "convolution1",
    "convolution2",
    "squares1",
    "squares2",
    "partition",
    "cofactor-dets",
)

FLOAT_IDENTITIES: tuple[str, ...] = ("eigen", "eigen-verbatim")


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive upper bounds for the sweep parameters."""

    k_max: int = 5
    a_max: int = 3
    n_max: int = 30

    def __post_init__(self) -> None:
        for name in ("k_max", "a_max", "n_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")


def _sweep_one(identity: str, grid: SweepGrid) -> Iterator[CheckResult]:
    ks = range(1, grid.k_max + 1)
    az = range(1, grid.a_max + 1)
    ns = range(1, grid.n_max + 1)
    if identity == "catalan":
        for a in az:
            for k in ks:
                p = SeqParams(k, a)
                for n in ns:
                    for r in range(1, n + 1):
                        yield check_catalan(p, n, r)
    elif identity == "cassini":
        for a in az:
            for k in ks:
                p = SeqParams(k, a)
                for n in ns:
                    yield check_cassini(p, n)
    elif identity == "docagne":
        for a in az:
            for k in ks:
                p = SeqParams(k, a)
                for m in ns:
                    for n in range(0, m):
                        yield check_docagne(p, m, n)
    elif identity == "convolution1":
        for k in ks:
            for n in ns:
                for m in ns:
                    yield check_convolution1(k, n, m)
    elif identity == "convolution2":
        for k in ks:
            for n in ns:
                for m in ns:
                    yield check_convolution2(k, n, m)
    elif identity == "squares1":
        for k in ks:
            for n in ns:
                yield check_squares(k, n)[0]
    elif identity == "squares2":
        for k in ks:
            for n in ns:
                yield check_squares(k, n)[1]
    elif identity == "partition":
        for a in az:
            for k in ks:
                p = SeqParams(k, a)
                for n in ns:
                    for i in range(1, n + 1):
                        yield check_partition(p, n, i)
    elif identity == "cofactor-dets":
        for a in az:
            for k in ks:
                p = SeqParams(k, a)
                for n in range(2, min(8, grid.n_max) + 1):
                    c_res, d_res = check_cofactor_dets(p, n)
                    if a == 1:
                        yield c_res  # C_n does not depend on a
                    yield d_res
    elif identity in FLOAT_IDENTITIES:
        verbatim = identity == "eigen-verbatim"
        for k in ks:
            for n in ns:
                yield check_eigen(k, n, verbatim)
    else:
        raise ValueError(f"unknown identity {identity!r}")


@dataclass(frozen=True)
class SuiteReport:
    """All results of one sweep, in deterministic grid order."""

    results: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.residual_is_zero)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.residual_is_zero)

    def per_identity(self) -> dict[str, tuple[int, int]]:
        """Mapping identity name -> (pass count, fail count), in result order."""
        counts: dict[str, list[int]] = {}
        for r in self.results:
            slot = counts.setdefault(r.identity_name, [0, 0])
            slot[0 if r.residual_is_zero else 1] += 1
        return {name: (p, f) for name, (p, f) in counts.items()}

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
        elif name in EXACT_IDENTITIES or name in FLOAT_IDENTITIES:
            expansion = (name,)
        else:
            known = ", ".join(("all",) + EXACT_IDENTITIES + FLOAT_IDENTITIES)
            raise ValueError(f"unknown identity {name!r}; known: {known}")
        for item in expansion:
            if item not in out:
                out.append(item)
    return tuple(out)


def run_suite(
    grid: SweepGrid = SweepGrid(), identities: Sequence[str] = ("all",)
) -> SuiteReport:
    """Run every selected check over the grid; failures are data, not errors."""
    selected = expand_selection(identities)
    results: list[CheckResult] = []
    for identity in selected:
        results.extend(_sweep_one(identity, grid))
    return SuiteReport(tuple(results))
