"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (visible under ``pytest -v -s`` or in failure output).

Every check here is exact except the eigenvalue criterion, whose tolerance
is stated inline.  Runtime budgets are asserted, not just wished for.
"""

import random
import time
from contextlib import contextmanager
from decimal import localcontext
from fractions import Fraction

from kpell.cli import main
from kpell.digits import EXACT
from kpell.closed_forms import eigen_product, gen_double_sum, pell_binomial
from kpell.quadratic import QuadNum
from kpell.sequences import (
    SeqKind,
    SeqParams,
    gen_binet,
    pell_binet,
    binet_term,
    pell_fast,
    prefix,
    term,
)
from kpell.tridiagonal import (
    DenseMat,
    adjugate,
    bareiss_det,
    det_continuant,
    gen_matrix,
    gen_pell_cofactor,
    pell_cofactor,
    usmani_inverse,
)
from kpell.verify import SweepGrid, check_docagne, run_suite
from test_tridiagonal import (
    band_times,
    paper_gen_cofactor,
    paper_pell_cofactor,
    scaled_identity,
)

SEED = 20260818


@contextmanager
def criterion(name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"FAIL {name} (runtime {elapsed:.2f}s over budget {budget_s:g}s)")
        raise AssertionError(f"{name}: {elapsed:.3f}s exceeds the {budget_s:g}s budget")
    print(f"PASS {name} ({elapsed:.2f}s)")


PELL_TABLE = [
    "0",
    "1",
    "2",
    "k + 4",
    "4k + 8",
    "k^2 + 12k + 16",
    "6k^2 + 32k + 32",
    "k^3 + 24k^2 + 80k + 64",
]
GEN_TABLE = [
    "a",
    "a",
    "ka + 2a",
    "3ka + 4a",
    "k^2a + 8ka + 8a",
    "5k^2a + 20ka + 16a",
    "k^3a + 18k^2a + 48ka + 32a",
    "7k^3a + 56k^2a + 112ka + 64a",
]


def test_criterion_1_symbolic_tables(capsys):
    with criterion("criterion-1 symbolic tables n=0..7", budget_s=1.0):
        for kind, table in (("P", PELL_TABLE), ("G", GEN_TABLE)):
            assert main(["table", "--kind", kind, "--symbolic", "--n-max", "7"]) == 0
            out = capsys.readouterr().out
            assert out.splitlines() == [f"{n}\t{v}" for n, v in enumerate(table)]


def test_criterion_2_determinants_are_terms():
    with criterion("criterion-2 tridiagonal determinant = next term", budget_s=10.0):
        checks = 0
        for kind in SeqKind:
            for k in range(1, 9):
                for a in range(1, 6):
                    params = SeqParams(k, a)
                    terms = prefix(kind, params, 102)
                    for n in range(1, 101):
                        assert (
                            det_continuant(gen_matrix(kind, params, n)) == terms[n + 1]
                        ), f"{kind} k={k} a={a} n={n}"
                        checks += 1
        assert checks == 4 * 8 * 5 * 100


def test_criterion_3_identity_suite():
    with criterion("criterion-3 exact identity suite", budget_s=30.0):
        report = run_suite(SweepGrid(k_max=5, a_max=3, n_max=30))
        assert report.failed == 0, report.failures[:3]
        assert report.passed > 30_000
        # the default grid exercises the perfect-square discriminant at
        # k = 3 (1 + k = 4); cover the other perfect square, k = 8, too
        for a in range(1, 4):
            params = SeqParams(8, a)
            for m in range(1, 31):
                for n in range(m):
                    assert check_docagne(params, m, n).residual_is_zero


def test_criterion_4_closed_forms_match_recurrence():
    with criterion("criterion-4 closed forms vs recurrence n<=200", budget_s=10.0):
        for k in range(1, 9):
            pells = prefix(SeqKind.PELL, SeqParams(k), 202)
            for n in range(2, 201):
                assert pell_binomial(k, n) == pells[n + 1], f"k={k} n={n}"
            for a in range(1, 6):
                params = SeqParams(k, a)
                gens = prefix(SeqKind.GEN_PELL, params, 202)
                for n in range(1, 201):
                    assert gen_double_sum(params, n) == gens[n + 1], f"k={k} a={a} n={n}"


def test_criterion_4_closed_forms_at_scale():
    with criterion("criterion-4 closed forms vs O(log n) routes at n=2*10^4", budget_s=5.0):
        assert pell_binomial(1, 20_000) == pell_fast(1, 20_000)[1]
        params = SeqParams(2, 3)
        assert gen_double_sum(params, 20_001) == gen_binet(params, 20_002)


def _signed_minors(dense):
    n = dense.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = [
                [dense.rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            sign = -1 if (i + j) % 2 else 1
            row.append(sign * bareiss_det(DenseMat(sub)))
        rows.append(row)
    return DenseMat(rows)


def _divided(rows, det):
    return DenseMat([[Fraction(x, det) for x in row] for row in rows])


def test_criterion_5_inverse_and_cofactor_machinery():
    with criterion("criterion-5 exact inverse/cofactor machinery", budget_s=60.0):
        for kind in SeqKind:
            for k in (1, 2, 3):
                for a in (1, 2, 3):
                    params = SeqParams(k, a)
                    for n in range(1, 31):
                        t = gen_matrix(kind, params, n)
                        adj, det = adjugate(t), det_continuant(t)
                        assert band_times(t, adj) == scaled_identity(n, det)
                        inv = usmani_inverse(t)
                        assert inv == _divided(adj.rows, det)
                        if kind is SeqKind.PELL:
                            paper = paper_pell_cofactor(k, n)
                        elif kind is SeqKind.GEN_PELL:
                            paper = paper_gen_cofactor(params, n)
                        else:
                            continue
                        assert _divided(zip(*paper.rows), det) == inv
        for k in (1, 2, 3):
            for a in (1, 2):
                params = SeqParams(k, a)
                for n in range(2, 8):
                    p_dense = gen_matrix(SeqKind.PELL, params, n).to_dense()
                    assert pell_cofactor(k, n) == _signed_minors(p_dense)
                    g_dense = gen_matrix(SeqKind.GEN_PELL, params, n).to_dense()
                    assert gen_pell_cofactor(params, n) == _signed_minors(g_dense)
                for n in range(2, 9):
                    assert bareiss_det(pell_cofactor(k, n)) == term(
                        SeqKind.PELL, params, n + 1
                    ) ** (n - 1)
                    assert bareiss_det(gen_pell_cofactor(params, n)) == term(
                        SeqKind.GEN_PELL, params, n + 1
                    ) ** (n - 1)


def test_criterion_6_eigenvalue_product():
    with criterion("criterion-6 eigenvalue product report", budget_s=1.0):
        for k in range(1, 6):
            for n in range(1, 21):
                report = eigen_product(k, n)
                assert report.rounded == report.exact, f"k={k} n={n}"
                rel = report.abs_residual / report.exact
                assert rel < 1e-9, f"k={k} n={n} rel={rel:.3e}"
        bad = eigen_product(1, 2, paper_verbatim=True)
        assert abs(bad.product.real - 4.25) < 1e-12
        assert abs(bad.product.imag) < 1e-12
        assert bad.exact == 5
        assert not bad.matches


def test_criterion_7_fast_doubling_performance():
    start = time.perf_counter()
    value = pell_fast(1, 10**6)[0]
    elapsed = time.perf_counter() - start
    with criterion("criterion-7 fast doubling at n=10^6", budget_s=None):
        assert elapsed < 5.0, f"pell_fast(1, 10^6) took {elapsed:.2f}s"
        assert value > 0
        overlap = 10**4
        fast_val = pell_fast(1, overlap)[0]
        rec_val = term(SeqKind.PELL, SeqParams(1), overlap)
        assert fast_val == rec_val
        assert fast_val % (1 << 64) == rec_val % (1 << 64)


def test_criterion_7_recurrence_at_scale():
    # G at n = 2*10^5 has ~87,000 digits.  term() walks it 41 terms at a
    # time in ~0.15 s; one step at a time took ~4.4 s (CPython 3.11.7, 2-CPU
    # x86-64 VM).
    params = SeqParams(2, 3)
    with criterion("criterion-7 recurrence at n=2*10^5", budget_s=1.2):
        assert term(SeqKind.GEN_PELL, params, 200_000) == gen_binet(params, 200_000)


def _pell_mod(k, n, mod):
    """P_n mod ``mod`` from [[2, k], [1, 0]]**n, squared in small integers."""
    a, b, c, d = 1, 0, 0, 1  # the running power [[a, b], [c, d]]
    m = (2, k, 1, 0)
    while n:
        if n & 1:
            a, b, c, d = (
                (a * m[0] + b * m[2]) % mod, (a * m[1] + b * m[3]) % mod,
                (c * m[0] + d * m[2]) % mod, (c * m[1] + d * m[3]) % mod,
            )
        m = (
            (m[0] * m[0] + m[1] * m[2]) % mod, (m[0] * m[1] + m[1] * m[3]) % mod,
            (m[2] * m[0] + m[3] * m[2]) % mod, (m[2] * m[1] + m[3] * m[3]) % mod,
        )
        n >>= 1
    return c


def test_criterion_7_decimal_doubling_budget():
    # P_n at n = 3.2*10^6 has ~1.2 million digits.  Two squarings per bit and
    # one product on the last take 0.12-0.15 s; three products per bit took
    # 0.24-0.27 s (CPython 3.11.7, 2-CPU x86-64 VM).  Best of three runs.
    n, params, times = 3_200_000, SeqParams(1), []
    for _ in range(3):
        start = time.perf_counter()
        value = binet_term(SeqKind.PELL, params, n)
        times.append(time.perf_counter() - start)
    with criterion("criterion-7 Decimal doubling at n=3.2*10^6", budget_s=None):
        assert min(times) < 0.18, f"binet_term(P, k=1, n=3.2*10^6) took {min(times):.3f}s"
        with localcontext(EXACT):
            digest = int(value % (1 << 64))
        assert digest == _pell_mod(1, n, 1 << 64)


def _random_quad(rng, d):
    p = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return QuadNum(p, q, d)


def test_criterion_8_randomized_invariants(capsys):
    with criterion("criterion-8 seeded randomized invariants", budget_s=None):
        rng = random.Random(SEED)

        # field axioms on quadratic numbers
        for _ in range(250):
            d = rng.choice((2, 3, 5, 7, 10, 13))
            x, y, z = (_random_quad(rng, d) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x - y + y == x
            if y:
                assert (x / y) * y == x
            m, e = rng.randint(0, 5), rng.randint(0, 5)
            assert x**m * x**e == x ** (m + e)

        # canonicalization: a perfect-square discriminant folds to a rational
        for _ in range(120):
            root = rng.randint(1, 12)
            p = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            q = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            folded = QuadNum(p, q, root * root)
            assert folded.is_rational
            assert folded == QuadNum(p + q * root)

        # evaluation routes agree wherever more than one applies
        for _ in range(120):
            k = rng.randint(1, 8)
            a = rng.randint(1, 5)
            n = rng.randint(0, 300)
            params = SeqParams(k, a)
            p_ref = term(SeqKind.PELL, SeqParams(k), n)
            assert pell_binet(k, n) == p_ref
            assert pell_fast(k, n)[0] == p_ref
            if n >= 3:
                assert pell_binomial(k, n - 1) == p_ref
            g_ref = term(SeqKind.GEN_PELL, params, n)
            assert gen_binet(params, n) == g_ref
            if n >= 2:
                assert gen_double_sum(params, n - 1) == g_ref

        # exit-code contract: 0 clean, 1 verified mismatch, 2 usage error
        for _ in range(40):
            k = rng.randint(1, 5)
            n = rng.randint(0, 50)
            assert main(["eval", "--kind", "P", "--k", str(k), "--n", str(n)]) == 0
            assert (
                main(["eval", "--kind", "G", "--k", str(k), "--n", str(n), "--method", "fast"])
                == 2
            )
        assert main(["eigen", "--k", "1", "--n", "2", "--paper-verbatim"]) == 1
        assert main(["matrix", "--kind", "P", "--k", "1", "--n", "0"]) == 2
        capsys.readouterr()  # drop accumulated CLI output
