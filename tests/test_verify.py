import json
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell import verify
from kpell.quadratic import QuadNum, quad_roots
from kpell.sequences import SeqKind, SeqParams, prefix, term
from kpell.verify import (
    EXACT_IDENTITIES,
    FLOAT_IDENTITIES,
    CheckResult,
    SuiteReport,
    SweepGrid,
    check_cassini,
    check_catalan,
    check_cofactor_dets,
    check_convolution1,
    check_convolution2,
    check_docagne,
    check_eigen,
    check_partition,
    check_squares,
    expand_selection,
    run_suite,
)

ks = st.integers(min_value=1, max_value=5)
as_ = st.integers(min_value=1, max_value=4)
ns = st.integers(min_value=1, max_value=25)


class TestSingleChecks:
    def test_catalan_example(self):
        res = check_catalan(SeqParams(1, 2), n=5, r=2)
        assert res.identity_name == "catalan"
        assert res.lhs == res.rhs
        assert res.residual_is_zero
        assert res.inputs == {"k": 1, "a": 2, "n": 5, "r": 2}

    def test_catalan_needs_r_at_most_n(self):
        with pytest.raises(ValueError):
            check_catalan(SeqParams(1, 1), n=2, r=3)
        with pytest.raises(ValueError):
            check_catalan(SeqParams(1, 1), n=2, r=0)

    @given(ks, as_, ns, st.data())
    def test_catalan_sweep(self, k, a, n, data):
        r = data.draw(st.integers(min_value=1, max_value=n))
        assert check_catalan(SeqParams(k, a), n, r).residual_is_zero

    def test_catalan_at_r_one_is_cassini(self):
        params = SeqParams(3, 2)
        for n in range(1, 12):
            cat = check_catalan(params, n, 1)
            cas = check_cassini(params, n)
            assert cat.lhs == cas.lhs and cat.rhs == cas.rhs

    @given(ks, as_, ns)
    def test_cassini_sweep(self, k, a, n):
        res = check_cassini(SeqParams(k, a), n)
        assert res.residual_is_zero
        # rhs is a^2 (-k)^(n-1) (1+k)
        assert res.rhs == a * a * (-k) ** (n - 1) * (1 + k)

    def test_cassini_domain(self):
        with pytest.raises(ValueError):
            check_cassini(SeqParams(1, 1), 0)

    def test_docagne_example(self):
        # the rhs is built from irrational pieces, but they cancel: both
        # sides land on the same integer
        res = check_docagne(SeqParams(2, 1), m=4, n=1)
        assert res.residual_is_zero
        assert res.lhs == res.rhs == 36
        assert type(res.lhs) is int and type(res.rhs) is int

    @given(ks, as_, st.integers(min_value=1, max_value=18), st.data())
    def test_docagne_sweep(self, k, a, m, data):
        n = data.draw(st.integers(min_value=0, max_value=m - 1))
        assert check_docagne(SeqParams(k, a), m, n).residual_is_zero

    def test_docagne_needs_m_above_n(self):
        with pytest.raises(ValueError):
            check_docagne(SeqParams(1, 1), m=3, n=3)

    def test_docagne_adjacent_negates_cassini(self):
        # lhs at (m, n) = (n+1, n) is G_{n+1}^2 - G_{n+2} G_n: the cassini
        # lhs with its sign flipped.
        params = SeqParams(2, 3)
        for n in range(1, 10):
            doc = check_docagne(params, n + 1, n)
            cas = check_cassini(params, n + 1)
            assert doc.lhs == -cas.lhs

    @given(ks, ns, ns)
    def test_convolutions(self, k, n, m):
        assert check_convolution1(k, n, m).residual_is_zero
        assert check_convolution2(k, n, m).residual_is_zero

    def test_convolution1_examples(self):
        assert check_convolution1(1, 2, 3).rhs == 29  # P_5
        assert check_convolution1(1, 1, 1).rhs == 2
        assert check_convolution1(2, 2, 2).rhs == 16

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    def test_convolution1_matches_direct_term_and_is_symmetric(self, k, n, m):
        value = check_convolution1(k, n, m).rhs
        assert value == term(SeqKind.PELL, SeqParams(k), n + m)
        assert value == check_convolution1(k, m, n).rhs

    def test_convolution1_rejects_zero_indices(self):
        with pytest.raises(ValueError):
            check_convolution1(1, 0, 1)
        with pytest.raises(ValueError):
            check_convolution1(1, 1, 0)

    def test_convolution_domains(self):
        with pytest.raises(ValueError):
            check_convolution1(1, 0, 1)
        with pytest.raises(ValueError):
            check_convolution2(1, 1, 0)

    @given(ks, ns)
    def test_squares(self, k, n):
        first, second = check_squares(k, n)
        assert first.identity_name == "squares1"
        assert second.identity_name == "squares2"
        assert first.residual_is_zero and second.residual_is_zero
        assert first.rhs == term(SeqKind.PELL, SeqParams(k), 2 * n + 1)

    @given(ks, as_, ns, st.data())
    def test_partition(self, k, a, n, data):
        i = data.draw(st.integers(min_value=1, max_value=n))
        res = check_partition(SeqParams(k, a), n, i)
        assert res.residual_is_zero
        assert res.lhs == term(SeqKind.GEN_PELL, SeqParams(k, a), n + 1)

    def test_partition_split_range(self):
        with pytest.raises(ValueError):
            check_partition(SeqParams(1, 1), n=4, i=5)
        with pytest.raises(ValueError):
            check_partition(SeqParams(1, 1), n=4, i=0)

    def test_cofactor_dets(self):
        c_res, d_res = check_cofactor_dets(SeqParams(1, 1), 3)
        assert c_res.inputs["matrix"] == "C"
        assert d_res.inputs["matrix"] == "D"
        assert c_res.lhs == 144 and d_res.lhs == 289
        assert c_res.residual_is_zero and d_res.residual_is_zero

    def test_cofactor_dets_window(self):
        for bad in (1, 9):
            with pytest.raises(ValueError):
                check_cofactor_dets(SeqParams(1, 1), bad)

    def test_eigen_corrected_and_verbatim(self):
        good = check_eigen(1, 2)
        assert good.residual_is_zero
        assert good.lhs == good.rhs == 5
        bad = check_eigen(1, 2, paper_verbatim=True)
        assert not bad.residual_is_zero
        assert bad.identity_name == "eigen-verbatim"
        assert "0.750000" in bad.inputs["abs_residual"]


class TestResultShape:
    def test_to_dict_round_trips_json(self):
        res = check_cassini(SeqParams(2, 3), 4)
        blob = json.dumps(res.to_dict())
        back = json.loads(blob)
        assert back["identity_name"] == "cassini"
        assert back["residual_is_zero"] is True
        assert back["inputs"] == {"k": 2, "a": 3, "n": 4}
        assert back["lhs"] == str(res.lhs) and back["rhs"] == str(res.rhs)

    def test_to_dict_renders_past_the_default_digit_limit(self, int_str_limit):
        int_str_limit(4300)
        res = check_convolution1(1, 6000, 6000)
        d = res.to_dict()
        assert d["residual_is_zero"] is True
        int_str_limit(0)
        assert d["lhs"] == d["rhs"] == str(res.lhs)
        assert len(d["lhs"]) == 4593

    def test_docagne_to_dict_renders_past_the_default_digit_limit(self, int_str_limit):
        int_str_limit(4300)
        d = check_docagne(SeqParams(1), 12000, 1).to_dict()
        assert d["residual_is_zero"] is True and d["lhs"] == d["rhs"]
        assert len(d["lhs"].lstrip("-")) > 4300

    def test_repr_past_the_default_digit_limit(self, int_str_limit):
        res = CheckResult("cassini", {"a": 1}, 10**5000, QuadNum(1, -(10**5000), 2))
        int_str_limit(0)
        want = (
            f"CheckResult(identity_name='cassini', inputs={{'a': 1}}, lhs={res.lhs!r}, "
            f"rhs=QuadNum(Fraction(1, 1), {res.rhs.root_coeff!r}, d=2))"
        )
        int_str_limit(4300)
        assert repr(res) == want
        small = CheckResult("docagne", {"m": 2, "n": 0}, -3, QuadNum(1, -2, 2))
        assert repr(small) == (
            "CheckResult(identity_name='docagne', inputs={'m': 2, 'n': 0}, lhs=-3, "
            "rhs=QuadNum(Fraction(1, 1), Fraction(-2, 1), d=2))"
        )

    def test_quadratic_sides_serialize_as_text(self):
        res = check_docagne(SeqParams(1, 1), m=2, n=0)
        d = res.to_dict()
        assert isinstance(d["lhs"], str) and isinstance(d["rhs"], str)


class TestSelection:
    def test_all_expands_in_registry_order(self):
        assert expand_selection(("all",)) == EXACT_IDENTITIES

    def test_dedup_preserves_order(self):
        assert expand_selection(("cassini", "catalan", "cassini")) == ("cassini", "catalan")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown identity"):
            expand_selection(("cassini", "nope"))

    def test_float_names_are_opt_in(self):
        assert "eigen" not in EXACT_IDENTITIES
        assert "eigen-verbatim" not in EXACT_IDENTITIES
        assert expand_selection(("eigen",)) == ("eigen",)
        assert set(FLOAT_IDENTITIES) == {"eigen", "eigen-verbatim"}


class TestSuite:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(k_max=0)
        with pytest.raises(ValueError):
            SweepGrid(n_max=0)

    def test_small_grid_all_pass(self):
        report = run_suite(SweepGrid(k_max=2, a_max=2, n_max=8))
        assert report.all_passed
        assert report.failed == 0
        assert report.passed == len(report.results) == 794

    def test_deterministic(self):
        grid = SweepGrid(k_max=2, a_max=2, n_max=6)
        first = run_suite(grid)
        second = run_suite(grid)
        assert first.to_dict() == second.to_dict()

    def test_per_identity_counts(self):
        report = run_suite(SweepGrid(k_max=1, a_max=1, n_max=5), identities=("cassini", "squares1"))
        buckets = report.per_identity()
        assert set(buckets) == {"cassini", "squares1"}
        assert all(failed == 0 and passed > 0 for (passed, failed) in buckets.values())

    def test_empty_selection_is_empty_report(self):
        report = run_suite(SweepGrid(), identities=())
        assert report.results == ()
        assert report.all_passed  # vacuously

    def test_eigen_verbatim_fails_at_every_order_above_one(self):
        report = run_suite(SweepGrid(k_max=5, a_max=1, n_max=5), identities=("eigen-verbatim",))
        failed_n = {res.inputs["n"] for res in report.failures}
        assert failed_n == {2, 3, 4, 5}

    def test_to_dict_shape(self):
        report = run_suite(SweepGrid(k_max=1, a_max=1, n_max=3), identities=("convolution1",))
        d = report.to_dict()
        assert d["summary"] == {"pass": report.passed, "fail": 0}
        assert all(row["identity_name"] == "convolution1" for row in d["results"])

    def test_verdict_is_decided_once_per_result(self):
        class Counted:
            def __init__(self, value):
                self.value, self.calls = value, 0

            def __eq__(self, other):
                self.calls += 1
                return self.value == other

        sides = [Counted(1), Counted(2), Counted(3)]
        report = SuiteReport(
            tuple(CheckResult("x", {"n": n}, side, 1) for n, side in enumerate(sides))
        )
        for _ in range(2):
            assert (report.passed, report.failed, report.all_passed) == (1, 2, False)
            assert [r.inputs["n"] for r in report.failures] == [1, 2]
            assert report.per_identity() == {"x": (1, 2)}
            assert report.to_dict()["summary"] == {"pass": 1, "fail": 2}
        assert [side.calls for side in sides] == [1, 1, 1]


def _reference_sweep(identity, grid):
    """The sweep's grid order, written out with the public check functions."""
    ks = range(1, grid.k_max + 1)
    az = range(1, grid.a_max + 1)
    ns = range(1, grid.n_max + 1)
    ps = [SeqParams(k, a) for a in az for k in ks]
    conv = {"convolution1": check_convolution1, "convolution2": check_convolution2}
    if identity == "catalan":
        return [check_catalan(p, n, r) for p in ps for n in ns for r in range(1, n + 1)]
    if identity == "cassini":
        return [check_cassini(p, n) for p in ps for n in ns]
    if identity == "docagne":
        return [check_docagne(p, m, n) for p in ps for m in ns for n in range(m)]
    if identity in conv:
        return [conv[identity](k, n, m) for k in ks for n in ns for m in ns]
    if identity in ("squares1", "squares2"):
        return [check_squares(k, n)[identity == "squares2"] for k in ks for n in ns]
    if identity == "partition":
        return [check_partition(p, n, i) for p in ps for n in ns for i in range(1, n + 1)]
    assert identity == "cofactor-dets"
    out = []
    for p in ps:
        for n in range(2, min(8, grid.n_max) + 1):
            c_res, d_res = check_cofactor_dets(p, n)
            out += [c_res, d_res] if p.a == 1 else [d_res]
    return out


class TestSharedPrefixes:
    """The sweep reads shared prefixes; a check_* call reads terms through term()."""

    @pytest.mark.parametrize("identity", EXACT_IDENTITIES)
    def test_sweep_equals_per_check_results(self, identity):
        grid = SweepGrid(k_max=4, a_max=2, n_max=9)  # k = 3: perfect-square 1+k
        swept = [r.to_dict() for r in run_suite(grid, (identity,)).results]
        assert swept == [r.to_dict() for r in _reference_sweep(identity, grid)]

    @pytest.mark.parametrize("identity", EXACT_IDENTITIES)
    def test_perturbed_term_breaks_a_residual(self, identity):
        # Each side is computed on its own: a wrong term shows as a residual.
        entry = verify._REGISTRY[identity]
        n_max, params = 8, SeqParams(2, 1)  # a = 1 sweeps both cofactor matrices
        top = entry.top(n_max)
        clean = [prefix(kind, params, top + 1) for kind in entry.kinds]
        indices = entry.indices(list(entry.valid_tuples(n_max)), params.a)

        def all_zero(seqs):
            return all(entry.body(*seqs, params, *index).residual_is_zero for index in indices)

        assert all_zero(clean)
        for which in range(len(clean)):
            for pos in range(3, n_max + 1):
                seqs = [s.copy() for s in clean]
                seqs[which][pos] += 1
                assert not all_zero(seqs), (which, pos)

    def test_sweep_computes_each_root_power_once(self, monkeypatch):
        # d'Ocagne's root powers q_j + P_j*sqrt(1+k) come from one q prefix and
        # one P prefix per k, each up to 13, the largest index the sweep reads
        calls = []

        def counted(kind, params, n):
            calls.append((kind, params.k, n))
            return prefix(kind, params, n)

        monkeypatch.setattr(verify, "prefix", counted)
        report = run_suite(SweepGrid(k_max=3, a_max=3, n_max=12), ("docagne",))
        assert report.all_passed and len(report.results) == 3 * 3 * 78
        for kind in (SeqKind.MODIFIED_PELL, SeqKind.PELL):
            assert [c for c in calls if c[0] is kind] == [(kind, k, 14) for k in (1, 2, 3)]

    def test_sweep_builds_each_pell_prefix_once_per_k(self, monkeypatch):
        calls = []

        def counted(kind, params, n):
            calls.append((kind, params))
            return prefix(kind, params, n)

        monkeypatch.setattr(verify, "prefix", counted)
        report = run_suite(SweepGrid(k_max=4, a_max=3, n_max=6), ("partition",))
        assert report.all_passed
        # P does not depend on a: one prefix per k, G one per (k, a)
        assert sum(kind is SeqKind.PELL for kind, _ in calls) == 4
        assert sum(kind is SeqKind.GEN_PELL for kind, _ in calls) == 4 * 3

    # the largest index each identity's sweep reads at n_max = 10
    TOPS = {
        "catalan": 20,
        "cassini": 11,
        "docagne": 11,
        "convolution1": 20,
        "convolution2": 20,
        "squares1": 21,
        "squares2": 20,
        "partition": 11,
        "cofactor-dets": 9,
        "eigen": 11,
        "eigen-verbatim": 11,
    }

    def test_guard_covers_every_identity(self):
        assert set(self.TOPS) == set(verify._REGISTRY)

    @pytest.mark.parametrize("identity, top", TOPS.items())
    def test_guard_refuses_the_largest_index_read(self, monkeypatch, identity, top):
        grid = SweepGrid(k_max=1, a_max=1, n_max=10)
        monkeypatch.setenv("KPELL_GUARD_N", str(top))
        run_suite(grid, (identity,))
        monkeypatch.setenv("KPELL_GUARD_N", str(top - 1))
        with pytest.raises(ValueError, match="KPELL_GUARD_N"):
            run_suite(grid, (identity,))

    def test_squares_sweep_and_check_share_the_guard(self, monkeypatch):
        # both read P_{2n+1} = P_21 at n = 10
        grid = SweepGrid(k_max=1, a_max=1, n_max=10)
        monkeypatch.setenv("KPELL_GUARD_N", "20")
        with pytest.raises(ValueError, match="KPELL_GUARD_N"):
            check_squares(1, 10)
        with pytest.raises(ValueError, match="KPELL_GUARD_N"):
            run_suite(grid, ("squares1", "squares2"))
        monkeypatch.setenv("KPELL_GUARD_N", "21")
        assert all(r.residual_is_zero for r in check_squares(1, 10))
        assert run_suite(grid, ("squares1", "squares2")).all_passed

    def test_single_check_holds_no_prefix(self):
        # a prefix up to n = 20000 would hold ~30 MB of terms
        tracemalloc.start()
        try:
            assert check_cassini(SeqParams(1), 20_000).residual_is_zero
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_no_guard_read_without_a_check(self, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "-1")  # invalid: any guard read raises
        assert run_suite(SweepGrid(n_max=1), ("cofactor-dets",)).results == ()

    def test_guard_refuses_before_listing_tuples(self, monkeypatch):
        entry = verify._REGISTRY["catalan"]
        arity, valid, rule = entry.domain
        tested = []

        def counted(*index):
            tested.append(index)
            return valid(*index)

        counted_entry = entry._replace(domain=(arity, counted, rule))
        monkeypatch.setitem(verify._REGISTRY, "catalan", counted_entry)
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        with pytest.raises(ValueError, match="KPELL_GUARD_N"):
            run_suite(SweepGrid(k_max=1, a_max=1, n_max=300), ("catalan",))
        # the first valid tuple, (1, 1), is the 303rd of 301**2 candidates
        assert len(tested) == 303

    @pytest.mark.parametrize(
        "identity", [name for name, entry in verify._REGISTRY.items() if entry.kinds]
    )
    def test_top_is_the_largest_index_the_body_reads(self, identity):
        entry = verify._REGISTRY[identity]
        for n_max in range(1, 13):
            tuples = list(entry.valid_tuples(n_max))
            if not tuples:
                continue
            for k, a in ((1, 1), (2, 2)):
                params, read = SeqParams(k, a), []
                seqs = [_Recorded(prefix(kind, params, 4 * n_max), read) for kind in entry.kinds]
                for index in entry.indices(tuples, a):
                    entry.body(*seqs, params, *index)
                # a negative index would read from the end without an error
                assert min(read) >= 0 and max(read) == entry.top(n_max), (n_max, k, a)

    def test_refused_selection_builds_and_checks_nothing(self, monkeypatch):
        # catalan reads G_40 at n_max = 20; cassini, listed first, only G_21
        built, checked = [], []

        def counted_prefix(kind, params, n):
            built.append((kind, params, n))
            return prefix(kind, params, n)

        entry = verify._REGISTRY["cassini"]

        def counted_body(*args):
            checked.append(args)
            return entry.body(*args)

        monkeypatch.setattr(verify, "prefix", counted_prefix)
        monkeypatch.setitem(verify._REGISTRY, "cassini", entry._replace(body=counted_body))
        monkeypatch.setenv("KPELL_GUARD_N", "30")
        grid, selection = SweepGrid(1, 1, 20), ("cassini", "catalan")
        with pytest.raises(ValueError, match="KPELL_GUARD_N"):
            run_suite(grid, selection)
        with pytest.raises(ValueError, match=r"^n=40 exceeds"):
            verify.sweep(grid, selection)  # at the call, before any next()
        assert built == [] and checked == []


class _Recorded(list):
    """A prefix that records each index read from it."""

    def __init__(self, terms, read):
        super().__init__(terms)
        self.read = read

    def __getitem__(self, n):
        self.read.append(n)
        return super().__getitem__(n)


_PAIRS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
_SQUARE = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
_SINGLES = [(1,), (2,), (3,)]
# Each identity's sweep index tuples at n_max = 3, for a = 1 and for a = 2.
SWEEP_INDICES = {
    "catalan": (_PAIRS, _PAIRS),
    "cassini": (_SINGLES, _SINGLES),
    "docagne": ([(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],) * 2,
    "convolution1": (_SQUARE, _SQUARE),
    "convolution2": (_SQUARE, _SQUARE),
    "squares1": (_SINGLES, _SINGLES),
    "squares2": (_SINGLES, _SINGLES),
    "partition": (_PAIRS, _PAIRS),
    "cofactor-dets": ([(2, "C"), (2, "D"), (3, "C"), (3, "D")], [(2, "D"), (3, "D")]),
    "eigen": (_SINGLES, _SINGLES),
    "eigen-verbatim": (_SINGLES, _SINGLES),
}

# (check, the arguments before the indices, indices just inside the domain,
# indices just outside it, and the ValueError text of the first of those)
CHECK_DOMAINS = [
    (check_catalan, (SeqParams(1, 2),), (2, 2), [(2, 3), (2, 0)],
     "need n >= r >= 1, got n=2, r=3"),
    (check_cassini, (SeqParams(1, 2),), (1,), [(0,)], "need n >= 1, got 0"),
    (check_docagne, (SeqParams(1, 2),), (1, 0), [(1, 1), (1, -1)],
     "need m > n >= 0, got m=1, n=1"),
    (check_convolution1, (2,), (1, 1), [(0, 1), (1, 0)], "need n, m >= 1, got n=0, m=1"),
    (check_convolution2, (2,), (1, 1), [(1, 0), (0, 1)], "need n, m >= 1, got n=1, m=0"),
    (check_squares, (2,), (1,), [(0,)], "need n >= 1, got 0"),
    (check_partition, (SeqParams(1, 2),), (2, 2), [(2, 3), (2, 0)],
     "need 1 <= i <= n, got i=3, n=2"),
    (check_cofactor_dets, (SeqParams(1, 2),), (8,), [(9,), (1,)],
     "need 2 <= n <= 8 (bignum growth guard), got 9"),
    (check_eigen, (2,), (1,), [(0,)], "matrix order must be >= 1, got 0"),
]


class TestRegistry:
    """Each identity states its domain once: the sweep's index tuples and the checks' ValueError."""

    def test_every_identity_is_pinned(self):
        assert list(SWEEP_INDICES) == list(verify._REGISTRY)

    @pytest.mark.parametrize("identity", SWEEP_INDICES)
    def test_sweep_indices_are_pinned(self, identity):
        entry = verify._REGISTRY[identity]
        tuples = list(entry.valid_tuples(3))
        assert [entry.indices(tuples, a) for a in (1, 2)] == list(SWEEP_INDICES[identity])

    @pytest.mark.parametrize(
        "check, before, inside, outside, message",
        CHECK_DOMAINS,
        ids=[domain[0].__name__ for domain in CHECK_DOMAINS],
    )
    def test_checks_refuse_indices_outside_their_domain(
        self, check, before, inside, outside, message
    ):
        result = check(*before, *inside)
        for res in (result,) if isinstance(result, CheckResult) else result:
            assert res.residual_is_zero
        with pytest.raises(ValueError) as refused:
            check(*before, *outside[0])
        assert str(refused.value) == message
        for index in outside[1:]:
            with pytest.raises(ValueError):
                check(*before, *index)
        for pos in range(len(inside)):  # each index in turn as a float, then a string
            for wrong in (float(inside[pos]), str(inside[pos])):
                with pytest.raises(ValueError):
                    check(*before, *inside[:pos], wrong, *inside[pos + 1:])


class TestIntegerDocagne:
    def test_matches_the_quadnum_formula(self):
        for k in (1, 2, 3, 5, 8, 15):
            d = 1 + k
            r1, _ = quad_roots(k)
            powers = [r1**j for j in range(26)]
            root = QuadNum(0, 1, d)
            for a in (1, 3):
                params = SeqParams(k, a)
                G = prefix(SeqKind.GEN_PELL, params, 27)
                for m in range(1, 26):
                    for n in range(m):
                        scale = a * (-1) ** n * k**n
                        expected = scale * root * (QuadNum(G[m - n], 0, d) - a * powers[m - n])
                        res = check_docagne(params, m, n)
                        assert res.rhs == expected and str(res.rhs) == str(expected)
                        assert res.residual_is_zero
