import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell.quadratic import QuadNum
from kpell.sequences import SeqKind, SeqParams, term
from kpell.verify import (
    EXACT_IDENTITIES,
    FLOAT_IDENTITIES,
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
        # sides land on the same rational value
        res = check_docagne(SeqParams(2, 1), m=4, n=1)
        assert res.residual_is_zero
        assert isinstance(res.rhs, QuadNum)
        assert res.rhs.is_rational
        assert res.lhs == QuadNum(36)

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
            assert doc.lhs == QuadNum(-cas.lhs)

    @given(ks, ns, ns)
    def test_convolutions(self, k, n, m):
        assert check_convolution1(k, n, m).residual_is_zero
        assert check_convolution2(k, n, m).residual_is_zero

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
