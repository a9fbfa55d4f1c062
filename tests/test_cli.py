import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpell import cli, digits, sequences
from kpell.cli import main
from kpell.digits import STR_MAX_BITS, to_str
from kpell.sequences import SeqKind, SeqParams, term, term_stream
from kpell.tridiagonal import gen_matrix, theta_phi


SRC = Path(__file__).resolve().parent.parent / "src"

# Starts kpell, drains its stdout and prints its exit code and max RSS (KiB)
# as os.wait4 reports them.  A child spawned straight from pytest would
# inherit pytest's high-water mark, which Linux keeps across vfork and exec.
WAIT4_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "kpell", *sys.argv[1:]], stdout=subprocess.PIPE)
while child.stdout.read(1 << 16):
    pass
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def _child_max_rss_mb(*argv: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", WAIT4_LAUNCHER, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, kib = map(int, proc.stdout.split())
    assert code == 0
    return kib / 1024


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_numeric_text(self, capsys):
        code, out, err = run(capsys, "table", "--kind", "P", "--k", "2", "--n-max", "5")
        assert code == 0 and err == ""
        assert out.splitlines() == ["0\t0", "1\t1", "2\t2", "3\t6", "4\t16", "5\t44"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_numeric_rows_past_the_print_threshold(self, capsys, fmt):
        # At k = 2**59 a term passes STR_MAX_BITS near n = 475, past which str() of an int
        # would need the digit limit lifted.
        k, n_max = 2**59, 520
        terms = list(islice(term_stream(SeqKind.PELL, SeqParams(k)), n_max + 1))
        assert terms[-1].bit_length() > STR_MAX_BITS + 1000
        want = [to_str(v) for v in terms]
        code, out, _ = run(
            capsys, "table", "--kind", "P", "--k", str(k), "--n-max", str(n_max), "--format", fmt
        )
        assert code == 0
        if fmt == "json":
            rows = [row["value"] for row in json.loads(out)["rows"]]
        else:
            rows = [line.split("\t")[1] for line in out.splitlines()]
        assert rows == want

    @pytest.mark.parametrize(
        "fmt, size, sha256",
        [
            ("text", 24_077_672, "c516f70ec4468b3c4e9e8ce954e94c9c73ae97ce6d7d58e1e7a1bbc3729a850d"),
            ("json", 24_548_179, "9a08734aa99e61409d738eee9405a4b69db03f0885ba7d96d61b10e585916d45"),
        ],
    )
    def test_output_is_pinned(self, capsys, fmt, size, sha256):
        # At k = 1, term 11,012 is the first past STR_MAX_BITS.
        code, out, _ = run(
            capsys, "table", "--kind", "P", "--k", "1", "--n-max", "11200", "--format", fmt
        )
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_symbolic_pell(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "P", "--symbolic", "--n-max", "3")
        assert code == 0
        assert out.splitlines() == ["0\t0", "1\t1", "2\t2", "3\tk + 4"]

    def test_symbolic_gen(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "G", "--symbolic", "--n-max", "4")
        assert code == 0
        assert out.splitlines() == [
            "0\ta",
            "1\ta",
            "2\tka + 2a",
            "3\t3ka + 4a",
            "4\tk^2a + 8ka + 8a",
        ]

    def test_symbolic_table_walks_once(self, capsys):
        # A walk per row took 16 s here; one walk for the table takes a fraction of a second.
        start = time.perf_counter()
        code, out, _ = run(capsys, "table", "--kind", "G", "--symbolic", "--n-max", "800")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 3.0, f"{elapsed:.2f} s"
        rows = out.splitlines()
        assert len(rows) == 801
        assert rows[:8] == [
            "0\ta",
            "1\ta",
            "2\tka + 2a",
            "3\t3ka + 4a",
            "4\tk^2a + 8ka + 8a",
            "5\t5k^2a + 20ka + 16a",
            "6\tk^3a + 18k^2a + 48ka + 32a",
            "7\t7k^3a + 56k^2a + 112ka + 64a",
        ]

    def test_symbolic_excludes_k(self, capsys):
        code, _, err = run(
            capsys, "table", "--kind", "P", "--symbolic", "--k", "1", "--n-max", "3"
        )
        assert code == 2
        assert "excludes --k" in err

    def test_symbolic_wrong_kind(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "Q", "--symbolic", "--n-max", "3")
        assert code == 2
        assert "kinds P and G only" in err

    def test_numeric_needs_k(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "P", "--n-max", "3")
        assert code == 2
        assert "need --k" in err

    def test_a_restricted_to_gen(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "q", "--k", "1", "--a", "2", "--n-max", "2")
        assert code == 2
        assert "--a applies to kind G only" in err

    def test_negative_n_max(self, capsys):
        code, _, err = run(capsys, "table", "--kind", "P", "--k", "1", "--n-max", "-1")
        assert code == 2

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--kind", "G", "--k", "3", "--a", "2", "--n-max", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "kind": "G",
            "symbolic": False,
            "k": 3,
            "a": 2,
            "rows": [
                {"n": 0, "value": "2"},
                {"n": 1, "value": "2"},
                {"n": 2, "value": "10"},
            ],
        }

    def test_json_rows_are_streamed(self):
        # 12.6 MB of JSON: holding every row before writing took 54 MB max
        # RSS against 15 MB for text, so the ratio shows whether rows are held.
        argv = ("table", "--kind", "P", "--k", "1", "--n-max", "8000")
        text_mb = _child_max_rss_mb(*argv)
        json_mb = _child_max_rss_mb(*argv, "--format", "json")
        assert json_mb <= 1.5 * text_mb, (json_mb, text_mb)


class TestEval:
    def test_default_recurrence(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "Q", "--k", "2", "--n", "4")
        assert code == 0
        assert out == "56\n"

    @pytest.mark.parametrize("method", ["binet", "binomial", "fast"])
    def test_pell_routes_agree(self, capsys, method):
        code, out, _ = run(
            capsys, "eval", "--kind", "P", "--k", "3", "--n", "9", "--method", method
        )
        assert code == 0
        assert out == "4921\n"

    def test_gen_double_sum_route(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--kind", "G", "--k", "1", "--a", "1", "--n", "5",
            "--method", "double-sum",
        )
        assert code == 0
        assert out == "41\n"

    def test_method_kind_mismatch(self, capsys):
        code, _, err = run(
            capsys, "eval", "--kind", "G", "--k", "1", "--n", "4", "--method", "fast"
        )
        assert code == 2
        assert "kind P only" in err

    def test_binomial_index_floor(self, capsys):
        code, _, err = run(
            capsys, "eval", "--kind", "P", "--k", "1", "--n", "2", "--method", "binomial"
        )
        assert code == 2
        assert "n >= 3" in err

    def test_cross_check_catches_bad_route(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "binet_term", lambda kind, params, n: 999)
        code, _, err = run(
            capsys, "eval", "--kind", "P", "--k", "1", "--n", "6", "--method", "binet"
        )
        assert code == 1
        assert "internal cross-check failed" in err
        # a guard that admits n keeps the check
        monkeypatch.setenv("KPELL_GUARD_N", "200")
        code, _, err = run(
            capsys, "eval", "--kind", "P", "--k", "1", "--n", "100", "--method", "binet"
        )
        assert code == 1
        assert "internal cross-check failed" in err

    @pytest.mark.parametrize("kind, method", [("P", "fast"), ("P", "binet"), ("G", "binet")])
    def test_cross_check_keeps_within_the_guard(self, capsys, monkeypatch, kind, method):
        # the fast and Binet routes read no guard, so the check must not trip it
        argv = ["eval", "--kind", kind, "--k", "1", "--n", "100"]
        _, reference, _ = run(capsys, *argv)
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        code, out, err = run(capsys, *argv, "--method", method)
        assert (code, err) == (0, "")
        assert out == reference

    def test_binomial_sum_within_the_guard_passes(self, capsys, monkeypatch):
        # the sum reads index 99, the check would read 100
        expected = f"{term(SeqKind.PELL, SeqParams(1), 100)}\n"
        monkeypatch.setenv("KPELL_GUARD_N", "99")
        code, out, _ = run(
            capsys, "eval", "--kind", "P", "--k", "1", "--n", "100", "--method", "binomial"
        )
        assert (code, out) == (0, expected)

    def test_malformed_guard_is_read_only_where_the_check_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "many")
        argv = ["eval", "--kind", "P", "--k", "1", "--method", "fast", "--n"]
        assert run(capsys, *argv, "20000")[0] == 0  # past the cross-check limit
        code, _, err = run(capsys, *argv, "100")
        assert code == 2
        assert "KPELL_GUARD_N must be an integer" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--kind", "G", "--k", "2", "--a", "3", "--n", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"kind": "G", "k": 2, "a": 3, "n": 3, "value": "30"}

    def test_huge_term_prints_in_full(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kind", "P", "--k", "1", "--n", "100000", "--method", "fast"
        )
        assert code == 0
        digits = out.strip()
        assert len(digits) == 38278 and digits.isdigit()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_decimal_fast_route_matches_recurrence(self, capsys, fmt):
        n = 30_011  # past the cross-check limit, so only this test compares them
        argv = ["eval", "--kind", "P", "--k", "2", "--n", str(n), "--format", fmt]
        code, fast_out, _ = run(capsys, *argv, "--method", "fast")
        assert code == 0
        _, rec_out, _ = run(capsys, *argv)
        assert fast_out == rec_out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("kind", [("P",), ("G", "--a", "3")])
    def test_decimal_binet_route_matches_recurrence(self, capsys, kind, fmt):
        n = 30_011  # past the cross-check limit, so only this test compares them
        assert n > cli.CROSS_CHECK_LIMIT
        argv = ["eval", "--kind", *kind, "--k", "2", "--n", str(n), "--format", fmt]
        code, binet_out, _ = run(capsys, *argv, "--method", "binet")
        assert code == 0
        _, rec_out, _ = run(capsys, *argv)
        assert binet_out == rec_out

    @pytest.mark.parametrize(
        "argv, size, sha256",
        [
            (
                ("--kind", "P", "--k", "2", "--n", "300"),
                132,
                "cc9bdfb2c226b04a4f5f887137f4370d42688c292e748f430b79c5c7da3dfa36",
            ),
            (  # n < 2: the root power is the int pair (1, n)
                ("--kind", "G", "--k", "3", "--a", "2", "--n", "1"),
                2,
                "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
            ),
        ],
    )
    def test_binet_output_is_pinned(self, capsys, argv, size, sha256):
        code, out, _ = run(capsys, "eval", *argv, "--method", "binet")
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_recurrence_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "G", "--k", "2", "--a", "3", "--n", "60000")
        assert code == 0
        data = out.encode()
        assert len(data) == 26_191
        want = "bf4f27b0ba582f3c77c9e86bb724a71d03df3b031323ba54af2d28170bed1947"
        assert hashlib.sha256(data).hexdigest() == want

    def test_guard_trips_recurrence(self, capsys, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        code, _, err = run(capsys, "eval", "--kind", "P", "--k", "1", "--n", "100")
        assert code == 2
        assert "KPELL_GUARD_N" in err

    @pytest.mark.parametrize(
        "argv",
        (
            ("--kind", "P", "--method", "binomial"),
            ("--kind", "G", "--a", "2", "--method", "double-sum"),
        ),
    )
    def test_guard_trips_sums(self, capsys, argv):
        code, out, err = run(capsys, "eval", "--k", "1", "--n", "20000000", *argv)
        assert code == 2 and out == ""
        assert "KPELL_GUARD_N" in err


class TestVerify:
    def test_all_pass_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k-max", "2", "--a-max", "2", "--n-max", "8"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["identity", "pass", "fail"]
        total = next(line for line in lines if line.startswith("total"))
        assert total.split() == ["total", "794", "0"]
        assert not any(line.startswith("FAIL") for line in lines)

    def test_single_identity_selection(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--identities", "cassini", "--k-max", "1", "--a-max", "1",
            "--n-max", "10",
        )
        assert code == 0
        assert "cassini" in out and "catalan" not in out

    def test_eigen_verbatim_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--identities", "eigen-verbatim", "--k-max", "1", "--a-max", "1",
            "--n-max", "2",
        )
        assert code == 1
        fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fail_lines) == 1
        assert "eigen-verbatim" in fail_lines[0]
        assert "k=1" in fail_lines[0] and "n=2" in fail_lines[0]
        assert "0.750000" in fail_lines[0]

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "--identities", "nope")
        assert code == 2
        assert "unknown identity" in err

    def test_empty_identities(self, capsys):
        code, _, err = run(capsys, "verify", "--identities", ",")
        assert code == 2

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--identities", "convolution1,squares1", "--k-max", "1",
            "--a-max", "1", "--n-max", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["pass"] == len(payload["results"])
        assert {row["identity_name"] for row in payload["results"]} == {
            "convolution1",
            "squares1",
        }

    def test_json_output_is_deterministic(self, capsys):
        args = ("verify", "--k-max", "1", "--a-max", "1", "--n-max", "5", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "argv, size, sha256",
        [
            (
                (),
                6_950_164,
                "63d2ae81842e77b8d2e1771dd622ed4519e5554baa7d7a790a93a58c44b0581e",
            ),
            (  # k = 3, 8, 15 have a perfect-square 1+k
                ("--k-max", "15", "--a-max", "2", "--n-max", "12"),
                2_640_646,
                "af0ff822b002445a1580bd4d1621601a3d9e1f30761af7a19cb7102f15cab033",
            ),
        ],
    )
    def test_json_output_is_pinned(self, capsys, argv, size, sha256):
        # stdout of d'Ocagne on q and P prefixes and the per-check recurrence walks
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_fail_lines_print_past_the_default_digit_limit(
        self, capsys, monkeypatch, int_str_limit
    ):
        from kpell import verify
        from kpell.verify import CheckResult

        big = 10**5000
        wrong = CheckResult("cassini", {"a": 1, "k": 1, "n": 1}, big, -big)
        monkeypatch.setattr(verify, "sweep", lambda grid, names: iter((wrong,)))
        int_str_limit(4300)
        code, out, _ = run(capsys, "verify", "--identities", "cassini")
        int_str_limit(0)
        assert code == 1
        assert out.splitlines()[-1] == f"FAIL cassini a=1 k=1 n=1 lhs={big} rhs={-big}"

    def test_json_fail_rows_print_past_the_default_digit_limit(
        self, capsys, monkeypatch, int_str_limit
    ):
        from kpell import verify
        from kpell.verify import CheckResult

        big = 10**5000
        assert big.bit_length() > STR_MAX_BITS
        right = CheckResult("cassini", {"a": 1, "k": 1, "n": 2}, -2, -2)
        wrong = CheckResult("cassini", {"a": 1, "k": 1, "n": 1}, big, -big)
        monkeypatch.setattr(verify, "sweep", lambda grid, names: iter((right, wrong)))
        int_str_limit(4300)
        code, out, _ = run(capsys, "verify", "--identities", "cassini", "--format", "json")
        int_str_limit(0)
        assert code == 1
        payload = {
            "summary": {"pass": 1, "fail": 1},
            "results": [right.to_dict(), wrong.to_dict()],
        }
        assert out == json.dumps(payload, indent=2) + "\n"
        assert json.loads(out)["results"][1]["lhs"] == str(big)

    def test_guard_refuses_sweep(self, capsys, monkeypatch):
        # catalan reads G_{2n} and squares1 P_{2n+1}: index 60 and 61 here,
        # past the guard of 50
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        for identity in ("catalan", "squares1"):
            code, out, err = run(
                capsys,
                "verify", "--identities", identity, "--k-max", "1", "--a-max", "1",
                "--n-max", "30",
            )
            assert code == 2
            assert out == ""
            assert "KPELL_GUARD_N" in err

    def test_guard_refuses_a_selection_at_its_largest_index(self, capsys, monkeypatch):
        # cassini, listed first, reads only G_31; catalan's G_60 refuses the
        # whole selection before any check runs
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        code, out, err = run(
            capsys,
            "verify", "--identities", "cassini,catalan", "--k-max", "1", "--a-max", "1",
            "--n-max", "30",
        )
        assert (code, out) == (2, "")
        assert "n=60 exceeds the O(n) evaluation guard of 50" in err

    def test_squares2_sweep_runs_at_its_largest_index(self, capsys, monkeypatch):
        # squares2 reads P_{2n} = P_20 at n = 10, and nothing past it
        monkeypatch.setenv("KPELL_GUARD_N", "20")
        code, out, err = run(
            capsys, "verify", "--identities", "squares2", "--k-max", "1", "--n-max", "10"
        )
        assert (code, err) == (0, "")
        assert "squares2" in out


class TestMatrix:
    def test_matrix_text(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--kind", "G", "--k", "1", "--a", "1", "--n", "2"
        )
        assert code == 0
        assert out == " 3  1\n-1  2\n"

    def test_inverse_text(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--kind", "P", "--k", "1", "--n", "2", "--show", "inverse"
        )
        assert code == 0
        assert out == "2/5  -1/5\n1/5   2/5\n"

    def test_cofactor_json(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--kind", "P", "--k", "1", "--n", "2", "--show", "cofactor",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "entries": [["2", "1"], ["-1", "2"]]}

    def test_cofactor_kind_restriction(self, capsys):
        code, _, err = run(
            capsys, "matrix", "--kind", "Q", "--k", "1", "--n", "3", "--show", "cofactor"
        )
        assert code == 2
        assert "kinds P and G only" in err

    def test_cofactor_needs_order_two(self, capsys):
        code, _, err = run(
            capsys, "matrix", "--kind", "P", "--k", "1", "--n", "1", "--show", "cofactor"
        )
        assert code == 2

    def test_theta_phi_text(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--kind", "P", "--k", "3", "--n", "3", "--show", "theta-phi"
        )
        assert code == 0
        assert out.splitlines() == ["theta: 1 2 7 20", "phi:   20 7 2 1"]

    def test_theta_phi_json(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--kind", "P", "--k", "3", "--n", "3", "--show", "theta-phi",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "n": 3,
            "theta": ["1", "2", "7", "20"],
            "phi": ["20", "7", "2", "1"],
        }

    @staticmethod
    def _theta_phi_shown(kind, k, a, n, fmt):
        """The theta and phi strings that ``matrix --show theta-phi`` prints."""
        argv = ["matrix", "--kind", kind, "--k", str(k), "--n", str(n), "--show", "theta-phi"]
        argv += ["--a", str(a)] if kind == "G" else []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == 0
        if fmt == "json":
            payload = json.loads(out.getvalue())
            assert payload["n"] == n
            return payload["theta"], payload["phi"]
        theta, phi = out.getvalue().splitlines()
        assert theta.startswith("theta: ") and phi.startswith("phi:   ")
        return theta[7:].split(" "), phi[7:].split(" ")

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(cli.KINDS)),
        k=st.integers(1, 50) | st.just(2**59),
        a=st.integers(1, 9),
        n=st.integers(1, 40) | st.just(520),
    )
    def test_theta_phi_strings_are_the_continuants(self, kind, k, a, n):
        # k = 2**59 at n = 520 passes STR_MAX_BITS near n = 475
        tp = theta_phi(gen_matrix(cli.KINDS[kind], SeqParams(k, a if kind == "G" else 1), n))
        want = list(map(to_str, tp.theta)), list(map(to_str, tp.phi))
        for fmt in ("text", "json"):
            assert self._theta_phi_shown(kind, k, a, n, fmt) == want

    def test_theta_phi_converts_a_pair_once_per_walk(self, monkeypatch):
        # Each walk, theta's and phi's, converts its starting pair to Decimal
        # and runs in Decimal from there, so no continuant goes through
        # to_decimal; printing every continuant through to_str would call it
        # about 45 times per walk here.
        k, n = 2**59, 520
        tp = theta_phi(gen_matrix(SeqKind.PELL, SeqParams(k), n))
        want = list(map(to_str, tp.theta)), list(map(to_str, tp.phi))
        assert sum(x.bit_length() > STR_MAX_BITS for x in tp.theta) > 40
        converted, made = [], []

        def counted(calls, convert):
            return lambda value: calls.append(value) or convert(value)

        monkeypatch.setattr(digits, "to_decimal", counted(converted, digits.to_decimal))
        monkeypatch.setattr(sequences, "Decimal", counted(made, sequences.Decimal))
        for fmt in ("text", "json"):
            converted.clear()
            made.clear()
            assert self._theta_phi_shown("P", k, 1, n, fmt) == want
            assert len(converted) <= 4, fmt
            assert len(made) == 2 * 2, fmt

    def test_n_must_be_positive(self, capsys):
        code, _, err = run(capsys, "matrix", "--kind", "P", "--k", "1", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "kind, show, fmt, size, sha256",
        [
            ("P", "inverse", "text", 43_120, "01aaae6033a4598014337d4a54800223a247734d9e48167533c9093f596bf3b2"),
            ("P", "inverse", "json", 52_317, "ab1d90120b1e997aae12daa21fdf7c5b75858d48f7017d84f0572e6090eca307"),
            ("Q", "inverse", "text", 43_200, "be969eed90baf24bc492e7ef3cc2d9604db455012f8726f767a0541b1a5dbb1a"),
            ("Q", "inverse", "json", 52_989, "f2f321a1edd9140e30608d58eb12eed63743078f56f283a48db872b345ed8e01"),
            ("q", "inverse", "text", 43_200, "5f8e2a9961f342b109346c371f6673708648603e01cb5fb13a030ec5b42786dd"),
            ("q", "inverse", "json", 52_978, "3f980dd05a57c9f18d2a663c9795d91f84e0fe930be97b9431d7c21abeb6ffc7"),
            ("G", "inverse", "text", 43_200, "396c8433f35ebf7b43a727ea60e9589afc6d70a44cc36bd11c38043b5051390f"),
            ("G", "inverse", "json", 52_983, "2e2ae6f1fb54969c3ecc799d3518b6e50e8b1eeb09263928f8f20aa2faaeacb4"),
            ("P", "cofactor", "text", 31_920, "af42605b72217a919d7592ae01067c11edf7383c90c7022b51a4e58504408fc5"),
            ("P", "cofactor", "json", 38_544, "ed21290145af804c3857584b16a0094667f4db3d183455e8e8123dfb6866b023"),
            ("G", "cofactor", "text", 33_520, "f5382b83b90fb4a9f58fdd24223f3ea326bfe9fd3fa53f1f04e8ad91af41eb7e"),
            ("G", "cofactor", "json", 39_658, "1ca76911773f076dbf3c5573de0af2c6d6ab845b4f934c47fcec82f289caae7e"),
        ],
    )
    def test_output_is_pinned(self, capsys, kind, show, fmt, size, sha256):
        # stdout of the theta/phi Fraction inverse and the paper's cofactor formulas
        a = ("--a", "3") if kind == "G" else ()
        code, out, _ = run(
            capsys,
            "matrix", "--kind", kind, "--k", "2", *a, "--n", "40", "--show", show,
            "--format", fmt,
        )
        assert code == 0
        data = out.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256


class TestEigen:
    def test_corrected_matches(self, capsys):
        code, out, _ = run(capsys, "eigen", "--k", "1", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "rounded: 5"
        assert lines[2] == "exact:   5"
        assert lines[4] == "formula: corrected"

    def test_verbatim_mismatch(self, capsys):
        code, out, _ = run(capsys, "eigen", "--k", "1", "--n", "2", "--paper-verbatim")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("product: 4.250000")
        assert lines[1] == "rounded: 4"
        assert lines[2] == "exact:   5"
        assert lines[3] == "abs residual: 0.750000"
        assert lines[4] == "formula: verbatim"

    def test_bad_domain(self, capsys):
        code, _, _ = run(capsys, "eigen", "--k", "0", "--n", "2")
        assert code == 2


class TestBench:
    def test_line_format_and_repeat_determinism(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--k", "1", "--n", "500", "--repeat", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        digests = set()
        for run_idx, line in enumerate(lines):
            fields = dict(part.split("=", 1) for part in line.split())
            assert fields["method"] == "fast"
            assert fields["k"] == "1" and fields["n"] == "500"
            assert fields["run"] == str(run_idx)
            float(fields["time_s"])  # parses
            digests.add(fields["digest"])
        assert len(digests) == 1

    def test_methods_share_digest(self, capsys):
        digest = lambda s: s.split("digest=")[1].strip()
        for n in ("300", "30011"):  # the second runs the fast route on Decimal
            _, fast_out, _ = run(capsys, "bench", "--k", "2", "--n", n, "--method", "fast")
            _, rec_out, _ = run(capsys, "bench", "--k", "2", "--n", n, "--method", "recurrence")
            assert digest(fast_out) == digest(rec_out)

    def test_guard_blocks_recurrence(self, capsys, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        code, _, err = run(
            capsys, "bench", "--k", "1", "--n", "100", "--method", "recurrence"
        )
        assert code == 2
        assert "KPELL_GUARD_N" in err

    def test_fast_ignores_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        code, _, _ = run(capsys, "bench", "--k", "1", "--n", "100", "--method", "fast")
        assert code == 0


class TestParser:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("table --kind P --k 0 --n-max 3", "k must be a positive integer, got 0"),
            ("eval --kind P --k 1 --n 2 --method binomial",
             "--method binomial is defined for n >= 3"),
            # the selection is checked before the grid
            ("verify --identities nope --k-max 0",
             "unknown identity 'nope'; known: all, catalan, cassini, docagne, convolution1, "
             "convolution2, squares1, squares2, partition, cofactor-dets, eigen, eigen-verbatim"),
            ("matrix --kind P --k 1 --a 2 --n 3", "--a applies to kind G only"),
            ("eigen --k 1 --n 2000",
             "eigenvalue product overflows double precision at k=1, n=2000"),
        ],
    )
    def test_library_value_errors_are_usage_errors(self, capsys, argv, message):
        assert run(capsys, *argv.split()) == (2, "", f"kpell: error: {message}\n")

    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", ["--k", "--n"])
    def test_integers_past_the_default_digit_limit_exit_two(self, capsys, int_str_limit, option):
        # main leaves Python's int->str digit limit as it is, so argparse refuses the string
        argv = ["eval", "--kind", "P", "--k", "1", "--n", "5"]
        argv[argv.index(option) + 1] = "1" * 4301
        int_str_limit(4300)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: invalid int value" in capsys.readouterr().err

    def test_bad_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--kind", "X", "--n-max", "3"])
        assert exc.value.code == 2
