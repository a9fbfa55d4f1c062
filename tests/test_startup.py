"""A kpell process imports only what its subcommand runs, and the lazy package exports
every public name."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpell

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's public names, by defining module.
EXPORTS = {
    "closed_forms": (
        "EigenReport", "eigen_product", "eigenvalues", "gen_double_sum", "pell_binomial",
        "poly_str", "symbolic_stream",
    ),
    "quadratic": ("QuadNum", "quad_roots"),
    "sequences": (
        "DEFAULT_GUARD_N", "SeqKind", "SeqParams", "gen_binet", "initial_pair",
        "pell_binet", "pell_fast", "prefix", "term", "term_stream",
    ),
    "tridiagonal": (
        "DenseMat", "ThetaPhi", "Tridiag", "adjugate", "bareiss_det", "det_continuant",
        "gen_matrix", "gen_pell_cofactor", "pell_cofactor", "theta_phi", "usmani_inverse",
    ),
    "verify": (
        "CheckResult", "SuiteReport", "SweepGrid", "check_cassini", "check_catalan",
        "check_cofactor_dets", "check_convolution1", "check_convolution2", "check_docagne",
        "check_eigen", "check_partition", "check_squares", "run_suite",
    ),
}

# Runs kpell.cli.main on argv, output discarded, then prints the loaded modules.
MODULES_AFTER_MAIN = """
import contextlib, io, sys
from kpell.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _python(*args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


NEVER_FOR_EVAL = {"dataclasses", "json", "kpell.verify", "kpell.closed_forms",
                  "kpell.quadratic", "kpell.tridiagonal"}
NEVER_FOR_MATRIX = NEVER_FOR_EVAL - {"kpell.tridiagonal"}
NEVER_FOR_SYMBOLIC = NEVER_FOR_EVAL - {"kpell.closed_forms"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("eval", "--kind", "P", "--k", "1", "--n", "0"), NEVER_FOR_EVAL),
        (("eval", "--kind", "P", "--k", "2", "--n", "500", "--method", "fast"), NEVER_FOR_EVAL),
        (("matrix", "--kind", "P", "--k", "2", "--n", "6", "--show", "inverse",
          "--format", "text"), NEVER_FOR_MATRIX | {"fractions"}),
        (("verify", "--identities", "cassini", "--n-max", "5"), {"dataclasses", "json"}),
        # a passing d'Ocagne sweep builds no QuadNum and no Fraction
        (("verify", "--identities", "docagne", "--n-max", "5"),
         {"dataclasses", "json", "kpell.quadratic", "fractions"}),
        # integer grids are printed without fractions
        *((("matrix", "--kind", "G", "--k", "2", "--a", "3", "--n", "6", "--show", show),
           NEVER_FOR_MATRIX | {"fractions"}) for show in ("cofactor", "matrix")),
    ],
)
def test_subcommand_imports_only_what_it_runs(argv, absent):
    code, *modules = _python("-c", MODULES_AFTER_MAIN, *argv)
    assert code == "0"
    assert "kpell.sequences" in modules  # the probe saw the package at work
    assert sorted(absent & set(modules)) == []


def test_symbolic_table_loads_closed_forms_only():
    argv = ("table", "--kind", "G", "--symbolic", "--n-max", "4")
    code, *modules = _python("-c", MODULES_AFTER_MAIN, *argv)
    assert code == "0"
    assert "kpell.closed_forms" in modules
    assert sorted(NEVER_FOR_SYMBOLIC & set(modules)) == []


def test_bare_import_loads_no_submodule():
    loaded = _python("-c", "import sys, kpell; print(*sys.modules)")
    assert "kpell" in loaded
    assert [m for m in loaded if m.startswith("kpell.")] == []


def test_every_export_is_the_defining_modules_object():
    assert sorted(kpell.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"kpell.{module}")
        for name in names:
            assert getattr(kpell, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from kpell import *", namespace)
    assert set(kpell.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(kpell.__all__) <= set(dir(kpell))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        kpell.nope  # noqa: B018


@pytest.mark.parametrize(
    "make, text, field",
    [
        (lambda: kpell.SeqParams(2, 3), "SeqParams(k=2, a=3)", "k"),
        (lambda: kpell.SweepGrid(n_max=4), "SweepGrid(k_max=5, a_max=3, n_max=4)", "n_max"),
        (lambda: kpell.ThetaPhi((1, 2), (2, 1)), "ThetaPhi(theta=(1, 2), phi=(2, 1))", "phi"),
        (lambda: kpell.CheckResult("x", {"n": 1}, 2, 2),
         "CheckResult(identity_name='x', inputs={'n': 1}, lhs=2, rhs=2)", "residual_is_zero"),
        (lambda: kpell.SuiteReport(), "SuiteReport(results=())", "results"),
        (lambda: kpell.Tridiag((5, 6), (1,), (3,)),
         "Tridiag(diag=(5, 6), sup=(1,), sub=(3,))", "sup"),
        (lambda: kpell.DenseMat([[1, 2], [3, 4]]), "DenseMat(rows=((1, 2), (3, 4)))", "rows"),
    ],
)
def test_records_are_frozen_values(make, text, field):
    record = make()
    assert repr(record) == text
    assert record == make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.spare = 0


def test_record_hashes_follow_their_fields():
    assert len({kpell.SeqParams(2), kpell.SeqParams(2, 1), kpell.SeqParams(3)}) == 2
    with pytest.raises(TypeError):  # a dict of inputs is not hashable
        hash(kpell.CheckResult("x", {"n": 1}, 2, 2))


def test_unchecked_matrix_is_the_checked_one():
    rows = [[1, 2], [3, 4]]
    unchecked, checked = kpell.DenseMat._of_checked(rows), kpell.DenseMat(rows)
    assert unchecked == checked and hash(unchecked) == hash(checked)
