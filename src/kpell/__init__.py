"""Exact arithmetic for the k-Pell family of sequences.

Sequences satisfying x_n = 2*x_{n-1} + k*x_{n-2}, their closed forms over
Q(sqrt(1+k)), binomial-sum evaluations, tridiagonal generating matrices with
exact determinants/inverses/cofactors, and an executable identity suite.

The package is lazy (PEP 562): ``import kpell`` loads no submodule, and each
name below loads its defining module on first use, so that a CLI process
imports only what its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "closed_forms": (
        "EigenReport",
        "eigen_product",
        "eigenvalues",
        "gen_double_sum",
        "pell_binomial",
        "poly_str",
        "symbolic_stream",
    ),
    "quadratic": ("QuadNum", "quad_roots"),
    "sequences": (
        "DEFAULT_GUARD_N",
        "SeqKind",
        "SeqParams",
        "gen_binet",
        "initial_pair",
        "pell_binet",
        "pell_fast",
        "prefix",
        "term",
        "term_stream",
    ),
    "tridiagonal": (
        "DenseMat",
        "ThetaPhi",
        "Tridiag",
        "adjugate",
        "bareiss_det",
        "det_continuant",
        "gen_matrix",
        "gen_pell_cofactor",
        "pell_cofactor",
        "theta_phi",
        "usmani_inverse",
    ),
    "verify": (
        "CheckResult",
        "SuiteReport",
        "SweepGrid",
        "check_cassini",
        "check_catalan",
        "check_cofactor_dets",
        "check_convolution1",
        "check_convolution2",
        "check_docagne",
        "check_eigen",
        "check_partition",
        "check_squares",
        "run_suite",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
