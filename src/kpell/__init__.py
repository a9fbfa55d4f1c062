"""Exact arithmetic for the k-Pell family of sequences.

Sequences satisfying x_n = 2*x_{n-1} + k*x_{n-2}, their closed forms over
Q(sqrt(1+k)), binomial-sum evaluations, tridiagonal generating matrices with
exact determinants/inverses/cofactors, and an executable identity suite.
"""

from .closed_forms import (
    EigenReport,
    binom,
    eigen_product,
    eigenvalues,
    gen_double_sum,
    pell_binomial,
    symbolic_term,
)
from .poly import KPoly, poly_str
from .quadratic import QuadNum, quad_roots
from .sequences import (
    DEFAULT_GUARD_N,
    ExactnessError,
    SeqKind,
    SeqParams,
    gen_binet,
    gen_from_lucas,
    gen_from_pell,
    initial_pair,
    pell_binet,
    pell_fast,
    prefix,
    term,
    term_stream,
)
from .tridiagonal import (
    DenseMat,
    ThetaPhi,
    Tridiag,
    adjugate,
    bareiss_det,
    det_continuant,
    gen_matrix,
    gen_pell_cofactor,
    pell_cofactor,
    theta_phi,
    tridiag_apply,
    usmani_inverse,
)
from .verify import (
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
    run_suite,
)

__version__ = "0.1.0"
