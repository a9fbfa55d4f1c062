"""Command-line front end.

Subcommands: ``table`` (symbolic or numeric term tables), ``eval`` (one term
by any evaluation route, cross-checked), ``verify`` (identity sweeps),
``matrix`` (generating matrices and their exact inverses/cofactors),
``eigen`` (the floating-point eigenvalue product report), ``bench`` (timing
with value digests).

Exit codes: 0 success / all-pass, 1 verified failure (identity or eigenvalue
mismatch, internal cross-check), 2 usage error, 141 stdout closed by its
reader.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from decimal import Decimal, localcontext
from itertools import chain, count, islice, repeat
from typing import Sequence

from .digits import EXACT, to_str
from .sequences import SeqKind, SeqParams, _walk, binet_term, initial_pair, recurrence_guard, term

# Every subcommand needs the modules above; the others are imported in the
# subcommand, or the option, that runs them, so a process loads only those.

KINDS = {kind.value: kind for kind in SeqKind}

CROSS_CHECK_LIMIT = 10_000


def _parse_params(args: argparse.Namespace, kind: SeqKind) -> SeqParams:
    if args.a is not None and kind is not SeqKind.GEN_PELL:
        raise ValueError("--a applies to kind G only")
    a = args.a if args.a is not None else 1
    return SeqParams(args.k, a)


def _cmd_table(args: argparse.Namespace) -> int:
    kind = KINDS[args.kind]
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if args.symbolic:
        if args.k is not None or args.a is not None:
            raise ValueError("--symbolic excludes --k/--a")
        if kind not in (SeqKind.PELL, SeqKind.GEN_PELL):
            raise ValueError("symbolic tables exist for kinds P and G only")
        from .closed_forms import poly_str, symbolic_stream

        suffix = "a" if kind is SeqKind.GEN_PELL else ""
        coeffs = islice(symbolic_stream(kind), args.n_max + 1)
        values = (poly_str(c, "k", suffix) for c in coeffs)
    else:
        if args.k is None:
            raise ValueError("numeric tables need --k (or pass --symbolic)")
        params = _parse_params(args, kind)
        walk = _walk(*initial_pair(kind, params), repeat((2, params.k)), printing=True)
        values = map(str, islice(walk, args.n_max + 1))
    # Rows are rendered as they are printed, so no output holds them all.
    if args.format == "json":
        from .jsonout import SLOT, quote, template, write

        payload: dict = {"kind": args.kind, "symbolic": bool(args.symbolic)}
        if not args.symbolic:
            payload["k"] = args.k
            if kind is SeqKind.GEN_PELL:
                payload["a"] = params.a
        row = template({"n": SLOT, "value": SLOT})
        payload["rows"] = map(row.__mod__, zip(count(), map(quote, values)))
        write(payload)
    else:
        for n, v in enumerate(values):
            print(f"{n}\t{v}")
    return 0


def _eval_dispatch(kind: SeqKind, params: SeqParams, n: int, method: str) -> int | Decimal:
    if method == "recurrence":
        return term(kind, params, n)
    if method == "fast":
        if kind is not SeqKind.PELL:
            raise ValueError("--method fast applies to kind P only")
        return binet_term(kind, params, n)
    if method == "binet":
        if kind not in (SeqKind.PELL, SeqKind.GEN_PELL):
            raise ValueError("--method binet applies to kinds P and G only")
        return binet_term(kind, params, n)
    if method == "binomial":
        if kind is not SeqKind.PELL:
            raise ValueError("--method binomial applies to kind P only")
        if n < 3:
            raise ValueError("--method binomial is defined for n >= 3")
        from .closed_forms import pell_binomial

        return pell_binomial(params.k, n - 1)
    if method == "double-sum":
        if kind is not SeqKind.GEN_PELL:
            raise ValueError("--method double-sum applies to kind G only")
        if n < 2:
            raise ValueError("--method double-sum is defined for n >= 2")
        from .closed_forms import gen_double_sum

        return gen_double_sum(params, n - 1)
    raise ValueError(f"unknown method {method!r}")


def _cmd_eval(args: argparse.Namespace) -> int:
    kind = KINDS[args.kind]
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    params = _parse_params(args, kind)
    value = _eval_dispatch(kind, params, args.n, args.method)
    text = to_str(value)
    # The check is the package's own work, not the caller's: it keeps within the guard.
    checked = args.method != "recurrence" and args.n <= CROSS_CHECK_LIMIT
    if checked and args.n <= recurrence_guard():
        # Compared as digits: the fast and Binet routes may hand back a Decimal.
        reference = to_str(term(kind, params, args.n))
        if text != reference:
            print(
                f"kpell: internal cross-check failed: method {args.method} gave "
                f"{text}, recurrence gave {reference}",
                file=sys.stderr,
            )
            return 1
    if args.format == "json":
        payload = {"kind": args.kind, "k": args.k}
        if kind is SeqKind.GEN_PELL:
            payload["a"] = params.a
        payload["n"] = args.n
        payload["value"] = text
        from .jsonout import write

        write(payload)
    else:
        print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SweepGrid, expand_selection, json_rows, sweep, tally

    names = tuple(part.strip() for part in args.identities.split(",") if part.strip())
    if not names:
        raise ValueError("--identities must name at least one identity")
    expand_selection(names)  # an unknown name is reported before a bad grid
    grid = SweepGrid(k_max=args.k_max, a_max=args.a_max, n_max=args.n_max)
    results = sweep(grid, names)
    if args.format == "json":
        from .jsonout import write

        # the summary comes first, so the rows are held as text until it is known
        rows, failed = json_rows(results)
        write({"summary": {"pass": len(rows) - failed, "fail": failed}, "results": iter(rows)})
        return 0 if failed == 0 else 1
    counts, failures = tally(results)
    print(f"{'identity':<16} {'pass':>8} {'fail':>8}")
    for name, (passed, failed) in counts.items():
        print(f"{name:<16} {passed:>8} {failed:>8}")
    passed = sum(p for p, _ in counts.values())
    print(f"{'total':<16} {passed:>8} {len(failures):>8}")
    for failure in failures:
        inputs = " ".join(f"{key}={val}" for key, val in failure.inputs.items())
        lhs, rhs = to_str(failure.lhs), to_str(failure.rhs)
        print(f"FAIL {failure.identity_name} {inputs} lhs={lhs} rhs={rhs}")
    return 0 if not failures else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .tridiagonal import (
        continuant_strings,
        entry_strings,
        gen_matrix,
        gen_pell_cofactor,
        inverse_strings,
        pell_cofactor,
        render_grid,
    )

    kind = KINDS[args.kind]
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    params = _parse_params(args, kind)
    t = gen_matrix(kind, params, args.n)
    if args.show == "theta-phi":
        theta, phi = continuant_strings(t)
        if args.format == "json":
            from .jsonout import quote, write

            write({"n": args.n, "theta": map(quote, theta), "phi": map(quote, phi)})
        else:
            for label, strings in (("theta:", theta), ("phi:  ", phi)):
                # print's spacing, a string at a time: theta goes out as it is made
                sys.stdout.writelines(chain([label], map(" ".__add__, strings), ["\n"]))
        return 0
    if args.show == "matrix":
        cells = entry_strings(t.to_dense())
    elif args.show == "inverse":
        # the cells of usmani_inverse(t), printed without a Fraction per cell
        cells = inverse_strings(t)
    else:
        if args.n < 2:
            raise ValueError("--show cofactor needs --n >= 2")
        if kind is SeqKind.PELL:
            dense = pell_cofactor(params.k, args.n)
        elif kind is SeqKind.GEN_PELL:
            dense = gen_pell_cofactor(params, args.n)
        else:
            raise ValueError("cofactor matrices exist for kinds P and G only")
        cells = entry_strings(dense)
    if args.format == "json":
        from .jsonout import item, write

        write({"n": args.n, "entries": map(item, cells)})
    else:
        # a line at a time: the grid's text is never joined into one string
        print(*render_grid(cells), sep="\n")
    return 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    if args.n < 1 or args.k < 1:
        raise ValueError("--k and --n must be >= 1")
    from .closed_forms import eigen_product

    report = eigen_product(args.k, args.n, args.paper_verbatim)
    print(f"product: {report.product.real:.6f} {report.product.imag:+.6f}i")
    print(f"rounded: {report.rounded}")
    print(f"exact:   {report.exact}")
    print(f"abs residual: {report.abs_residual:.6f}")
    print(f"formula: {'verbatim' if report.paper_verbatim else 'corrected'}")
    return 0 if report.matches else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.n < 0 or args.k < 1 or args.repeat < 1:
        raise ValueError("need --k >= 1, --n >= 0, --repeat >= 1")
    params = SeqParams(args.k)
    for run in range(args.repeat):
        start = time.perf_counter()
        value = _eval_dispatch(SeqKind.PELL, params, args.n, args.method)
        elapsed = time.perf_counter() - start
        with localcontext(EXACT):
            digest = value % (1 << 64)
        print(
            f"method={args.method} k={args.k} n={args.n} run={run} "
            f"time_s={elapsed:.6f} digest={digest}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpell",
        description="Exact k-Pell family sequences, identities, and matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print terms n = 0..N, symbolic or numeric")
    p_table.add_argument("--kind", choices=sorted(KINDS), required=True)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--symbolic", action="store_true")
    p_table.add_argument("--k", type=int)
    p_table.add_argument("--a", type=int)
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.set_defaults(func=_cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate one term by a chosen route")
    p_eval.add_argument("--kind", choices=sorted(KINDS), required=True)
    p_eval.add_argument("--k", type=int, required=True)
    p_eval.add_argument("--a", type=int)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument(
        "--method",
        choices=("recurrence", "binet", "binomial", "double-sum", "fast"),
        default="recurrence",
    )
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="sweep identity checks over a grid")
    p_verify.add_argument("--identities", default="all")
    p_verify.add_argument("--k-max", type=int, default=5)
    p_verify.add_argument("--a-max", type=int, default=3)
    p_verify.add_argument("--n-max", type=int, default=30)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_matrix = sub.add_parser("matrix", help="show a generating matrix or derived object")
    p_matrix.add_argument("--kind", choices=sorted(KINDS), required=True)
    p_matrix.add_argument("--k", type=int, required=True)
    p_matrix.add_argument("--a", type=int)
    p_matrix.add_argument("--n", type=int, required=True)
    p_matrix.add_argument(
        "--show", choices=("matrix", "inverse", "cofactor", "theta-phi"), default="matrix"
    )
    p_matrix.add_argument("--format", choices=("text", "json"), default="text")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_eigen = sub.add_parser("eigen", help="eigenvalue-product determinant report")
    p_eigen.add_argument("--k", type=int, required=True)
    p_eigen.add_argument("--n", type=int, required=True)
    p_eigen.add_argument("--paper-verbatim", action="store_true")
    p_eigen.set_defaults(func=_cmd_eigen)

    p_bench = sub.add_parser("bench", help="time an evaluation route, print a digest")
    p_bench.add_argument("--k", type=int, required=True)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--method", choices=("recurrence", "fast"), default="fast")
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a pipe closed before the last flush is caught here too
    except ValueError as exc:
        # the one route from a ValueError, the CLI's own or the library's, to exit 2
        print(f"kpell: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's final flush goes to
        # os.devnull, and the exit code is the one a shell gives a SIGPIPE death
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
