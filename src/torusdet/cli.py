"""Command-line front end.

Commands: det, trace, symbol2matrix, diagnose, hill check, hill scan.
Results are emitted as deterministic JSON (or CSV for scan tables) on
stdout; wall-clock timing goes to stderr so identical inputs produce
byte-identical stdout.  Exit status: 0 on success, 2 when a decision is
undecided, 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import io as docio
from .hill import (
    NoNullSolutionError,
    existence_test,
    extract_null_solution,
    spectral_shift_scan,
)
from .l1_algebra import (
    NonConvergenceError,
    _mass,
    poincare_determinant,
    poincare_trace,
)
from .lattice import TruncationWindow
from .toroidal import (
    l1_membership_check,
    strong_ellipticity_check,
    symbol_order_diagnostic,
    symbol_to_matrix,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class CliError(Exception):
    pass


def _power_of_two(text):
    value = int(text)
    if value < 1 or value & (value - 1):
        raise argparse.ArgumentTypeError(f"grid size must be a power of two, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser():
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(prog="torusdet", description=__doc__)
    parser.add_argument("--tol", type=_positive_float, default=1e-8,
                        help="certified tolerance (default 1e-8)")
    parser.add_argument("--max-radius", type=_positive_int, default=64,
                        help="largest truncation window radius (default 64; trace ignores it)")
    parser.add_argument("--grid", type=_power_of_two, default=256,
                        help="grid size per axis, power of two (default 256)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (csv applies to scan tables)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="extended determinant of I + A for a matrix file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_det)
    p = sub.add_parser("trace", help="extended trace of a matrix file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_trace)
    p = sub.add_parser("symbol2matrix", help="matrix of a symbol on a window")
    p.add_argument("file")
    p.add_argument("--radius", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_symbol2matrix)
    p = sub.add_parser("diagnose", help="ellipticity, order and summability reports")
    p.add_argument("file")
    p.set_defaults(func=_cmd_diagnose)
    hill = sub.add_parser("hill", help="Hill determinant method")
    hill_sub = hill.add_subparsers(dest="hill_command", required=True)
    p = hill_sub.add_parser("check", help="existence of nontrivial periodic solutions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_hill_check)
    p = hill_sub.add_parser("scan", help="determinant roots over a spectral shift grid")
    p.add_argument("file")
    p.set_defaults(func=_cmd_hill_scan)
    return parser


def _cmd_det(args):
    matrix, tail = docio.parse_input(args.file, "matrix")
    result = poincare_determinant(matrix, tail, args.tol, max_radius=args.max_radius)
    return EXIT_OK, {"command": "det", **docio.determinant_doc(result)}


def _cmd_trace(args):
    matrix, tail = docio.parse_input(args.file, "matrix")
    result = poincare_trace(matrix, tail, args.tol)
    return EXIT_OK, {
        "command": "trace",
        "value": docio.complex_doc(result.value),
        "certified_error": float(result.certified_error),
    }


def _cmd_symbol2matrix(args):
    symbol = docio.parse_input(args.file, "symbol")
    window = TruncationWindow(args.radius, symbol.dimension)
    matrix, _ = symbol_to_matrix(symbol, window)
    entries = docio.Table({"row": matrix.rows, "col": matrix.cols,
                           "re": matrix.vals.real, "im": matrix.vals.imag})
    # the l1 norm inside each power-of-two radius and the radius itself
    radii = sorted({1 << k for k in range(args.radius.bit_length())} | {args.radius})
    norms = docio.Table({"radius": radii, "l1_norm": [_mass(matrix.vals[matrix.entry_radii <= r]) for r in radii]})
    return EXIT_OK, {
        "command": "symbol2matrix",
        "dimension": matrix.dimension,
        "radius": args.radius,
        "l1_norm": matrix.l1_norm,
        "entries": entries,
        "norm_ladder": norms,
    }


def _cmd_diagnose(args):
    symbol = docio.parse_input(args.file, "symbol")
    n = symbol.dimension
    window_radius = min(args.max_radius, 64)
    window = TruncationWindow(window_radius, n)
    # order fits difference tables per x sample; a handful of samples is
    # plenty, while the ellipticity sweep honors the requested grid (with a
    # per-axis cap so the n-dimensional sample count stays bounded)
    x_grid = min(args.grid, 256 if n == 1 else 16)
    order = symbol_order_diagnostic(symbol, (2,) * n, window, x_grid=min(x_grid, 8))
    fits = list(order.fits.values())
    m_for_ellipticity = symbol.order_m if symbol.order_m is not None else order.order_estimate
    ellipt = strong_ellipticity_check(symbol, m_for_ellipticity, window, x_grid=x_grid)
    radii = [r for r in (4, 8, 16, 32, 64, window_radius) if r <= window_radius]
    # the summability rule reads m from the order fit above, not from a fit of its own
    membership = l1_membership_check(symbol, radii, order_m=m_for_ellipticity)
    warning = membership.warning
    if symbol.order_m is None:
        estimated = f"order estimated from decay fit: m ~ {m_for_ellipticity:.3f}"
        warning = f"{estimated}; {warning}" if warning else estimated
    return EXIT_OK, {
        "command": "diagnose",
        "order_estimate": order.order_estimate,
        "order_fits": docio.Table({"alpha": [fit.alpha for fit in fits], "exponent": [fit.exponent for fit in fits],
                                   "constant": [fit.constant for fit in fits]}),
        "strong_ellipticity": {
            "order_m": float(m_for_ellipticity),
            "passed": ellipt.passed,
            "C0": ellipt.C0,
            "n0": ellipt.n0,
        },
        "l1_membership": {
            "in_l1": membership.in_l1,
            "order_used": membership.order_used,
            "warning": warning,
            "ladder": docio.Table({"radius": [r for r, _ in membership.ladder],
                                   "l1_norm": [v for _, v in membership.ladder]}),
        },
    }


def _cmd_hill_check(args):
    problem, _ = docio.parse_input(args.file, "hill")
    result = existence_test(problem, tol=args.tol, max_radius=args.max_radius)
    doc = {
        "command": "hill check",
        "decision": result.decision,
        "kernel_certified": result.kernel_certified,
        "determinant": docio.determinant_doc(result.determinant),
    }
    if result.decision == "nontrivial-solution":
        window = TruncationWindow(min(args.max_radius, 16), problem.dimension)
        try:
            sol = extract_null_solution(problem, window)
            kept = [(k, v) for k, v in sorted(sol.coefficients.items()) if abs(v) > 1e-12]
            doc["solution"] = {
                "window_radius": window.radius,
                "residual": sol.residual,
                "regularity_mass": sol.regularity_mass,
                "regularity_bound": sol.regularity_bound,
                "singular_value": sol.singular_value,
                "coefficients": docio.Table({"index": [k for k, _ in kept], "re": [v.real for _, v in kept],
                                             "im": [v.imag for _, v in kept]}),
            }
        except NoNullSolutionError as err:
            doc["solution"] = {"error": str(err), "singular_value": err.singular_value}
    status = EXIT_UNDECIDED if result.decision == "undecided" else EXIT_OK
    return status, doc


def _cmd_hill_scan(args):
    problem, scan_params = docio.parse_input(args.file, "hill")
    if scan_params is None:
        raise docio.ValidationError("hill.scan", "scan command needs a scan block")
    lambdas = np.linspace(
        scan_params["lambda_min"], scan_params["lambda_max"], scan_params["steps"]
    )
    scan = spectral_shift_scan(
        problem, lambdas.tolist(), args.tol,
        radius=min(args.max_radius, 32),
    )
    table = docio.Table({"lambda": scan.lambdas, "det": np.asarray(scan.values, np.complex128),
                         "certified_error": scan.certified})
    if args.format == "csv":
        return EXIT_OK, docio.dumps_csv(table)
    return EXIT_OK, {
        "command": "hill scan",
        "roots": docio.Table({"lambda": [lam for lam, _ in scan.roots], "abs_det": [mag for _, mag in scan.roots],
                              "multiplicity": scan.multiplicities}),
        "brackets": docio.Table({"lo": [lo for lo, _ in scan.brackets], "hi": [hi for _, hi in scan.brackets]}),
        "failures": [{"lo": f.lo, "hi": f.hi, "reason": f.reason} for f in scan.failures],
        "table": table,
    }


def main(argv=None):
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        status, doc = args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (docio.ParseError, docio.ValidationError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (NonConvergenceError, ValueError) as err:
        print(f"computation error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if isinstance(doc, str):
        sys.stdout.write(doc)
    else:
        sys.stdout.write(docio.dumps_fixed(doc) + "\n")
    print(f"elapsed_seconds: {time.monotonic() - started:.3f}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
