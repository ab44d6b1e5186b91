"""Command-line interface for evaluations, identity checks, and sweeps.

Exit codes: 0 when every check passes (or a pure evaluation succeeds),
1 when any check fails, 2 on a usage error, an errored check or a typed
error a check would record (``verify.RECOVERABLE``).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .hypergeom import gauss_2f1
from .matrices import HgParams
from .series import IM_TAU_CEILING, IM_TAU_FLOOR, TauPoint, lambda_tau, theta
from .verify import (RECOVERABLE, CheckResult, VerificationReport, run_sweep,
                     verify_entry22, verify_series_identities, verify_tpr)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _add_tau_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau-re", type=float, default=0.0,
                        help="real part of tau (default 0)")
    parser.add_argument("--tau-im", type=float, default=1.0,
                        help=f"imaginary part of tau (default 1, "
                             f"{IM_TAU_FLOOR:g} <= Im tau <= "
                             f"{IM_TAU_CEILING:g})")


def _add_abg_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--gamma", type=float, required=True)


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", default="default",
                        help="tolerance profile name or a number")
    parser.add_argument("--json", dest="json_out", default=None,
                        metavar="PATH|stdout", help="write a JSON report")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-check lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistedperiods",
        description="Theta-function period identities: evaluate and verify.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="evaluate theta_1..4(u, tau)")
    p_theta.add_argument("--u", type=float, default=0.0)
    _add_tau_flags(p_theta)

    p_lambda = sub.add_parser("lambda", help="evaluate lambda(tau)")
    _add_tau_flags(p_lambda)

    p_2f1 = sub.add_parser("2f1", help="evaluate 2F1(alpha, beta; gamma; z)")
    _add_abg_flags(p_2f1)
    p_2f1.add_argument("--z", type=float, default=None,
                       help="series argument (default lambda(tau))")
    _add_tau_flags(p_2f1)

    p_tpr = sub.add_parser("tpr", help="verify the quadratic period relations")
    tpr_sub = p_tpr.add_subparsers(dest="variant", required=True)
    for variant, desc in (("full", "full 4x4 relation"),
                          ("blocks", "2x2 eigenspace blocks + orthogonality"),
                          ("entry22", "reduced (2,2)-entry identity")):
        p_var = tpr_sub.add_parser(variant, help=desc)
        if variant == "entry22":
            p_var.add_argument("--a", type=float, required=True)
            p_var.add_argument("--b", type=float, required=True)
            p_var.add_argument("--c", type=float, required=True)
        else:
            _add_abg_flags(p_var)
        _add_tau_flags(p_var)
        _add_report_flags(p_var)

    p_ident = sub.add_parser("identities", help="q-series identity suite")
    _add_tau_flags(p_ident)
    _add_report_flags(p_ident)

    p_sweep = sub.add_parser("sweep", help="seeded sweep of all checks")
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--count", type=int, default=10)
    _add_report_flags(p_sweep)

    return parser


def _tau_from_args(args) -> TauPoint:
    return TauPoint(complex(args.tau_re, args.tau_im))


def _emit_report(checks: list[CheckResult], seed: int, args) -> int:
    report = VerificationReport(tool_version=__version__, seed=seed,
                                checks=list(checks))
    if not args.quiet:
        for c in report.checks:
            if c.error is not None:
                line = f"ERROR {c.name}: {c.error}"
            else:
                verdict = "pass" if c.passed else "FAIL"
                line = (f"{verdict}  {c.name}  residual={c.residual:.3e}  "
                        f"tol={c.tolerance:.0e}")
            print(line)
        s = report.summary
        print(f"summary: {s['pass']} pass, {s['fail']} fail, "
              f"{s['errored']} errored")
    if args.json_out is not None:
        text = report.to_json()
        if args.json_out == "stdout":
            print(text)
        else:
            try:
                with open(args.json_out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
    s = report.summary
    if s["errored"]:
        return EXIT_USAGE
    return EXIT_PASS if s["fail"] == 0 else EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "theta":
            tau = _tau_from_args(args)
            for j in (1, 2, 3, 4):
                value = complex(theta(j, args.u, tau))
                print(f"theta{j}({args.u}, tau) = {value.real:+.15e} "
                      f"{value.imag:+.15e}j")
            return EXIT_PASS
        if args.command == "lambda":
            value = lambda_tau(_tau_from_args(args))
            print(f"lambda(tau) = {value.real:+.15e} {value.imag:+.15e}j")
            return EXIT_PASS
        if args.command == "2f1":
            z = args.z if args.z is not None else lambda_tau(_tau_from_args(args))
            value = gauss_2f1(args.alpha, args.beta, args.gamma, z)
            print(f"2F1 = {value.real:+.15e} {value.imag:+.15e}j")
            return EXIT_PASS
        if args.command == "tpr":
            tau = _tau_from_args(args)
            if args.variant in ("full", "blocks"):
                p = HgParams(args.alpha, args.beta, args.gamma)
                full, *blocks = verify_tpr(p, tau, args.tol)
                checks = [full] if args.variant == "full" else blocks
            else:
                checks = verify_entry22(args.a, args.b, args.c, tau, args.tol)
            return _emit_report(checks, seed=0, args=args)
        if args.command == "identities":
            checks = verify_series_identities(_tau_from_args(args), args.tol)
            return _emit_report(checks, seed=0, args=args)
        if args.command == "sweep":
            report = run_sweep(args.seed, args.count, args.tol)
            return _emit_report(report.checks, seed=args.seed, args=args)
    except (*RECOVERABLE, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
