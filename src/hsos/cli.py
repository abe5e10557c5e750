"""Command-line front end.

Subcommands: analyze | certify | verify | search | bounds | audit.
Exit codes: 0 ok, 1 negative verdict, 2 input error, 3 resource cap,
4 numerical non-convergence.  Machine-readable output (--json) is a stable,
versioned schema: identical invocations produce byte-identical documents.

A CLI process runs BLAS on one thread unless OPENBLAS_NUM_THREADS is set:
every matrix hsos builds is small, and an idle OpenBLAS worker busy-waits on
a second core for the life of the process.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy (or scipy) first loads OpenBLAS

from . import formats
from . import forms as forms_mod
from . import multiplier as mult

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4
SAMPLES_CAP = 2_000_000  # audit --samples: each suite draws at most this many points at once


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(formats.dumps_stable({"format_version": formats.FORMAT_VERSION, **payload}))
    else:
        for line in human_lines:
            print(line)


def _finite(x):
    """x, or None (JSON null) where x is a nan or infinite float."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def cmd_analyze(args) -> int:
    from . import spheremin  # the float layers load on first use, so the exact commands load no numpy
    form = formats.load_form(args.form)
    lam, sharp = spheremin.sphere_range(form)
    big = forms_mod.big_lambda(form)
    lt = forms_mod.lambda_tilde(form)
    diagonal = forms_mod.is_diagonal(form)
    payload = {
        "command": "analyze",
        "n": form.n,
        "m": form.m,
        "terms": len(form.coeffs),
        "diagonal": diagonal,
        "lambda": lam.value,
        "lambda_uncertainty": _finite(lam.uncertainty),
        "lambda_certified": lam.certified,
        "big_lambda": big,
        "big_lambda_sq": formats.format_rational(forms_mod.big_lambda_sq(form)),
        "lambda_tilde": formats.format_rational(lt),
        "lambda_sharp": sharp.value,
        "converged": lam.converged and sharp.converged,
    }
    unc = f" (+- {lam.uncertainty:.3e} certified)" if lam.certified else " (uncertified)"
    _emit(
        args,
        payload,
        [
            f"form: n = {form.n}, m = {form.m}, {len(form.coeffs)} coefficient(s), "
            f"{'diagonal' if diagonal else 'non-diagonal'}",
            f"lambda       (sphere min)      = {lam.value:.12g}{unc}",
            f"Lambda       (weighted Frob.)  = {big:.12g}  [Lambda^2 = {forms_mod.big_lambda_sq(form)}]",
            f"Lambda-tilde (diagonal max)    = {float(lt):.12g}  [= {lt}]",
            f"Lambda-sharp (sphere sup |f|)  = {sharp.value:.12g}",
        ],
    )
    if not (lam.converged and sharp.converged):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_certify(args) -> int:
    form = formats.load_form(args.form)
    if args.out and not Path(args.out).parent.is_dir():
        raise formats.ParseError(f"cannot write {args.out}: no such directory")
    try:
        cert = mult.sos_decompose(form, args.N, size_cap=args.size_cap)
    except mult.NotPsdError as exc:
        support = [(i, str(w)) for i, w in enumerate(exc.witness) if not w.is_zero]
        _emit(
            args,
            {
                "command": "certify",
                "N": args.N,
                "psd": False,
                "witness_value": str(exc.witness_value),
            },
            [f"not a sum of squares at N = {args.N}: {exc}; witness support {support}, value {exc.witness_value}"],
        )
        return EXIT_NEGATIVE
    if args.out:
        formats.save_certificate(cert, args.out, form=form)
    payload = {
        "command": "certify",
        "N": args.N,
        "psd": True,
        "mode": "exact",
        "squares": cert.num_squares(),
        "verified": cert.verified,
        "residual": cert.residual,
        "out": args.out,
    }
    _emit(
        args,
        payload,
        [
            f"PSD at N = {args.N}: {cert.num_squares()} squares, verification {cert.verified}",
            f"certificate written to {args.out}" if args.out else "no --out given; certificate not saved",
        ],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    cert, form = formats.load_certificate(args.certificate)
    status, residual = mult.verify_certificate(form, cert, size_cap=args.size_cap)
    payload = {
        "command": "verify",
        "N": cert.N,
        "mode": "exact",
        "status": status,
        "residual": residual,
    }
    _emit(args, payload, [f"certificate at N = {cert.N} (exact mode): {status}"])
    return EXIT_OK if status == "exact-pass" else EXIT_NEGATIVE


def cmd_search(args) -> int:
    form = formats.load_form(args.form)
    found = mult.minimal_sos_N(form, args.n_max, size_cap=args.size_cap)
    payload = {"command": "search", "n_max": args.n_max, "minimal_N": found}
    if found is None:
        _emit(args, payload, [f"no PSD multiplier matrix up to N = {args.n_max}"])
        return EXIT_NEGATIVE
    _emit(args, payload, [f"minimal N = {found}"])
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod
    form = formats.load_form(args.form)
    C = Fraction(args.C).limit_denominator(10**9)
    if C == 0 and args.C != 0:
        raise ValueError(f"--C {args.C} rounds to 0 at the 1e-9 resolution of the universal constant")
    report = bounds_mod.bound_report(
        form,
        C=C,
        n_max=args.n_max,
        size_cap=args.size_cap,
    )

    def show(x, overflow=False):
        if overflow:
            return "overflow"
        return "n/a" if x is None else str(x)

    payload = {
        "command": "bounds",
        "lambda": report.lambda_value,
        "big_lambda": report.big_lambda,
        "lambda_tilde": report.lambda_tilde,
        "lambda_sharp": report.lambda_sharp,
        "diagonal": report.diagonal,
        "empirical_minimal_N": report.empirical_minimal_N,
        "certified_N": report.certified_N,
        "powers_resnick_N": report.powers_resnick_N,
        "to_yeung_N": report.to_yeung_N,
        "nie_schweighofer_N": str(report.nie_schweighofer_N)
        if report.nie_schweighofer_N is not None
        else None,
        "nie_schweighofer_overflow": report.nie_schweighofer_overflow,
        "universal_C_used": formats.format_rational(report.universal_C_used),
        "smallest_sufficient_C": formats.format_rational(report.smallest_sufficient_C)
        if report.smallest_sufficient_C is not None
        else None,
        "checks": report.checks,
        "notes": report.notes,
    }
    lines = [
        f"invariants: lambda = {report.lambda_value:.6g}, Lambda = {report.big_lambda:.6g}, "
        f"Lambda-tilde = {report.lambda_tilde:.6g}, Lambda-sharp = {report.lambda_sharp:.6g}",
        f"{'bound':<28}{'N':>16}",
        f"{'empirical minimal':<28}{show(report.empirical_minimal_N):>16}",
        f"{'semiclassical (C=' + str(report.universal_C_used) + ')':<28}{show(report.certified_N):>16}",
        f"{'Powers-Resnick (diagonal)':<28}{show(report.powers_resnick_N):>16}",
        f"{'To-Yeung':<28}{show(report.to_yeung_N):>16}",
        f"{'Nie-Schweighofer':<28}{show(report.nie_schweighofer_N, report.nie_schweighofer_overflow):>16}",
        f"smallest sufficient C (1/64 grid): {show(report.smallest_sufficient_C)}",
    ]
    if report.notes:
        lines.append("notes: " + "; ".join(f"{k}: {v}" for k, v in sorted(report.notes.items())))
    if report.checks:
        bad = [k for k, ok in report.checks.items() if not ok]
        lines.append("cross-checks: " + ("all hold" if not bad else f"FAILED: {bad}"))
    _emit(args, payload, lines)
    if report.checks and not all(report.checks.values()):
        return EXIT_NEGATIVE
    return EXIT_OK


# the audit options each suite reads; --suite all reads every one
_SUITE_OPTIONS = {
    "laplacian": ("form", "samples"),
    "radial": ("M", "n"),
    "tails": ("rho", "delta"),
    "localization": ("h", "epsilon", "N", "k", "m", "n", "samples"),
    "basic": ("form", "h", "epsilon", "N"),
}


def _audit_reports(args) -> list:
    from . import audit as audit_mod
    reports: list[audit_mod.AuditReport] = []
    suite = args.suite
    form = formats.load_form(args.form) if args.form else None  # an unreadable --form is an input error in any suite
    if suite != "all":  # an option the suite does not read is refused before any work, not silently ignored
        options = dict.fromkeys(name for names in _SUITE_OPTIONS.values() for name in names)
        reads = _SUITE_OPTIONS[suite]
        unread = [f"--{name}" for name in options if name not in reads and getattr(args, name) is not None]
        if unread:
            raise ValueError(f"--suite {suite} does not read {', '.join(unread)}")
    if form is None and suite in ("laplacian", "basic"):
        raise formats.ParseError(f"--suite {suite} requires --form")

    if suite in ("laplacian", "all") and form is not None:
        samples = min(10_000 if args.samples is None else args.samples, SAMPLES_CAP)
        reports.extend(audit_mod.check_laplacian_powers(form, samples=samples))

    if suite in ("radial", "all"):
        for M in [0, 1, 5, 10, 25, 50] if args.M is None else [args.M]:
            for n in [1, 2, 3, 6] if args.n is None else [args.n]:
                reports.append(audit_mod.radial_I1(M, n))

    if suite in ("tails", "all"):
        rhos = [args.rho] if args.rho is not None else [5, 10, 20, 50, 100]
        deltas = [args.delta] if args.delta is not None else [0.1, 0.3, 0.5, 0.7, 0.9]
        for rho in rhos:
            for delta in deltas:
                reports.append(audit_mod.tail_J(rho, delta))
        reports.append(audit_mod.tail_delta_inequality())

    if suite in ("localization", "all"):
        n = 2 if args.n is None else args.n
        m = 2 if args.m is None else args.m
        N = 320 if args.N is None else args.N
        if args.h is None and N < 1:  # h = 1/N is derived, so the error names the option the user set
            raise ValueError(f"--N must be at least 1 when --h is not given, got {N}")
        h = 1.0 / N if args.h is None else args.h
        eps = audit_mod.default_epsilon(h) if args.epsilon is None else args.epsilon
        params = audit_mod.RegimeParams(h=h, N=N, m=m, n=n, epsilon=eps)
        reports.append(audit_mod.check_sigma_window(params))
        ks = [args.k] if args.k is not None else list(range(m + 1))
        reports.extend(audit_mod.localization_report(params, k) for k in ks)
        mc_samples = min(200_000 if args.samples is None else args.samples, SAMPLES_CAP)
        reports.append(audit_mod.mc_localization_check(2, 6, 2, h=1.0 / 6.0, epsilon=0.3, samples=mc_samples))

    if suite in ("basic", "all") and form is not None:
        params = None
        if args.h is not None:  # checked before λ, whose sphere pass is the slow part
            h = audit_mod.require_positive_h(args.h)
            N = max(1, math.ceil(1.0 / h)) if args.N is None else args.N
            eps = audit_mod.default_epsilon(h) if args.epsilon is None else args.epsilon
            params = audit_mod.RegimeParams(h=h, N=N, m=form.m, n=form.n, epsilon=eps)
        elif suite == "basic":  # the h0 scan reads neither; --suite all passes both to localization
            for name in ("N", "epsilon"):
                if getattr(args, name) is not None:
                    raise ValueError(f"--{name} needs --h in the basic suite")
        lam = forms_mod.lambda_min(form).value
        big = forms_mod.big_lambda(form)
        if params is not None:
            reports.append(audit_mod.basic_rhs(form, params, lam, big)[1])
        else:
            scan = audit_mod.empirical_h0(form, lambda_value=lam, big_lambda_value=big)
            notes = (
                f"h0 = {scan.h0}, implied N = {scan.implied_N}"
                if scan.found
                else f"no positive RHS ({scan.note})"
            )
            reports.append(
                audit_mod.AuditReport(
                    "empirical-h0",
                    {"grid_points": scan.grid_points},
                    scan.h0 if scan.h0 is not None else math.nan,
                    0.0,
                    math.nan,
                    scan.found,
                    notes=notes,
                )
            )
    return reports


def cmd_audit(args) -> int:
    reports = _audit_reports(args)
    payload = {
        "command": "audit",
        "suite": args.suite,
        "reports": [
            {
                "check": r.check_name,
                "parameters": r.parameters,
                "lhs": _finite(r.lhs),
                "rhs": _finite(r.rhs),
                "ratio": _finite(r.ratio),
                "pass": r.passed,
                "notes": r.notes,
            }
            for r in reports
        ],
    }
    good = sum(r.passed for r in reports)
    _emit(args, payload, [r.line() for r in reports] + [f"{good}/{len(reports)} checks passed"])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NEGATIVE


# every negative float is a value, -1e-3 and -inf too: argparse's own pattern takes only -1 and -0.5
# for numbers, so `--h -1e-3` stopped at "expected one argument" before reaching the validator
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsos",
        description="Hermitian sum-of-squares certificates, shift bounds, and numerical audits",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--size-cap", type=int, help=f"matrix dimension cap for search, certify, verify, bounds (default {mult.DEFAULT_SIZE_CAP})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="scalar invariants of a form")
    p.add_argument("form")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("certify", help="extract and verify an SOS certificate at shift N")
    p.add_argument("form")
    p.add_argument("N", type=int)
    p.add_argument("--out", help="write the certificate file here")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="re-verify a stored certificate")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="minimal shift N with a PSD multiplier matrix")
    p.add_argument("form")
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("bounds", help="evaluate all published sufficient bounds")
    p.add_argument("form")
    p.add_argument("--C", type=float, default=1.0, help="universal constant of the semiclassical bound")
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("audit", help="numerical verification suites")
    p.add_argument(
        "--suite",
        choices=["laplacian", "radial", "tails", "localization", "basic", "all"],
        default="all",
    )
    p.add_argument("--form", help="form file (laplacian and basic suites)")
    p.add_argument("--rho", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument(
        "--samples", type=int, help="default 10000 (laplacian), 200000 (localization Monte-Carlo); at most 2000000"
    )
    p.set_defaults(fn=cmd_audit)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.size_cap is None:
            args.size_cap = mult.DEFAULT_SIZE_CAP
        elif args.command in ("analyze", "audit"):  # neither assembles a matrix
            raise ValueError(f"{args.command} does not read --size-cap")
        elif args.size_cap < 1:
            raise ValueError(f"--size-cap must be at least 1, got {args.size_cap}")
        for name in ("h", "epsilon", "rho", "delta", "C"):  # nan fails no range test such as h <= 0
            value = getattr(args, name, None)  # only audit and bounds have these options
            if value is not None and not math.isfinite(value):
                raise ValueError(f"--{name} must be finite, got {value}")
        return args.fn(args)
    except (formats.ParseError, OSError) as exc:  # OSError: an unwritable file, such as --out in a vanished directory
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except forms_mod.FormError as exc:
        print(f"invalid form: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except mult.SizeCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OverflowError, ZeroDivisionError) as exc:  # an out-of-range argument, such as N < 0
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:  # a radial quadrature or an incomplete gamma expansion that did not converge
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
