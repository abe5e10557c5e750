"""File formats: forms and certificates as versioned JSON documents.

Rationals cross the file boundary as strings "p/q" (plain integers and decimal
strings are accepted on input and converted exactly), so exact-mode artifacts
reload bit-exactly.  Unknown fields and duplicate coefficient keys are
rejected.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import multiindex as mi
from .exact import QC, qc
from .forms import HermitianForm
from .multiplier import SosCertificate, SosSquare

FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message: str, context: str = ""):
        self.context = context
        super().__init__(f"{message}" + (f" (at {context})" if context else ""))


def parse_rational(text, context: str = "") -> Fraction:
    """Exact rational from "p/q", integer, or decimal notation with |exponent| <= 4300."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ParseError(f"floating value {text!r} not allowed; use a string", context)
    if not isinstance(text, str):
        raise ParseError(f"expected rational string, got {type(text).__name__}", context)
    try:
        exponent = text.lower().partition("e")[2]
        if exponent and abs(int(exponent)) > 4300:  # Python's default limit on int-string digits
            raise ValueError("decimal exponent exceeds 4300 in magnitude")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {text!r}: {exc}", context) from None


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _expect_keys(obj: dict, allowed: set[str], required: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)}", context)
    missing = required - set(obj)
    if missing:
        raise ParseError(f"missing field(s) {sorted(missing)}", context)


def _parse_index(value, n: int, context: str) -> mi.MultiIndex:
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise ParseError(f"index must be a list of integers, got {value!r}", context)
    if len(value) != n:
        raise ParseError(f"index {value} has length {len(value)}, expected {n}", context)
    if any(x < 0 for x in value):
        raise ParseError(f"negative exponent in {value}", context)
    return tuple(value)


def form_to_dict(form: HermitianForm) -> dict:
    terms = []
    for (alpha, beta), c in form.sorted_items():
        terms.append(
            {
                "alpha": list(alpha),
                "beta": list(beta),
                "re": format_rational(c.re),
                "im": format_rational(c.im),
            }
        )
    return {"format_version": FORMAT_VERSION, "n": form.n, "m": form.m, "terms": terms}


def form_from_dict(data: dict) -> HermitianForm:
    if not isinstance(data, dict):
        raise ParseError("form document must be a JSON object")
    _expect_keys(data, {"format_version", "n", "m", "terms"}, {"n", "m", "terms"}, "form")
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", "form")
    n, m = data["n"], data["m"]
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}", "form")
    if not isinstance(m, int) or m < 0:
        raise ParseError(f"m must be a non-negative integer, got {m!r}", "form")
    if not isinstance(data["terms"], list):
        raise ParseError("terms must be a list", "form")
    seen: set[tuple] = set()
    triples = []
    for idx, term in enumerate(data["terms"]):
        ctx = f"terms[{idx}]"
        if not isinstance(term, dict):
            raise ParseError("term must be an object", ctx)
        _expect_keys(term, {"alpha", "beta", "re", "im"}, {"alpha", "beta", "re"}, ctx)
        alpha = _parse_index(term["alpha"], n, ctx)
        beta = _parse_index(term["beta"], n, ctx)
        if (alpha, beta) in seen:
            raise ParseError(f"duplicate coefficient key ({alpha}, {beta})", ctx)
        seen.add((alpha, beta))
        re = parse_rational(term["re"], ctx)
        im = parse_rational(term.get("im", "0"), ctx)
        triples.append((alpha, beta, qc(re, im)))
    return HermitianForm.from_terms(n, m, triples)


def _read_json(path):
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: line {exc.lineno} col {exc.colno}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path, or text that is not UTF-8
        raise ParseError(f"cannot read {path}: {exc}") from None


def load_form(path) -> HermitianForm:
    return form_from_dict(_read_json(path))


def save_form(form: HermitianForm, path) -> None:
    Path(path).write_text(dumps_stable(form_to_dict(form)) + "\n")


def _coeff_to_json(value, mode: str):
    if mode == "exact":
        c = value if isinstance(value, QC) else qc(value)
        return format_rational(c.re), format_rational(c.im)
    z = complex(value)
    return z.real, z.imag


def _coeff_from_json(re, im, mode: str, context: str):
    if mode == "exact":
        return qc(parse_rational(re, context), parse_rational(im, context))
    return complex(_finite_float(re, "coefficients", context), _finite_float(im, "coefficients", context))


def _finite_float(value, what: str, context: str) -> float:
    """A JSON number as a finite float; json.loads also yields NaN, infinities and huge ints."""
    if isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ParseError(f"floating certificate {what} must be finite JSON numbers, got {value!r:.40}", context)


def certificate_to_dict(cert: SosCertificate, form: Optional[HermitianForm] = None) -> dict:
    squares = []
    for sq in cert.squares:
        coeffs = []
        for alpha in sorted(sq.coefficients, key=mi.graded_lex_key):
            re, im = _coeff_to_json(sq.coefficients[alpha], cert.mode)
            coeffs.append({"index": list(alpha), "re": re, "im": im})
        if cert.mode == "exact":
            weight = format_rational(sq.weight)
        else:
            weight = float(sq.weight)
        squares.append({"weight": weight, "coefficients": coeffs})
    doc = {
        "format_version": FORMAT_VERSION,
        "n": cert.n,
        "m": cert.m,
        "N": cert.N,
        "mode": cert.mode,
        "squares": squares,
        "verification": {"status": cert.verified, "residual": cert.residual},
    }
    if form is not None:
        doc["form"] = form_to_dict(form)
    return doc


def certificate_from_dict(data: dict) -> tuple[SosCertificate, Optional[HermitianForm]]:
    if not isinstance(data, dict):
        raise ParseError("certificate document must be a JSON object")
    _expect_keys(
        data,
        {"format_version", "n", "m", "N", "mode", "squares", "verification", "form", "form_path"},
        {"n", "m", "N", "mode", "squares"},
        "certificate",
    )
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", "certificate")
    mode = data["mode"]
    if mode not in ("exact", "float"):
        raise ParseError(f"mode must be 'exact' or 'float', got {mode!r}", "certificate")
    n, m, N = data["n"], data["m"], data["N"]
    for name, v in (("n", n), ("m", m), ("N", N)):
        if not isinstance(v, int) or v < 0:
            raise ParseError(f"{name} must be a non-negative integer", "certificate")
    if not isinstance(data["squares"], list):
        raise ParseError("squares must be a list", "certificate")
    squares = []
    for si, sq in enumerate(data["squares"]):
        ctx = f"squares[{si}]"
        if not isinstance(sq, dict):
            raise ParseError("square must be an object", ctx)
        _expect_keys(sq, {"weight", "coefficients"}, {"weight", "coefficients"}, ctx)
        if mode == "exact":
            weight = parse_rational(sq["weight"], ctx)
        else:
            weight = _finite_float(sq["weight"], "weights", ctx)
        if weight <= 0:
            raise ParseError(f"weight must be positive, got {weight}", ctx)
        if not isinstance(sq["coefficients"], list):
            raise ParseError("coefficients must be a list", ctx)
        coeffs: dict[mi.MultiIndex, object] = {}
        for ci, entry in enumerate(sq["coefficients"]):
            ectx = f"{ctx}.coefficients[{ci}]"
            if not isinstance(entry, dict):
                raise ParseError("coefficient must be an object", ectx)
            _expect_keys(entry, {"index", "re", "im"}, {"index", "re"}, ectx)
            alpha = _parse_index(entry["index"], n, ectx)
            if sum(alpha) != m + N:
                raise ParseError(f"index {alpha} has degree {sum(alpha)}, expected {m + N}", ectx)
            if alpha in coeffs:
                raise ParseError(f"duplicate index {alpha}", ectx)
            coeffs[alpha] = _coeff_from_json(entry["re"], entry.get("im", "0" if mode == "exact" else 0.0), mode, ectx)
        squares.append(SosSquare(weight, coeffs))
    verification = data.get("verification", {})
    status = verification.get("status", "unverified") if isinstance(verification, dict) else "unverified"
    residual = verification.get("residual") if isinstance(verification, dict) else None
    cert = SosCertificate(n, m, N, mode, tuple(squares), status, residual)

    form: Optional[HermitianForm] = None
    if "form" in data:
        form = form_from_dict(data["form"])
    elif "form_path" in data:
        if not isinstance(data["form_path"], str):
            raise ParseError("form_path must be a string", "certificate")
        form = load_form(data["form_path"])
    return cert, form


def load_certificate(path) -> tuple[SosCertificate, Optional[HermitianForm]]:
    return certificate_from_dict(_read_json(path))


def save_certificate(cert: SosCertificate, path, form: Optional[HermitianForm] = None) -> None:
    Path(path).write_text(dumps_stable(certificate_to_dict(cert, form)) + "\n")


def dumps_stable(obj) -> str:
    """Deterministic RFC 8259 JSON (NaN and infinities raise ValueError): sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
