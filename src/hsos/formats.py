"""File formats: forms and certificates as versioned JSON documents.

Rationals cross the file boundary as strings "p/q" in lowest terms, so forms
and certificates reload bit-exactly.  On input one ASCII grammar holds on every
Python version: an optional sign and digits, then either "/" and digits (a
nonzero denominator) or an optional decimal part "." digits and an optional
exponent "e" or "E", sign and digits of magnitude at most 4300; surrounding
whitespace is ignored, and a JSON integer is read as itself.  In lowest terms
the numerator and denominator have at most 4300 digits each, Python's limit on
int-string digits, so every value read can be written again.  So "+3", "-0",
"3/06", "0.5", "1.25e2" and "1e4299" are read exactly, and "1_000", ".5",
"1/-2", "1e4300" and non-ASCII digits are errors.  Unknown fields and
duplicate coefficient keys are rejected, and so is a certificate whose mode is
not "exact" or whose verification block holds an unknown status or a residual
not null or finite.  A certificate always embeds its form, and one without it
is an error; loading one reads no other file.  The form fixes the shape: a
header n or m that is not the form's is an error, not a failed proof.
A square's coefficients are written in lowest terms, as `SosSquare` holds
them, each in one text fragment.  The squares array is written in one pass and
json.dumps(..., sort_keys=True, indent=2, allow_nan=False) writes every other
byte, so a certificate's bytes are those of json.dumps(doc, sort_keys=True,
indent=2) and a newline.  Integers are checked with `type(x) is int`, since
Python reads JSON true and false as the ints 1 and 0 (bool is a subclass of
int).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from . import multiindex as mi
from .exact import QC
from .forms import HermitianForm
from .multiplier import SosCertificate, SosSquare

FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message: str, context: str = ""):
        self.context = context
        super().__init__(f"{message}" + (f" (at {context})" if context else ""))


# an optional sign and ASCII digits, then "/digits" or a decimal part and an exponent, in optional whitespace
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?)\s*")
_DIGITS_LIMIT = 10**4300  # the least integer with more digits than Python's int-string limit allows


def _ratio(text, context: str) -> tuple[int, int]:
    """(p, q) in lowest terms, q > 0, for a JSON integer or a string of the rational grammar."""
    match = _RATIONAL.fullmatch(text) if type(text) is str else None
    if match is None:
        if type(text) is int:
            return text, 1
        if isinstance(text, float):
            raise ParseError(f"floating value {text!r} not allowed; use a string", context)
        if not isinstance(text, str):
            raise ParseError(f"expected rational string, got {type(text).__name__}", context)
        raise ParseError(f"malformed rational {text!r}", context)
    whole, den, decimal, exponent = match.groups()
    try:
        if den is None and decimal is None and exponent is None:
            return int(whole), 1
        if den is not None:
            p, q = int(whole), int(den)
            if not q:
                raise ValueError("zero denominator")
        else:
            e = int(exponent or 0)
            if abs(e) > 4300:  # Python's default limit on int-string digits
                raise ValueError("decimal exponent exceeds 4300 in magnitude")
            digits = decimal or ""
            p, e = int(whole + digits), e - len(digits)
            p, q = (p * 10**e, 1) if e >= 0 else (p, 10**-e)
    except ValueError as exc:  # also an integer over Python's limit on int-string digits
        raise ParseError(f"malformed rational {text!r}: {exc}", context) from None
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if abs(p) >= _DIGITS_LIMIT or q >= _DIGITS_LIMIT:
        raise ParseError(f"malformed rational {text!r}: more than 4300 digits in lowest terms", context)
    return p, q


def parse_rational(text, context: str = "") -> Fraction:
    """Exact rational from a JSON integer or a string of the rational grammar (see the module docstring)."""
    return Fraction(*_ratio(text, context))


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _expect_keys(obj: dict, allowed: set[str], required: set[str], context: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}", context)
    if obj.keys() <= allowed and obj.keys() >= required:
        return
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)}", context)
    raise ParseError(f"missing field(s) {sorted(required - set(obj))}", context)


def _parse_index(value, n: int, context: str) -> mi.MultiIndex:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ParseError(f"index must be a list of integers, got {value!r}", context)
    if len(value) != n:
        raise ParseError(f"index {value} has length {len(value)}, expected {n}", context)
    if min(value, default=0) < 0:
        raise ParseError(f"negative exponent in {value}", context)
    return tuple(value)


def form_to_dict(form: HermitianForm) -> dict:
    terms = []
    # a and b each have degree m, so descending lex on (a, b) is graded-lex on a, then on b
    for (alpha, beta), c in sorted(form.coeffs.items(), reverse=True):
        terms.append(
            {
                "alpha": list(alpha),
                "beta": list(beta),
                "re": format_rational(c.re),
                "im": format_rational(c.im),
            }
        )
    return {"format_version": FORMAT_VERSION, "n": form.n, "m": form.m, "terms": terms}


def _check_version(data: dict, context: str) -> None:
    version = data.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", context)


def form_from_dict(data: dict) -> HermitianForm:
    _expect_keys(data, {"format_version", "n", "m", "terms"}, {"n", "m", "terms"}, "form")
    _check_version(data, "form")
    n, m = data["n"], data["m"]
    if type(n) is not int or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}", "form")
    if type(m) is not int or m < 0:
        raise ParseError(f"m must be a non-negative integer, got {m!r}", "form")
    if not isinstance(data["terms"], list):
        raise ParseError("terms must be a list", "form")
    # the keys are distinct, so no term needs HermitianForm.from_terms; the form drops the zero terms
    # and raises a FormError for a term of the wrong degree or a c_ba that is not conj(c_ab)
    coeffs = {}
    for idx, term in enumerate(data["terms"]):
        ctx = f"terms[{idx}]"
        _expect_keys(term, {"alpha", "beta", "re", "im"}, {"alpha", "beta", "re"}, ctx)
        alpha = _parse_index(term["alpha"], n, ctx)
        beta = _parse_index(term["beta"], n, ctx)
        if (alpha, beta) in coeffs:
            raise ParseError(f"duplicate coefficient key ({alpha}, {beta})", ctx)
        coeffs[(alpha, beta)] = QC(parse_rational(term["re"], ctx), parse_rational(term.get("im", "0"), ctx))
    return HermitianForm(n, m, coeffs)


def _read_json(path):
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: line {exc.lineno} col {exc.colno}") from None
    except RecursionError:  # arrays or objects nested deeper than the interpreter's recursion limit
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path, or text that is not UTF-8
        raise ParseError(f"cannot read {path}: {exc}") from None


def load_form(path) -> HermitianForm:
    return form_from_dict(_read_json(path))


def certificate_from_dict(data: dict) -> tuple[SosCertificate, HermitianForm]:
    _expect_keys(
        data,
        {"format_version", "n", "m", "N", "mode", "squares", "verification", "form"},
        {"n", "m", "N", "mode", "squares", "form"},
        "certificate",
    )
    _check_version(data, "certificate")
    if data["mode"] != "exact":
        raise ParseError(f"mode must be 'exact', got {data['mode']!r}", "certificate")
    form = form_from_dict(data["form"])
    n, m, N = form.n, form.m, data["N"]
    if (type(data["n"]), type(data["m"]), data["n"], data["m"]) != (int, int, n, m):
        raise ParseError(f"(n, m) = ({data['n']!r}, {data['m']!r}) is not the embedded form's ({n}, {m})", "certificate")
    if type(N) is not int or N < 0:
        raise ParseError("N must be a non-negative integer", "certificate")
    if not isinstance(data["squares"], list):
        raise ParseError("squares must be a list", "certificate")
    squares = []
    for si, sq in enumerate(data["squares"]):
        ctx = f"squares[{si}]"
        _expect_keys(sq, {"weight", "coefficients"}, {"weight", "coefficients"}, ctx)
        weight = parse_rational(sq["weight"], ctx)
        if weight <= 0:
            raise ParseError(f"weight must be positive, got {weight}", ctx)
        if not isinstance(sq["coefficients"], list):
            raise ParseError("coefficients must be a list", ctx)
        parts: dict[mi.MultiIndex, tuple[tuple[int, int], tuple[int, int]]] = {}
        for ci, entry in enumerate(sq["coefficients"]):
            try:  # the context is built only for an error: a certificate may hold many coefficients
                _expect_keys(entry, {"index", "re", "im"}, {"index", "re"}, "")
                alpha = _parse_index(entry["index"], n, "")
                if sum(alpha) != m + N:
                    raise ParseError(f"index {alpha} has degree {sum(alpha)}, expected {m + N}")
                if alpha in parts:
                    raise ParseError(f"duplicate index {alpha}")
                parts[alpha] = _ratio(entry["re"], ""), _ratio(entry.get("im", 0), "")
            except ParseError as exc:
                raise ParseError(str(exc), f"{ctx}.coefficients[{ci}]") from None
        # over the lcm of the parts' reduced denominators, which leaves the square in lowest terms
        den = math.lcm(*(q for re_im in parts.values() for _, q in re_im))
        squares.append(SosSquare(weight, den, {alpha: (p * (den // q), r * (den // s))
                                               for alpha, ((p, q), (r, s)) in parts.items()}))
    verification = data.get("verification", {})
    _expect_keys(verification, {"status", "residual"}, set(), "verification")
    status, residual = verification.get("status", "unverified"), verification.get("residual")
    if status not in ("unverified", "exact-pass", "fail"):
        raise ParseError(f"unknown verification status {status!r}", "verification")
    if not (residual is None or type(residual) is int or (type(residual) is float and math.isfinite(residual))):
        raise ParseError(f"residual must be null or a finite number, got {residual!r}", "verification")
    return SosCertificate(n, m, N, tuple(squares), status, residual), form


def load_certificate(path) -> tuple[SosCertificate, HermitianForm]:
    return certificate_from_dict(_read_json(path))


def save_certificate(cert: SosCertificate, path, form: HermitianForm) -> None:
    Path(path).write_text(_certificate_text(cert, form))


def _certificate_text(cert: SosCertificate, form: HermitianForm) -> str:
    """The certificate document as json.dumps(doc, sort_keys=True, indent=2) writes it, and a newline.

    The squares array is written in one pass; every other value is `dumps_stable`'s
    text indented one level, which leaves its strings alone, since JSON strings hold no raw newline.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "n": cert.n,
        "m": cert.m,
        "N": cert.N,
        "mode": "exact",
        "squares": None,
        "verification": {"status": cert.verified, "residual": cert.residual},
        "form": form_to_dict(form),
    }
    fields = []
    for key, value in sorted(doc.items()):
        text = _squares_text(cert.squares) if key == "squares" else dumps_stable(value).replace("\n", "\n  ")
        fields.append(f'"{key}": {text}')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _over(x: int, den: int) -> str:
    """x / den in lowest terms, as format_rational writes it."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _squares_text(squares) -> str:
    """The squares as the value of a top-level key, each coefficient one text fragment."""
    index_text: dict[mi.MultiIndex, str] = {}  # alpha -> the text between "im" and "re"
    texts = []
    for sq in squares:
        den, fragments = sq.den, []
        for alpha, (re, im) in sorted(sq.coefficients.items(), reverse=True):  # one degree: graded-lex order
            if alpha not in index_text:
                exponents = ",\n            ".join(map(str, alpha))
                exponents = f"[\n            {exponents}\n          ]" if alpha else "[]"
                index_text[alpha] = f'",\n          "index": {exponents},\n          "re": "'
            fragments.append(f'{{\n          "im": "{_over(im, den)}{index_text[alpha]}{_over(re, den)}"\n        }}')
        listed = "[\n        " + ",\n        ".join(fragments) + "\n      ]" if fragments else "[]"
        texts.append(f'{{\n      "coefficients": {listed},\n      "weight": "{format_rational(sq.weight)}"\n    }}')
    return "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"


def dumps_stable(obj) -> str:
    """Deterministic RFC 8259 JSON (NaN and infinities raise ValueError): sorted keys, fixed separators.

    json.dumps writes every JSON byte hsos emits except a certificate's squares array.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
