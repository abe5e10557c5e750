"""Shared fixtures: the test corpus and independent symbolic oracles.

The oracles deliberately avoid the package's own assembly loops: products and
Laplacians are expanded through sympy on independent commuting variables
(z_i for the holomorphic side, w_i standing in for the conjugates), then
coefficients are extracted exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from hsos import formats, forms, multiindex as mi
from hsos.exact import QC_ZERO, qc
from hsos.forms import HermitianForm


def to_sympy(form: HermitianForm):
    zs = sp.symbols(f"z0:{form.n}")
    ws = sp.symbols(f"w0:{form.n}")
    expr = sp.Integer(0)
    for (a, b), c in form.coeffs.items():
        coeff = sp.Rational(c.re) + sp.I * sp.Rational(c.im)
        mono = sp.Integer(1)
        for z, e in zip(zs, a):
            mono *= z**e
        for w, e in zip(ws, b):
            mono *= w**e
        expr += coeff * mono
    return expr, zs, ws


def coeffs_from_expr(expr, zs, ws) -> dict:
    expr = sp.expand(expr)
    poly = sp.Poly(expr, *zs, *ws)
    n = len(zs)
    out = {}
    for monom, coeff in poly.terms():
        a, b = tuple(monom[:n]), tuple(monom[n:])
        re, im = coeff.as_real_imag()
        val = qc(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
        if not val.is_zero:
            out[(a, b)] = val
    return out


def quarter_laplacian_oracle(form: HermitianForm) -> dict:
    """sum_i d/dz_i d/dw_i of the symbolic form, coefficients extracted exactly."""
    expr, zs, ws = to_sympy(form)
    lap = sp.Integer(0)
    for z, w in zip(zs, ws):
        lap += sp.diff(expr, z, w)
    return coeffs_from_expr(lap, zs, ws)


def product_expansion_oracle(form: HermitianForm, N: int) -> dict:
    """Coefficients of <z, z̄>^N * f by symbolic multiplication."""
    expr, zs, ws = to_sympy(form)
    inner = sum(z * w for z, w in zip(zs, ws))
    return coeffs_from_expr(sp.expand(expr * inner**N), zs, ws)


def coordinate_power(n: int, m: int, i: int = 0) -> HermitianForm:
    """|z_i|^(2m)."""
    alpha = tuple(m if j == i else 0 for j in range(n))
    return HermitianForm.from_terms(n, m, [(alpha, alpha, qc(1))])


def save_form(form: HermitianForm, path) -> None:
    """Write a form file as the shipped ones are written: stable JSON and a newline."""
    Path(path).write_text(formats.dumps_stable(formats.form_to_dict(form)) + "\n")


def random_hermitian_form(rng: random.Random, n: int, m: int, max_terms: int = 6) -> HermitianForm:
    basis = list(mi.iter_degree(n, m))
    triples = []
    for _ in range(rng.randint(1, max_terms)):
        a = rng.choice(basis)
        b = rng.choice(basis)
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if a == b:
            c = qc(re)
            triples.append((a, b, c))
        else:
            c = qc(re, im)
            triples.append((a, b, c))
            triples.append((b, a, c.conj()))
    return HermitianForm.from_terms(n, m, triples)


def random_sos_form(rng: random.Random, n: int, m: int, squares: int = 2) -> HermitianForm:
    """f = sum_j |Q_j|^2 for random holomorphic Q_j: PSD coefficient matrix by construction."""
    basis = list(mi.iter_degree(n, m))
    acc: dict = {}
    for _ in range(squares):
        vec = {
            a: qc(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            for a in rng.sample(basis, min(len(basis), rng.randint(1, 3)))
        }
        for a, ca in vec.items():
            for b, cb in vec.items():
                key = (a, b)
                acc[key] = acc.get(key, QC_ZERO) + ca * cb.conj()
    return HermitianForm(n, m, acc)


C_GRID = [Fraction(k, 4) for k in range(1, 8)]  # 1/4 .. 7/4


def diag_n3_form(c=Fraction(1, 2)) -> HermitianForm:
    c = Fraction(c)
    return HermitianForm.from_terms(
        3,
        2,
        [
            ((2, 0, 0), (2, 0, 0), qc(1)),
            ((0, 2, 0), (0, 2, 0), qc(1)),
            ((0, 0, 2), (0, 0, 2), qc(1)),
            ((1, 1, 0), (1, 1, 0), qc(-c)),
            ((1, 0, 1), (1, 0, 1), qc(-c)),
            ((0, 1, 1), (0, 1, 1), qc(-c)),
        ],
    )


def add_forms(a: HermitianForm, b: HermitianForm) -> HermitianForm:
    """a + b, built by HermitianForm.from_terms, which sums the terms the two share."""
    return HermitianForm.from_terms(a.n, a.m, [(*key, c) for f in (a, b) for key, c in f.coeffs.items()])


def ridge_form() -> HermitianForm:
    """|z1^2 + z2^2|^2 + <z, z̄>^2, non-diagonal with sphere minimum 1."""
    sq = HermitianForm.from_terms(
        2,
        2,
        [
            ((2, 0), (2, 0), qc(1)),
            ((0, 2), (0, 2), qc(1)),
            ((2, 0), (0, 2), qc(1)),
            ((0, 2), (2, 0), qc(1)),
        ],
    )
    return add_forms(sq, forms.inner_power(2, 2))


def polya_diag_n2() -> HermitianForm:
    return HermitianForm.from_terms(
        2,
        3,
        [
            ((3, 0), (3, 0), qc(1)),
            ((0, 3), (0, 3), qc(1)),
            ((2, 1), (2, 1), qc(Fraction(-1, 2))),
            ((1, 2), (1, 2), qc(Fraction(-1, 2))),
        ],
    )


# the file that the floating-point certify of earlier versions wrote for fc_1 at N = 1: an input error now
FLOAT_CERTIFICATE = {
    "format_version": 1, "n": 2, "m": 2, "N": 1, "mode": "float",
    "squares": [
        {"weight": 1.0, "coefficients": [{"index": [3, 0], "re": 1.0, "im": 0.0}]},
        {"weight": 1.0, "coefficients": [{"index": [0, 3], "re": 1.0, "im": 0.0}]},
    ],
    "verification": {"status": "float-pass", "residual": 0.0},
    "form": formats.form_to_dict(forms.fc_form(1)),
}


@pytest.fixture(scope="session")
def positive_corpus():
    """(name, form, exact lambda or None) with lambda > 0, used across criteria."""
    corpus = [(f"fc({c})", forms.fc_form(c), Fraction(2 - c) / 4) for c in C_GRID]
    corpus += [
        ("<z,z>^1", forms.inner_power(2, 1), Fraction(1)),
        ("<z,z>^2", forms.inner_power(2, 2), Fraction(1)),
        ("<z,z>^2,n=3", forms.inner_power(3, 2), Fraction(1)),
        ("diag_n3(1/2)", diag_n3_form(), Fraction(1, 6)),
        ("polya_n2_m3", polya_diag_n2(), Fraction(1, 8)),
        ("ridge", ridge_form(), Fraction(1)),
    ]
    return corpus


@pytest.fixture(scope="session")
def mixed_corpus(positive_corpus):
    """Positive corpus plus indefinite and SOS-built forms for structural invariants."""
    rng = random.Random(421)
    extra = [
        ("fc(2)", forms.fc_form(2), Fraction(0)),
        ("|z1|^4", coordinate_power(2, 2, 0), Fraction(0)),
    ]
    for i in range(4):
        n = rng.choice([2, 3])
        m = rng.choice([1, 2])
        extra.append((f"sos{i}", random_sos_form(rng, n, m), None))
    return positive_corpus + extra
