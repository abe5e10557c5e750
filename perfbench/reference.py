"""Independent references for checking hsos outputs.

Nothing here imports hsos.  Forms arrive as the JSON documents the generator
writes ({"n", "m", "terms": [{"alpha", "beta", "re", "im"}]}), certificates as
the JSON documents hsos saves, and every quantity is recomputed from those
documents with separate code: a float multiplier matrix for eigenvalue checks,
exact Gaussian-rational evaluation for certificate identities, a numpy sphere
sample for the sphere minimum, and a strict RFC 8259 parser for CLI output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree `degree` in n variables (any fixed order)."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _terms(doc: dict) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction, Fraction]]:
    return [
        (tuple(t["alpha"]), tuple(t["beta"]), Fraction(t["re"]), Fraction(t.get("im", "0")))
        for t in doc["terms"]
    ]


class ShiftedMatrices:
    """Float coefficient matrices of ||z||^(2N) g over the degree-(m+N) monomials.

    Entry (alpha+mu, beta+mu) collects (N!/mu!) c_{alpha beta} over |mu| = N.
    """

    def __init__(self, n: int, m: int, N: int):
        self.n, self.m, self.N = n, m, N
        basis = monomials(n, m + N)
        self.index = {e: k for k, e in enumerate(basis)}
        self.dim = len(basis)
        self.shifts = [
            (mu, math.factorial(N) / math.prod(math.factorial(x) for x in mu))
            for mu in monomials(n, N)
        ]

    def matrix(self, doc: dict) -> np.ndarray:
        A = np.zeros((self.dim, self.dim), dtype=complex)
        terms = [(a, b, complex(float(re), float(im))) for a, b, re, im in _terms(doc)]
        for mu, w in self.shifts:
            for a, b, c in terms:
                i = self.index[tuple(x + y for x, y in zip(a, mu))]
                j = self.index[tuple(x + y for x, y in zip(b, mu))]
                A[i, j] += w * c
        return A


def min_eig(A: np.ndarray) -> float:
    d = np.diag(A)
    if np.count_nonzero(A) == np.count_nonzero(d):
        return float(d.real.min())
    return float(np.linalg.eigvalsh(A)[0])


def scaled_min_eig(doc: dict, N: int) -> float:
    """Smallest eigenvalue of the shifted matrix divided by its Frobenius norm."""
    A = ShiftedMatrices(doc["n"], doc["m"], N).matrix(doc)
    return min_eig(A) / max(float(np.linalg.norm(A)), 1e-300)


def diagonal_entries_exact(doc: dict, N: int) -> list[Fraction]:
    """Exact diagonal of the shifted matrix of a diagonal form (all other entries vanish)."""
    diag = {e: Fraction(0) for e in monomials(doc["n"], doc["m"] + N)}
    for a, b, re, _ in _terms(doc):
        if a != b:
            raise ValueError("form is not diagonal")
        for mu in monomials(doc["n"], N):
            weight = Fraction(math.factorial(N), math.prod(math.factorial(x) for x in mu))
            diag[tuple(x + y for x, y in zip(a, mu))] += weight * re
    return list(diag.values())


# -- exact evaluation ---------------------------------------------------------


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cpow(x, k: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _cmul(out, x)
    return out


def _monomial(z, e):
    out = (Fraction(1), Fraction(0))
    for zi, k in zip(z, e):
        out = _cmul(out, _cpow(zi, k))
    return out


def form_value_exact(doc: dict, z) -> Fraction:
    """f(z, z-bar) at a Gaussian-rational point; raises if the sum is not real."""
    zbar = [(x, -y) for x, y in z]
    re_sum = Fraction(0)
    im_sum = Fraction(0)
    for a, b, re, im in _terms(doc):
        t = _cmul((re, im), _cmul(_monomial(z, a), _monomial(zbar, b)))
        re_sum += t[0]
        im_sum += t[1]
    if im_sum != 0:
        raise ValueError("form value is not real")
    return re_sum


def norm_sq_exact(z) -> Fraction:
    return sum(x * x + y * y for x, y in z)


def certificate_value_exact(cert_doc: dict, z) -> Fraction:
    """sum_j w_j |Q_j(z)|^2 from an exact certificate document."""
    total = Fraction(0)
    for sq in cert_doc["squares"]:
        q = (Fraction(0), Fraction(0))
        for entry in sq["coefficients"]:
            c = (Fraction(entry["re"]), Fraction(entry.get("im", "0")))
            t = _cmul(c, _monomial(z, entry["index"]))
            q = (q[0] + t[0], q[1] + t[1])
        total += Fraction(sq["weight"]) * (q[0] * q[0] + q[1] * q[1])
    return total


def gaussian_rational_points(rng, n: int, count: int, denominator: int = 8):
    """Seeded points of Q[i]^n with coordinates rounded from standard normals."""
    pts = []
    for _ in range(count):
        pts.append(
            [
                (
                    Fraction(round(rng.gauss(0, 1) * denominator), denominator),
                    Fraction(round(rng.gauss(0, 1) * denominator), denominator),
                )
                for _ in range(n)
            ]
        )
    return pts


def certificate_identity_holds(cert_doc: dict, form_doc: dict, points) -> bool:
    """sum_j w_j |Q_j(z)|^2 == ||z||^(2N) f(z) exactly at every point."""
    N = cert_doc["N"]
    for z in points:
        lhs = certificate_value_exact(cert_doc, z)
        rhs = norm_sq_exact(z) ** N * form_value_exact(form_doc, z)
        if lhs != rhs:
            return False
    return True


# -- float sphere sample ------------------------------------------------------


def sphere_sample(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    Z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def form_values(doc: dict, Z: np.ndarray) -> np.ndarray:
    """f at the rows of Z in double precision (real part)."""
    out = np.zeros(Z.shape[0], dtype=complex)
    Zc = np.conj(Z)
    for a, b, re, im in _terms(doc):
        t = np.full(Z.shape[0], complex(float(re), float(im)))
        for k in range(Z.shape[1]):
            t = t * Z[:, k] ** a[k] * Zc[:, k] ** b[k]
        out += t
    return out.real


def coefficient_l1(doc: dict) -> float:
    return float(sum(abs(re) + abs(im) for _, _, re, im in _terms(doc)))


# -- invariants and bound formulas ------------------------------------------------


def _index_factorial(e) -> int:
    return math.prod(math.factorial(x) for x in e)


def weighted_frobenius_sq(doc: dict) -> Fraction:
    """Lambda(f)^2 = sum (a! b! / m!^2) |c_ab|^2, exact."""
    scale = math.factorial(doc["m"]) ** 2
    return sum(
        (Fraction(_index_factorial(a) * _index_factorial(b), scale) * (re * re + im * im) for a, b, re, im in _terms(doc)),
        Fraction(0),
    )


def diagonal_max(doc: dict) -> Fraction:
    """Lambda-tilde(f) = max over diagonal terms of (a!/m!) |c_aa|, exact."""
    return max(
        (Fraction(_index_factorial(a), math.factorial(doc["m"])) * abs(re) for a, b, re, _ in _terms(doc) if a == b),
        default=Fraction(0),
    )


def bound_values(n: int, m: int, lam: float, sharp: float, big_sq: float, tilde: float) -> dict:
    """The four published sufficient shifts from the invariants (C = 1, c = 1)."""
    ns_exponent = 1.0 * m**2 * n**m * (tilde / lam)
    return {
        "certified_N": max(0, math.ceil(1.0 * (math.sqrt(big_sq) / lam) * (m + n) ** 3 * math.log(n) ** 3)),
        "to_yeung_N": max(0, math.ceil(n * m * (2 * m - 1) * sharp / (math.log(2.0) * lam) - n - m)),
        "powers_resnick_N": max(0, math.floor((m * (m - 1) / 2.0) * (tilde / lam) - m) + 1),
        "nie_schweighofer_N": None if ns_exponent > 700.0 else max(0, math.floor(1.0 * math.exp(ns_exponent)) + 1),
    }


# -- strict JSON ---------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def same_document(got, want, rel: float = 1e-9) -> bool:
    """Structural equality; floats agree to `rel` so BLAS rounding cannot flip it."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        if isinstance(got, bool) or isinstance(want, bool):
            return got is want
        return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same_document(got[k], want[k], rel) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(same_document(g, w, rel) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want
