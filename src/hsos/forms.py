"""Bihomogeneous hermitian forms and their scalar invariants.

A form f(z, z̄) = sum_{|a|=|b|=m} c_ab z^a z̄^b is stored as a sparse map from
exponent pairs to exact complex-rational coefficients.  Reality of f on C^n is
equivalent to hermitian symmetry c_ba = conj(c_ab), which HermitianForm checks
once, when a form is built; its coefficients are read-only, so every form in
hand stays real of bidegree (m, m).  The four scalar invariants live here:

  lambda_min    min of f on the unit sphere            (numerical, certified radius)
  big_lambda    weighted Frobenius norm  (sum (a!b!/m!^2)|c_ab|^2)^(1/2); big_lambda_sq is exact
  lambda_tilde  max over diagonal of (a!/m!)|c_aa|                         (exact)
  lambda_sharp  sup of |f| on the unit sphere          (numerical)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import multiindex as mi
from .exact import QC, QC_ZERO, as_fraction, qc


class FormError(ValueError):
    pass


class DegreeMismatch(FormError):
    def __init__(self, index, expected_degree):
        self.index = index
        self.expected_degree = expected_degree
        super().__init__(f"index {index} has degree {sum(index)}, expected {expected_degree}")


class SymmetryViolation(FormError):
    def __init__(self, alpha, beta, value, conj_value):
        self.alpha = alpha
        self.beta = beta
        self.value = value
        self.conj_value = conj_value
        super().__init__(
            f"c[{beta},{alpha}] = {conj_value} is not the conjugate of c[{alpha},{beta}] = {value}"
        )


class DimensionMismatch(FormError):
    pass


class DegreeZeroError(FormError):
    pass


CoeffKey = tuple[mi.MultiIndex, mi.MultiIndex]


@dataclass(frozen=True)
class HermitianForm:
    """Sparse coefficient map of a bidegree-(m, m) form in n complex variables.

    Built only valid: the constructor coerces each coefficient with `qc`, drops
    the zero ones and raises the first FormError of, in order, an index that is
    not n entries of degree m (DegreeMismatch), a c_ba that is not conj(c_ab)
    (SymmetryViolation) and an exponent that is not a non-negative integer.
    Read-only after construction (build a new form to change one); safe to share.
    """

    n: int
    m: int
    coeffs: Mapping[CoeffKey, QC]

    def __post_init__(self):
        coeffs = {key: qc(c) for key, c in self.coeffs.items() if c}
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))
        for alpha, beta in coeffs:
            if len(alpha) != self.n or len(beta) != self.n or sum(alpha) != self.m or sum(beta) != self.m:
                wrong = [a for a in (alpha, beta) if len(a) != self.n] or [a for a in (alpha, beta) if sum(a) != self.m]
                raise DegreeMismatch(wrong[0], self.m)
        for (alpha, beta), c in coeffs.items():
            mirror = coeffs.get((beta, alpha), QC_ZERO)
            if mirror.re != c.re or mirror.im != -c.im:  # mirror != c.conj(), without building a QC
                raise SymmetryViolation(alpha, beta, c, mirror)
        for index in itertools.chain.from_iterable(coeffs):
            if not all(type(x) is int and x >= 0 for x in index):
                raise FormError(f"index {index} has an exponent that is not a non-negative integer")

    def __reduce__(self):  # a mapping proxy does not pickle; pickle and copy rebuild through the constructor
        return HermitianForm, (self.n, self.m, dict(self.coeffs))

    @staticmethod
    def from_terms(n: int, m: int, terms: Iterable[tuple[Sequence[int], Sequence[int], QC]]) -> "HermitianForm":
        """Build a form from (alpha, beta, coefficient) triples, summing repeats."""
        acc: dict[CoeffKey, QC] = {}
        for alpha, beta, c in terms:
            key = (mi.validate_index(alpha), mi.validate_index(beta))
            acc[key] = acc.get(key, QC_ZERO) + c
        return HermitianForm(n, m, acc)

    @staticmethod
    def zero(n: int, m: int) -> "HermitianForm":
        return HermitianForm(n, m, {})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_l1(self) -> Fraction:
        """Rational upper bound on sum |c_ab| via |re| + |im|."""
        total = Fraction(0)
        for c in self.coeffs.values():
            total += abs(c.re) + abs(c.im)
        return total

    @cached_property
    def sphere_pass(self) -> dict:
        """The dict in which spheremin caches this form object's sphere pass, freed with the form.

        It lives in the instance's __dict__, outside the dataclass fields, so ==, repr and the
        constructor ignore it, and an equal form built elsewhere runs its own pass.  Caching
        per object is sound because a form's coefficients cannot change after it is built.
        """
        return {}


def fc_form(c) -> HermitianForm:
    """The standard two-variable family |z1|^4 + |z2|^4 - c |z1|^2 |z2|^2."""
    c = as_fraction(c)
    return HermitianForm.from_terms(
        2,
        2,
        [
            ((2, 0), (2, 0), qc(1)),
            ((0, 2), (0, 2), qc(1)),
            ((1, 1), (1, 1), qc(-c)),
        ],
    )


def inner_power(n: int, m: int) -> HermitianForm:
    """<z, z̄>^m = ||z||^(2m), with c_mu,mu = m!/mu!."""
    terms = []
    for mu in mi.iter_degree(n, m):
        terms.append((mu, mu, qc(mi.multinomial(mu))))
    return HermitianForm.from_terms(n, m, terms)


def scale(form: HermitianForm, t) -> HermitianForm:
    t = qc(t)
    return HermitianForm(form.n, form.m, {k: v * t for k, v in form.coeffs.items()})


def is_diagonal(form: HermitianForm) -> bool:
    return all(a == b for (a, b) in form.coeffs)


def evaluate(form: HermitianForm, z: Sequence[complex]) -> float:
    """f(z, z̄) in double precision: the one row of evaluate_batch on [z]."""
    return float(evaluate_batch(form, [z])[0])


def evaluate_exact(form: HermitianForm, z: Sequence[QC]) -> Fraction:
    """f at a Gaussian-rational point, exactly; the sum is real because a built form is hermitian."""
    if len(z) != form.n:
        raise DimensionMismatch(f"point has {len(z)} coordinates, form has n = {form.n}")
    zv = [qc(w) for w in z]
    total = QC_ZERO
    for (alpha, beta), c in form.coeffs.items():
        term = c
        for j in range(form.n):
            for _ in range(alpha[j]):
                term = term * zv[j]
            for _ in range(beta[j]):
                term = term * zv[j].conj()
        total = total + term
    return total.re


def evaluate_batch(form: HermitianForm, Z: np.ndarray) -> np.ndarray:
    """Vectorized f over rows of Z (complex array of shape (batch, n)): the real part of the term sum."""
    import numpy as np  # imported on first use, so the exact commands never load it
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[1] != form.n:
        raise DimensionMismatch(f"batch shape {Z.shape} incompatible with n = {form.n}")
    out = np.zeros(Z.shape[0], dtype=complex)
    Zc = np.conj(Z)
    for (alpha, beta), c in form.coeffs.items():
        term = np.full(Z.shape[0], complex(c))
        for j in range(form.n):
            if alpha[j]:
                term = term * Z[:, j] ** alpha[j]
            if beta[j]:
                term = term * Zc[:, j] ** beta[j]
        out += term
    return out.real


def quarter_laplacian(form: HermitianForm) -> HermitianForm:
    """(1/4)Δ f = sum_i ∂_{z_i} ∂_{z̄_i} f, one bidegree down, exact.

    Coefficientwise: d_{γρ} = sum_i (γ_i+1)(ρ_i+1) c_{γ+e_i, ρ+e_i}.
    """
    if form.m == 0:
        raise DegreeZeroError("quarter-Laplacian of a bidegree-0 form")
    acc: dict[CoeffKey, QC] = {}
    for (alpha, beta), c in form.coeffs.items():
        for i in range(form.n):
            if alpha[i] >= 1 and beta[i] >= 1:
                gamma = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                rho = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
                key = (gamma, rho)
                acc[key] = acc.get(key, QC_ZERO) + c * (alpha[i] * beta[i])
    return HermitianForm(form.n, form.m - 1, acc)


def laplacian_iterates(form: HermitianForm) -> list[HermitianForm]:
    """[f, (1/4)Δ f, ..., (1/4)^m Δ^m f]; the last entry has bidegree 0."""
    out = [form]
    for _ in range(form.m):
        out.append(quarter_laplacian(out[-1]))
    return out


def big_lambda_sq(form: HermitianForm) -> Fraction:
    """Exact square of the weighted Frobenius norm: sum (a! b! / m!^2) |c_ab|^2."""
    msq = Fraction(math.factorial(form.m)) ** 2
    total = Fraction(0)
    for (alpha, beta), c in form.coeffs.items():
        w = Fraction(mi.index_factorial(alpha) * mi.index_factorial(beta)) / msq
        total += w * c.abs2()
    return total


def big_lambda(form: HermitianForm) -> float:
    return math.sqrt(float(big_lambda_sq(form)))


def lambda_tilde(form: HermitianForm) -> Fraction:
    """max over diagonal entries of (a!/m!) |c_aa|, exact; off-diagonal terms are ignored, each c_aa is real."""
    mfact = math.factorial(form.m)
    best = Fraction(0)
    for (alpha, beta), c in form.coeffs.items():
        if alpha != beta:
            continue
        val = Fraction(mi.index_factorial(alpha), mfact) * abs(c.re)
        best = max(best, val)
    return best


def lambda_min(form: HermitianForm):
    """Minimum of f over the unit sphere with minimizer and uncertainty radius.

    Read from the form's one sphere pass (HermitianForm.sphere_pass): the descent on f
    runs once per form object, and for n <= 3 the certified grid once before it;
    the descent stops at the fixed relative gradient bound spheremin.TOL.
    """
    from . import spheremin

    return spheremin.minimize_on_sphere(form)


def lambda_sharp(form: HermitianForm):
    """sup of |f| on the unit sphere; spheremin.sphere_range returns it with lambda_min.

    It shares the form's sphere pass with lambda_min and adds only the descent
    on -f, so lambda_min then lambda_sharp on one form runs one grid and two descents.
    """
    from . import spheremin

    return spheremin.sphere_range(form)[1]


def q_symbol(form: HermitianForm, h) -> tuple[tuple[Fraction, HermitianForm], ...]:
    """Semiclassical symbol q = sum_j (h^j/j!) (-(1/4)Δ)^j f as its layers (weight, (1/4)^j Δ^j f).

    Each weight is (-1)^j h^j / j!; the sign convention lives there, not in the forms.
    """
    h = as_fraction(h)
    if h <= 0:
        raise FormError(f"semiclassical parameter must be positive, got {h}")
    return tuple((Fraction((-1) ** j) * h**j / math.factorial(j), g) for j, g in enumerate(laplacian_iterates(form)))


def q_evaluate(q: Sequence[tuple[Fraction, HermitianForm]], z: Sequence[complex]) -> float:
    return float(q_evaluate_batch(q, [z])[0])


def q_evaluate_batch(q: Sequence[tuple[Fraction, HermitianForm]], Z: np.ndarray) -> np.ndarray:
    import numpy as np
    Z = np.asarray(Z, dtype=complex)
    out = np.zeros(Z.shape[0])
    for weight, g in q:
        out += float(weight) * evaluate_batch(g, Z)
    return out
