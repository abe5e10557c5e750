"""Unitary covariance as an oracle: for a unitary U, ||Uz|| = ||z||, and p -> p∘U maps the holomorphic
polynomials of each degree onto themselves, so ||z||^(2N) f is a hermitian sum of squares exactly when
||z||^(2N) (f∘U) is.  The minimal shift, λ, Λ♯ and Λ² (the Bombieri-Fischer norm) are U(n)-invariant.

A rotated diagonal form is dense, so its minimal shift comes from the float and exact kernels while the
original's comes from the Pólya diagonal alone: each path checks the other.  The same holds for the
thresholds c*_N of the family fc_c, whose closed form decides every rotated shift without `is_psd`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hsos import formats, forms, multiindex as mi, multiplier as mult, spheremin
from hsos.exact import QC_ONE, QC_ZERO, QC, qc
from hsos.forms import HermitianForm

from conftest import add_forms, random_sos_form

SAMPLES = Path(__file__).resolve().parent.parent / "sample_forms"
MINIMAL_N = {"fc_1": 1, "fc_1_2": 1, "fc_3_2": 5, "fc_7_4": 13,
             "polya_diag_n2_m3": 4, "polya_diag_n3_m2": 3, "ridge_plus_power": 0}


def _quarter(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), 4)


def cayley_unitary(rng: random.Random, n: int) -> list[list[QC]]:
    """U = (I - S)(I + S)^-1, exact, for a skew-hermitian S with entries in (1/4) Z[i] of parts at most 3/4.

    S has imaginary eigenvalues, so I + S is invertible, and U U* = I holds exactly.
    """
    S = [[QC_ZERO] * n for _ in range(n)]
    for j in range(n):
        S[j][j] = qc(0, _quarter(rng))
        for k in range(j + 1, n):
            S[j][k] = qc(_quarter(rng), _quarter(rng))
            S[k][j] = -S[j][k].conj()
    eye = [[QC_ONE if j == k else QC_ZERO for k in range(n)] for j in range(n)]
    # Gauss-Jordan on [I + S | I - S] solves (I + S) U = I - S; I - S and (I + S)^-1 commute
    rows = [[eye[j][k] + S[j][k] for k in range(n)] + [eye[j][k] - S[j][k] for k in range(n)] for j in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].conj() * (1 / rows[col][col].abs2())
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    U = [row[n:] for row in rows]
    for j in range(n):
        for k in range(n):
            assert sum((U[j][i] * U[k][i].conj() for i in range(n)), QC_ZERO) == eye[j][k]
    return U


def _power(U: list[list[QC]], a: tuple[int, ...]) -> dict[tuple[int, ...], QC]:
    """(Uz)^a = prod_k (sum_j U_kj z_j)^(a_k), as {exponent: coefficient}."""
    n = len(U)
    poly = {(0,) * n: QC_ONE}
    for k, e in enumerate(a):
        for _ in range(e):
            nxt: dict[tuple[int, ...], QC] = {}
            for mono, c in poly.items():
                for j in range(n):
                    if U[k][j]:
                        key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                        nxt[key] = nxt.get(key, QC_ZERO) + c * U[k][j]
            poly = nxt
    return poly


def rotated(form: HermitianForm, U: list[list[QC]]) -> HermitianForm:
    """f∘U by exact expansion: sum over c_ab z^a z̄^b of c_ab (Uz)^a conj((Uz)^b)."""
    powers: dict[tuple[int, ...], dict] = {}
    acc: dict[tuple, QC] = {}
    for (a, b), c in form.coeffs.items():
        pa = powers.setdefault(a, _power(U, a))
        pb = powers.setdefault(b, _power(U, b))
        for alpha, x in pa.items():
            for beta, y in pb.items():
                acc[alpha, beta] = acc.get((alpha, beta), QC_ZERO) + c * x * y.conj()
    return HermitianForm(form.n, form.m, {key: c for key, c in acc.items() if c})


def _sample_and_rotated(name: str) -> tuple[HermitianForm, HermitianForm]:
    form = formats.load_form(SAMPLES / f"{name}.json")
    return form, rotated(form, cayley_unitary(random.Random(f"unitary-{name}"), form.n))


def test_cayley_unitary_rotates_a_diagonal_form_into_a_dense_one():
    form, turned = _sample_and_rotated("polya_diag_n3_m2")
    assert forms.is_diagonal(form) and not forms.is_diagonal(turned)
    assert len(turned.coeffs) > len(form.coeffs)


@pytest.mark.parametrize("name", sorted(MINIMAL_N))
def test_minimal_shift_and_bombieri_norm_are_unitary_invariants(name):
    form, turned = _sample_and_rotated(name)
    assert mult.minimal_sos_N(turned, 20) == mult.minimal_sos_N(form, 20) == MINIMAL_N[name]
    assert forms.big_lambda_sq(turned) == forms.big_lambda_sq(form)


# the descent stops 2.1e-5 above λ on the rotated ridge form, with converged False, where it meets λ on the form
_RIDGE_MISSED = pytest.mark.xfail(strict=True, reason="the sphere descent does not reach λ on f∘U (ROADMAP item 15)")


@pytest.mark.parametrize("name", [*sorted(set(MINIMAL_N) - {"ridge_plus_power"}),
                                  pytest.param("ridge_plus_power", marks=_RIDGE_MISSED)])
def test_sphere_extremes_are_unitary_invariants(name):
    form, turned = _sample_and_rotated(name)
    (low, sharp), (turned_low, turned_sharp) = spheremin.sphere_range(form), spheremin.sphere_range(turned)
    assert turned_low.value == pytest.approx(low.value, rel=1e-12)
    assert turned_sharp.value == pytest.approx(sharp.value, rel=1e-12)


def _assert_refuted_below(turned: HermitianForm, N: int) -> None:
    """N = 0, or sos_decompose(turned, N - 1) raises NotPsdError with a witness checked exactly to be < 0."""
    if N == 0:
        return
    with pytest.raises(mult.NotPsdError) as info:
        mult.sos_decompose(turned, N - 1)
    v, matrix = info.value.witness, mult.multiplier_matrix(turned, N - 1)
    quadratic = sum((v[i].conj() * c * v[j] for (i, j), c in matrix.entries.items()), QC_ZERO)
    assert quadratic == qc(info.value.witness_value) and info.value.witness_value < 0


@pytest.mark.parametrize("name", sorted(MINIMAL_N))
def test_rotated_sample_certifies_at_its_minimal_shift_and_is_refuted_below(name):
    _, turned = _sample_and_rotated(name)
    N = MINIMAL_N[name]
    cert = mult.sos_decompose(turned, N)
    assert cert.verified == "exact-pass" and mult.verify_certificate(turned, cert) == ("exact-pass", 0.0)
    _assert_refuted_below(turned, N)


def positive_form(rng: random.Random, n: int, m: int, delta: Fraction) -> HermitianForm:
    """||z||^(2m) + θ g, g = s/8 - (m!/a!) |z^a|^2 for a random square s and a random mixed index a.

    (m!/a!) x^a is at most P_a = (m!/a!) prod (a_i/m)^(a_i) < 1 on the simplex, so with θ = (1 - delta)/P_a
    the diagonal part is at least delta on the sphere and f, which adds θ s/8 >= 0, is positive.  θ > 1, so
    f is no sum of squares at N = 0 unless s covers |z^a|^2.  A mixed index needs n >= 2 and m >= 2.
    """
    a = rng.choice([a for a in mi.iter_degree(n, m) if max(a) < m])
    theta = (1 - delta) / (mi.multinomial(a) * math.prod(Fraction(x, m) ** x for x in a))
    g = add_forms(forms.scale(random_sos_form(rng, n, m, 1), Fraction(1, 8)),
                  HermitianForm.from_terms(n, m, [(a, a, qc(-mi.multinomial(a)))]))
    return add_forms(forms.inner_power(n, m), forms.scale(g, theta))


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3), st.integers(2, 3), st.sampled_from([Fraction(1, 3), Fraction(1, 4)]), st.integers(0, 2**32))
def test_rotated_positive_forms_keep_their_minimal_shift_and_certify_there(n, m, delta, seed):
    # f is dense after the rotation, so the Polya start and the float route decide f∘U, and the exact kernel
    # factors it, where f's own scan starts from its Polya diagonal
    rng = random.Random(seed)
    form = positive_form(rng, n, m, delta)
    turned = rotated(form, cayley_unitary(rng, n))
    N = mult.minimal_sos_N(form, 12)
    assert N is not None and mult.minimal_sos_N(turned, 12) == N
    assert forms.big_lambda_sq(turned) == forms.big_lambda_sq(form)
    assert mult.sos_decompose(turned, N).verified == "exact-pass"
    _assert_refuted_below(turned, N)


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2)])
def test_sphere_extremes_of_rotated_positive_forms_agree(n, m):
    rng = random.Random(f"sphere-{n}-{m}")
    form = positive_form(rng, n, m, Fraction(1, 3))
    turned = rotated(form, cayley_unitary(rng, n))
    (low, sharp), (turned_low, turned_sharp) = spheremin.sphere_range(form), spheremin.sphere_range(turned)
    assert turned_low.value == pytest.approx(low.value, rel=1e-12) and low.value > 0
    assert turned_sharp.value == pytest.approx(sharp.value, rel=1e-12)


def fc_threshold(N: int) -> Fraction:
    """c*_N = (K^2 - K) / floor(K^2 / 4) - 2 with K = N + 2: the largest c at which ||z||^(2N) fc_c is a sum of squares.

    c*_(2j) = c*_(2j-1), so at c*_N the form is a sum of squares at N - 1 exactly when N is even.
    """
    K = N + 2
    return Fraction(K * K - K, K * K // 4) - 2


_FC_U = cayley_unitary(random.Random("unitary-fc_c"), 2)
_FC_QUARTIC = rotated(HermitianForm.from_terms(2, 2, [((2, 0), (2, 0), QC_ONE), ((0, 2), (0, 2), QC_ONE)]), _FC_U)
_FC_CROSS = rotated(HermitianForm.from_terms(2, 2, [((1, 1), (1, 1), qc(-1))]), _FC_U)


def _rotated_fc(c: Fraction) -> HermitianForm:
    """fc_c∘U = (|z1|^4 + |z2|^4)∘U - c (|z1|^2 |z2|^2)∘U, dense in every coefficient."""
    return add_forms(_FC_QUARTIC, forms.scale(_FC_CROSS, c))


def test_fc_threshold_is_the_minimal_shift_of_the_diagonal_form():
    assert [fc_threshold(N) for N in (1, 2, 7, 8)] == [1, 1, Fraction(8, 5), Fraction(8, 5)]
    for N in range(1, 17):
        assert mult.minimal_sos_N(forms.fc_form(fc_threshold(N)), N) == N - (N % 2 == 0)
        assert mult.minimal_sos_N(forms.fc_form(fc_threshold(N) + Fraction(1, 2**40)), N) is None


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 12, 16, 32, 48, 64])
def test_rotated_fc_thresholds_decide_on_the_closed_form(N):
    # the closed form is the oracle, so no verdict is compared with is_psd's; which cases psd_decided sends to
    # the exact kernel (the threshold at every N, c - 2^-40 from N = 12, most others from N = 48) is left free
    c = fc_threshold(N)
    assert mult.psd_decided(mult.multiplier_matrix(_rotated_fc(c), N))
    assert mult.psd_decided(mult.multiplier_matrix(_rotated_fc(c), N - 1)) == (N % 2 == 0)
    for k in (10, 20, 30, 40):
        assert mult.psd_decided(mult.multiplier_matrix(_rotated_fc(c - Fraction(1, 2**k)), N)), k
        assert not mult.psd_decided(mult.multiplier_matrix(_rotated_fc(c + Fraction(1, 2**k)), N)), k
