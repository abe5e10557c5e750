import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsos import forms, multiindex as mi, multiplier as mult
from hsos.exact import qc

from conftest import (
    diag_n3_form,
    product_expansion_oracle,
    random_hermitian_form,
    random_sos_form,
    ridge_form,
)


def matrix_as_coeff_map(matrix: mult.MultiplierMatrix) -> dict:
    return {
        (matrix.basis[i], matrix.basis[j]): c for (i, j), c in matrix.entries.items()
    }


# ---------------------------------------------------------------------------
# multiplier matrix assembly
# ---------------------------------------------------------------------------

def test_shift_zero_reproduces_coefficients():
    f = forms.fc_form(Fraction(3, 2))
    matrix = mult.multiplier_matrix(f, 0)
    assert matrix_as_coeff_map(matrix) == f.coeffs
    assert matrix.dim == mi.dim_homogeneous(2, 2)


def test_coordinate_power_shift_one():
    f = forms.coordinate_power(2, 1, 0)  # |z1|^2
    matrix = mult.multiplier_matrix(f, 1)
    assert matrix.basis == ((2, 0), (1, 1), (0, 2))
    assert matrix.entries == {(0, 0): qc(1), (1, 1): qc(1)}


def test_fc_diagonal_closed_form():
    # diagonal entry at rho: N! * [r1(r1-1) + r2(r2-1) - c r1 r2] / (r1! r2!)
    for c in (Fraction(1), Fraction(3, 2)):
        f = forms.fc_form(c)
        for N in range(0, 5):
            matrix = mult.multiplier_matrix(f, N)
            assert matrix.is_diagonal()
            nfact = mi.factorial(N)
            for i, rho in enumerate(matrix.basis):
                r1, r2 = rho
                expect = (
                    Fraction(r1 * (r1 - 1) + r2 * (r2 - 1)) - c * r1 * r2
                ) * Fraction(nfact, mi.index_factorial(rho))
                assert matrix.entry(i, i) == qc(expect)


def test_matches_symbolic_product_expansion():
    rng = random.Random(2025)
    for _ in range(12):
        n = rng.choice([2, 3])
        m = rng.choice([1, 2])
        N = rng.choice([0, 1, 2, 3])
        f = random_hermitian_form(rng, n, m)
        matrix = mult.multiplier_matrix(f, N)
        assert matrix_as_coeff_map(matrix) == product_expansion_oracle(f, N)


def test_hermitian_and_dimension_invariants():
    rng = random.Random(77)
    for _ in range(10):
        f = random_hermitian_form(rng, rng.choice([2, 3]), rng.choice([1, 2]))
        N = rng.choice([0, 1, 2])
        matrix = mult.multiplier_matrix(f, N)
        assert matrix.is_hermitian()
        assert matrix.dim == mi.dim_homogeneous(f.n, f.m + N)


def test_diagonal_form_gives_diagonal_matrix():
    f = forms.fc_form(1)
    for N in range(4):
        assert mult.multiplier_matrix(f, N).is_diagonal()


def test_size_cap():
    with pytest.raises(mult.SizeCapExceeded):
        mult.multiplier_matrix(forms.fc_form(1), 50, size_cap=10)


# ---------------------------------------------------------------------------
# PSD decisions
# ---------------------------------------------------------------------------

def test_fc_not_psd_at_zero_with_witness():
    matrix = mult.multiplier_matrix(forms.fc_form(1), 0)
    verdict = mult.is_psd(matrix)
    assert not verdict.is_psd
    assert verdict.witness_value == -1
    support = [i for i, w in enumerate(verdict.witness) if not w.is_zero]
    assert support == [matrix.basis.index((1, 1))]


def test_fc_psd_at_one_with_zero_pivot():
    matrix = mult.multiplier_matrix(forms.fc_form(1), 1)
    verdict = mult.is_psd(matrix)
    assert verdict.is_psd
    # entries at (2,1) and (1,2) vanish: rank drops below the dimension
    assert verdict.rank < matrix.dim


def test_identity_matrix_psd():
    f = forms.inner_power(2, 2)
    verdict = mult.is_psd(mult.multiplier_matrix(f, 0))
    assert verdict.is_psd


def test_nondiagonal_exact_psd_and_witness_sign():
    rng = random.Random(13)
    found_psd = found_not = 0
    for _ in range(25):
        n = rng.choice([2, 3])
        m = rng.choice([1, 2])
        f = random_hermitian_form(rng, n, m)
        matrix = mult.multiplier_matrix(f, rng.choice([0, 1]))
        verdict = mult.is_psd(matrix)
        if verdict.is_psd:
            found_psd += 1
        else:
            found_not += 1
            assert verdict.witness_value < 0  # self-verified exact witness
    assert found_not > 0  # random hermitian forms are rarely PSD


def test_zero_pivot_with_nonzero_row_detected():
    # [[0, 1], [1, 0]] over a 2-dim basis: not PSD despite zero diagonal
    f = forms.HermitianForm.from_terms(
        2, 1, [((1, 0), (0, 1), qc(1)), ((0, 1), (1, 0), qc(1))]
    )
    verdict = mult.is_psd(mult.multiplier_matrix(f, 0))
    assert not verdict.is_psd
    assert verdict.witness_value < 0


@pytest.mark.parametrize(
    "c, N, psd", [(3, 0, False), (3, 1, False), (3, 2, False), (Fraction(1, 2), 3, True)]
)
def test_diagonal_matrix_verdict(c, N, psd):
    matrix = mult.multiplier_matrix(diag_n3_form(c), N)
    assert matrix.is_diagonal()
    diagonal = [matrix.entry(i, i).re for i in range(matrix.dim)]
    verdict = mult.is_psd(matrix)
    assert verdict.is_psd == psd
    if psd:
        positive = sorted((d for d in diagonal if d > 0), reverse=True)
        assert verdict.pivots == tuple(positive)
        assert verdict.rank == len(positive) < matrix.dim  # zero diagonal entries present
    else:
        assert sum(d < 0 for d in diagonal) > 1
        assert verdict.witness_value == min(diagonal)
        support = [i for i, w in enumerate(verdict.witness) if not w.is_zero]
        assert len(support) == 1 and diagonal[support[0]] == min(diagonal)


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _shifted_forms(draw):
    """t * sum_a |z^a|^2 plus a few random hermitian terms, with a shift N."""
    n, m, N = draw(st.integers(2, 4)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    basis = mi.enumerate_degree(n, m)
    t = draw(st.integers(0, 3))
    triples = [(a, a, qc(t)) for a in basis]
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
        if a == b:
            triples.append((a, a, qc(draw(_rationals))))
        else:
            c = qc(draw(_rationals), draw(_rationals))
            triples += [(a, b, c), (b, a, c.conj())]
    return forms.HermitianForm.from_terms(n, m, triples), N


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shifted_forms())
def test_exact_kernel_agrees_with_eigvalsh_and_proves_its_verdicts(case):
    form, N = case
    matrix = mult.multiplier_matrix(form, N)
    verdict = mult.is_psd(matrix)
    A = matrix.to_dense()
    band = 1e-9 * np.linalg.norm(A)
    lam_min = np.linalg.eigvalsh(A)[0]
    if abs(lam_min) > band:
        assert verdict.is_psd == (lam_min > 0)
    if verdict.is_psd:
        assert mult.sos_decompose(form, N).verified == "exact-pass"
    else:
        v = verdict.witness
        quadratic = sum((v[i].conj() * c * v[j] for (i, j), c in matrix.entries.items()), qc(0))
        assert quadratic == qc(verdict.witness_value) and verdict.witness_value < 0


def test_exact_matches_float_on_clear_cases():
    rng = random.Random(2)
    compared = 0
    for _ in range(15):
        f = random_hermitian_form(rng, 2, 2)
        matrix = mult.multiplier_matrix(f, rng.choice([0, 1]))
        exact = mult.is_psd(matrix).is_psd
        try:
            floating = mult.is_psd(matrix, mode="float").is_psd
        except mult.NumericalIndeterminate:
            continue
        assert exact == floating
        compared += 1
    assert compared > 0


def test_float_mode_verdicts():
    clear = mult.multiplier_matrix(forms.inner_power(2, 2), 0)
    assert mult.is_psd(clear, mode="float").is_psd
    indef = mult.multiplier_matrix(forms.fc_form(1), 0)
    verdict = mult.is_psd(indef, mode="float")
    assert not verdict.is_psd and verdict.min_eigenvalue < 0
    boundary = mult.multiplier_matrix(forms.fc_form(1), 1)  # exact zero eigenvalue
    with pytest.raises(mult.NumericalIndeterminate):
        mult.is_psd(boundary, mode="float")


# ---------------------------------------------------------------------------
# minimal shift search
# ---------------------------------------------------------------------------

def test_minimal_N_fc_examples():
    assert mult.minimal_sos_N(forms.fc_form(1), 10) == 1
    assert mult.minimal_sos_N(forms.fc_form(Fraction(3, 2)), 10) == 5


def test_minimal_N_already_sos():
    sq = forms.HermitianForm.from_terms(
        2,
        2,
        [
            ((2, 0), (2, 0), qc(1)),
            ((0, 2), (0, 2), qc(1)),
            ((2, 0), (0, 2), qc(1)),
            ((0, 2), (2, 0), qc(1)),
        ],
    )  # |z1^2 + z2^2|^2
    with pytest.warns(UserWarning):
        assert mult.minimal_sos_N(sq, 5) == 0


def test_minimal_N_not_found():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert mult.minimal_sos_N(forms.fc_form(2), 4) is None


def test_monotonicity_in_shift():
    rng = random.Random(5)
    cases = [forms.fc_form(c) for c in (Fraction(1), Fraction(3, 2))]
    cases += [random_sos_form(rng, 2, 2), random_sos_form(rng, 3, 1)]
    cases += [ridge_form()]
    for f in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n0 = mult.minimal_sos_N(f, 8)
        assert n0 is not None
        for N in (n0 + 1, n0 + 2):
            assert mult.is_psd(mult.multiplier_matrix(f, N)).is_psd


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_single_square_certificate():
    for m in (1, 2, 3):
        cert = mult.sos_decompose(forms.coordinate_power(2, m, 0), 0)
        assert cert.verified == "exact-pass"
        assert cert.num_squares() == 1
        (sq,) = cert.squares
        assert sq.weight == 1
        assert sq.coefficients == {(m, 0): qc(1)}


def test_fc_certificate_exact_roundtrip():
    f = forms.fc_form(1)
    cert = mult.sos_decompose(f, 1)
    assert cert.verified == "exact-pass"
    assert cert.num_squares() <= mi.dim_homogeneous(2, 3)
    assert mult.verify_certificate(f, cert) == ("exact-pass", 0.0)
    # independent check: expansion equals the symbolic product coefficients
    expanded = mult.expand_squares(cert)
    oracle = product_expansion_oracle(f, 1)
    basis = mult.multiplier_matrix(f, 1).basis
    assert {(basis[i], basis[j]): c for (i, j), c in expanded.items()} == oracle


def test_decompose_not_psd_raises():
    with pytest.raises(mult.NotPsdError):
        mult.sos_decompose(forms.fc_form(1), 0)


@pytest.mark.parametrize("seed", range(6))
def test_not_psd_error_carries_exact_witness(seed):
    rng = random.Random(seed)
    form = forms.add_forms(forms.fc_form(3), random_hermitian_form(rng, 2, 2)) if seed else forms.fc_form(1)
    matrix = mult.multiplier_matrix(form, 0)
    with pytest.raises(mult.NotPsdError) as info:
        mult.sos_decompose(form, 0)
    v = info.value.witness
    assert len(v) == matrix.dim
    quadratic = sum((v[i].conj() * c * v[j] for (i, j), c in matrix.entries.items()), qc(0))
    assert quadratic.im == 0
    assert quadratic.re == info.value.witness_value < 0
    assert info.value.witness_value == mult.is_psd(matrix).witness_value


def test_verify_detects_perturbation():
    f = forms.fc_form(1)
    cert = mult.sos_decompose(f, 1)
    sq0 = cert.squares[0]
    alpha0 = next(iter(sq0.coefficients))
    tampered_coeffs = dict(sq0.coefficients)
    tampered_coeffs[alpha0] = tampered_coeffs[alpha0] + qc(1)
    tampered = mult.SosCertificate(
        cert.n,
        cert.m,
        cert.N,
        cert.mode,
        (mult.SosSquare(sq0.weight, tampered_coeffs),) + cert.squares[1:],
    )
    status, _ = mult.verify_certificate(f, tampered)
    assert status == "fail"


def test_float_certificate():
    f = forms.fc_form(1)
    cert = mult.sos_decompose(f, 1, mode="float")
    assert cert.verified == "float-pass"
    assert cert.residual <= 1e-10


def test_exact_certificates_across_corpus():
    rng = random.Random(99)
    cases = [forms.fc_form(Fraction(1, 2)), ridge_form(), random_sos_form(rng, 2, 2)]
    for f in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n0 = mult.minimal_sos_N(f, 8)
        cert = mult.sos_decompose(f, n0)
        assert cert.verified == "exact-pass"
        assert all(sq.weight > 0 for sq in cert.squares)
