import itertools
import json
import math
import random
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hsos import formats, forms, multiindex as mi, multiplier as mult, verified
from hsos.exact import QC_ZERO, qc

from conftest import (
    C_GRID,
    add_forms,
    coordinate_power,
    diag_n3_form,
    product_expansion_oracle,
    random_hermitian_form,
    random_sos_form,
    ridge_form,
)


def _is_diagonal(matrix: mult.MultiplierMatrix) -> bool:
    return all(i == j for i, j in matrix.numerators)


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
    f = coordinate_power(2, 1, 0)  # |z1|^2
    matrix = mult.multiplier_matrix(f, 1)
    assert matrix.basis == ((2, 0), (1, 1), (0, 2))
    assert matrix.entries == {(0, 0): qc(1), (1, 1): qc(1)}


def test_fc_diagonal_closed_form():
    # diagonal entry at rho: N! * [r1(r1-1) + r2(r2-1) - c r1 r2] / (r1! r2!)
    for c in (Fraction(1), Fraction(3, 2)):
        f = forms.fc_form(c)
        for N in range(0, 5):
            matrix = mult.multiplier_matrix(f, N)
            assert _is_diagonal(matrix)
            nfact, entries = math.factorial(N), matrix.entries
            for i, rho in enumerate(matrix.basis):
                r1, r2 = rho
                expect = (
                    Fraction(r1 * (r1 - 1) + r2 * (r2 - 1)) - c * r1 * r2
                ) * Fraction(nfact, mi.index_factorial(rho))
                assert entries.get((i, i), QC_ZERO) == qc(expect)


def _add(alpha, beta):
    return tuple(x + y for x, y in zip(alpha, beta))


_sevenths = st.builds(Fraction, st.integers(-6, 6), st.integers(2, 7))


@st.composite
def _assembly_cases(draw):
    """Hermitian forms with coefficient denominators 2-7 and a shift N, some with cancelling terms."""
    n, m, N = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 3))
    basis = list(mi.iter_degree(n, m))
    triples = []

    def term(a, b, c):  # c z^a z̄^b and its conjugate
        triples.extend([(a, a, qc(c.re))] if a == b else [(a, b, c), (b, a, c.conj())])

    for _ in range(draw(st.integers(1, 4))):
        term(draw(st.sampled_from(basis)), draw(st.sampled_from(basis)), qc(draw(_sevenths), draw(_sevenths)))
    for _ in range(draw(st.integers(0, 2))):
        # c z^a z̄^b - c z^a' z̄^b' with a' = a + e_k - e_l, b' = b + e_k - e_l:
        # their products with |z_k|^2 and |z_l|^2 land on one entry and cancel
        a, b = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
        k, l = draw(st.permutations(range(n)))[:2]
        if a[l] and b[l]:
            c = qc(draw(_sevenths), draw(_sevenths))
            step = [(i == k) - (i == l) for i in range(n)]
            term(a, b, c)
            term(_add(a, step), _add(b, step), -c)
    return forms.HermitianForm.from_terms(n, m, triples), N


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_assembly_cases())
def test_matches_symbolic_product_expansion(case):
    f, N = case
    matrix = mult.multiplier_matrix(f, N)
    assert matrix_as_coeff_map(matrix) == product_expansion_oracle(f, N)
    # ||z||^(2N) is primitive, so by Gauss's lemma no cancellation lowers the
    # lcm of the entry denominators below D, the lcm of f's
    assert math.lcm(*(x.denominator for c in matrix.entries.values() for x in (c.re, c.im))) == matrix.D


def test_hermitian_and_dimension_invariants():
    rng = random.Random(77)
    for _ in range(10):
        f = random_hermitian_form(rng, rng.choice([2, 3]), rng.choice([1, 2]))
        N = rng.choice([0, 1, 2])
        matrix = mult.multiplier_matrix(f, N)
        entries = matrix.entries
        assert all(entries[(j, i)] == c.conj() for (i, j), c in entries.items())
        assert matrix.dim == mi.dim_homogeneous(f.n, f.m + N)


def test_diagonal_form_gives_diagonal_matrix():
    f = forms.fc_form(1)
    for N in range(4):
        assert _is_diagonal(mult.multiplier_matrix(f, N))


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
    assert len(verdict.pivots) < matrix.dim


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


def test_zero_pivot_witness_uses_rational_schur_entry_across_blocks():
    # three blocks.  {0, 1, 2}: after pivot 3/2 the Schur complement is
    # [[0, s], [conj(s), 0]] with s = 1/3 - i/6, so its scale b D is not 1 when
    # the remaining diagonal vanishes.  {3, 4}: positive pivots 1 and 24/25.
    # {5, 6}: zero diagonal from the start.  The block with the largest
    # diagonal, {0, 1, 2}, goes first, and its witness takes the least
    # remaining entry, (1, 2): u = -s e_1 + e_2, lifted through column 0.  Any
    # common denominator of the entries gives the same verdict.
    h = Fraction(1, 2)
    upper = {
        (0, 0): qc(Fraction(3, 2)), (0, 1): qc(h), (0, 2): qc(0, h),
        (1, 1): qc(Fraction(1, 6)), (1, 2): qc(Fraction(1, 3)), (2, 2): qc(Fraction(1, 6)),
        (3, 3): qc(1), (3, 4): qc(Fraction(1, 5)), (4, 4): qc(1),
        (5, 6): qc(Fraction(1, 7)),
    }
    entries = {**upper, **{(j, i): c.conj() for (i, j), c in upper.items()}}
    basis = tuple(mi.iter_degree(2, 6))
    s = qc(Fraction(1, 3), Fraction(-1, 6))
    for D in (210, 6 * 210):
        numerators = {key: (int(c.re * D), int(c.im * D)) for key, c in upper.items()}
        matrix = mult.MultiplierMatrix(2, 6, 0, basis, D, numerators)
        assert matrix.entries == entries
        verdict = mult.is_psd(matrix)
        assert not verdict.is_psd
        assert verdict.witness == (qc(Fraction(1, 9), Fraction(-7, 18)), -s, qc(1), qc(0), qc(0), qc(0), qc(0))
        assert verdict.witness_value == -2 * s.abs2() == Fraction(-5, 18)


@pytest.mark.parametrize(
    "c, N, psd", [(3, 0, False), (3, 1, False), (3, 2, False), (Fraction(1, 2), 3, True)]
)
def test_diagonal_matrix_verdict(c, N, psd):
    matrix = mult.multiplier_matrix(diag_n3_form(c), N)
    assert _is_diagonal(matrix)
    diagonal = [matrix.entries.get((i, i), QC_ZERO).re for i in range(matrix.dim)]
    verdict = mult.is_psd(matrix)
    assert verdict.is_psd == psd
    if psd:
        positive = sorted((d for d in diagonal if d > 0), reverse=True)
        assert verdict.pivots == tuple(positive)
        assert len(verdict.pivots) == len(positive) < matrix.dim  # zero diagonal entries present
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
    basis = list(mi.iter_degree(n, m))
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


def _form_of_matrix(n: int, m: int, upper: dict) -> forms.HermitianForm:
    """The form whose multiplier matrix at N = 0 has the upper triangle {(i, j): c, i <= j} over the degree-m basis."""
    basis = list(mi.iter_degree(n, m))
    triples = [(basis[i], basis[j], c) for (i, j), c in upper.items()]
    triples += [(basis[j], basis[i], c.conj()) for (i, j), c in upper.items() if i != j]
    return forms.HermitianForm.from_terms(n, m, triples)


def test_arrowhead_block_pivots_its_hub_last():
    # hub 2 couples to every other row and has the largest diagonal.  Pivoting
    # it first fills the other d - 1 rows in densely, d(d+1)/2 coefficients
    # over the squares; the fewest off-diagonal entries first takes the leaves
    # (one entry each) and keeps 2d - 1.  The hub's Schur diagonal 5 - 4(2/3)
    # is below 3 when it ties with the last leaf, so the leaf goes first.
    d, hub = 6, 2
    upper = {(i, i): qc(5 if i == hub else 3) for i in range(d)}
    upper |= {(min(i, hub), max(i, hub)): qc(1, 1) for i in range(d) if i != hub}
    form = _form_of_matrix(2, d - 1, upper)
    processed, pivots = mult._ldlt(mult.multiplier_matrix(form, 0))
    assert [k for k, _, _ in processed] == [0, 1, 3, 4, 5, 2]
    assert pivots[-1] == 5 - Fraction(5 * 2, 3)
    assert sum(1 + len(col) for _, _, col in processed) == 2 * d - 1 < d * (d + 1) // 2
    cert = mult.sos_decompose(form, 0)
    assert cert.verified == "exact-pass"
    assert sum(len(sq.coefficients) for sq in cert.squares) == 2 * d - 1


def test_dense_block_pivots_on_the_largest_schur_diagonal():
    # every row of a dense block holds the same count of off-diagonal entries,
    # so the largest diagonal of the Schur complement goes first, ties by index
    upper = {(0, 0): qc(4), (1, 1): qc(6), (2, 2): qc(6), (0, 1): qc(1), (0, 2): qc(1), (1, 2): qc(1)}
    processed, pivots = mult._ldlt(mult.multiplier_matrix(_form_of_matrix(2, 2, upper), 0))
    assert [k for k, _, _ in processed] == [1, 2, 0]
    assert pivots == [6, Fraction(35, 6), Fraction(26, 7)]


def test_negative_diagonal_refutes_before_a_larger_positive_one():
    verdict = mult.is_psd(mult.multiplier_matrix(_form_of_matrix(2, 1, {(0, 0): qc(5), (1, 1): qc(-1), (0, 1): qc(1)}), 0))
    assert (verdict.is_psd, verdict.witness, verdict.witness_value) == (False, (qc(0), qc(1)), -1)


def _blocks_in_order(matrix: mult.MultiplierMatrix, supports: list[set[int]]) -> list[int]:
    """The connected blocks that the supports (basis positions of each pivot or square, in order) run
    through, each once: one block per support, each block's supports contiguous, largest diagonal first."""
    diag, rows = mult._pattern(matrix)
    blocks = mult._components(rows)
    owner = {i: b for b, block in enumerate(blocks) for i in block}
    assert all(len({owner[i] for i in support}) == 1 for support in supports)
    runs = [b for b, _ in itertools.groupby(owner[min(support)] for support in supports)]
    assert len(runs) == len(set(runs))
    keys = [min((-diag[i], i) for i in blocks[b]) for b in runs]  # largest diagonal, ties by index
    assert keys == sorted(keys)
    return runs


def _hand_built_matrix(upper: dict) -> mult.MultiplierMatrix:
    """The matrix with numerators {(i, j): (re, im), i <= j} over D = 1 and the 4-element basis of degree 3 in 2 variables."""
    return mult.MultiplierMatrix(2, 3, 0, tuple(mi.iter_degree(2, 3)), 1, upper)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_ridge_plus_power_pivots_block_by_block_largest_diagonal_first(N):
    matrix = mult.multiplier_matrix(formats.load_form(SAMPLES / "ridge_plus_power.json"), N)
    processed, _ = mult._ldlt(matrix)
    assert len(processed) == matrix.dim
    assert len(_blocks_in_order(matrix, [{k, *col} for k, _, col in processed])) > 1


def test_two_block_certificate_keeps_each_blocks_squares_together():
    # block {0, 1} has the largest diagonal, 4; its Schur diagonal 2 - 1/4 falls
    # below block {2, 3}'s diagonal 3, which an order across the blocks by the
    # largest Schur diagonal would pivot in between
    matrix = _hand_built_matrix({(0, 0): (4, 0), (1, 1): (2, 0), (0, 1): (1, 0),
                                 (2, 2): (3, 0), (3, 3): (3, 0), (2, 3): (0, 1)})
    cert = mult._decompose(matrix)
    assert cert.verified == "exact-pass"
    position = {alpha: i for i, alpha in enumerate(matrix.basis)}
    supports = [{position[alpha] for alpha in sq.coefficients} for sq in cert.squares]
    assert supports == [{0, 1}, {1}, {2, 3}, {3}]
    assert len(_blocks_in_order(matrix, supports)) == 2
    assert [sq.weight for sq in cert.squares] == [4, Fraction(7, 4), 3, Fraction(8, 3)]


def test_a_block_with_zero_remainder_does_not_stop_the_next_block():
    # block {0, 1} = [[4, 2], [2, 1]] leaves a Schur complement with no entry after
    # its pivot 4; the PD block {2, 3} is still factored
    matrix = _hand_built_matrix({(0, 0): (4, 0), (1, 1): (1, 0), (0, 1): (2, 0),
                                 (2, 2): (3, 0), (3, 3): (3, 0), (2, 3): (1, 0)})
    verdict = mult.is_psd(matrix)
    assert verdict.is_psd and len(verdict.pivots) == matrix.dim - 1
    assert verdict.pivots == (4, 3, Fraction(8, 3))
    processed, _ = mult._ldlt(matrix)
    assert [k for k, _, _ in processed] == [0, 2, 3]
    assert mult._decompose(matrix).verified == "exact-pass"


def _eager_ldlt(matrix: mult.MultiplierMatrix):
    """The reference for `_ldlt`: the same kernel with every active entry of a block rescaled by a / b at each pivot."""
    D = matrix.D
    diag, rows = mult._pattern(matrix)
    processed, pivots = [], []

    def priority(i):
        d = diag[i]
        if d < 0:
            return 0, 0, d, i
        return (1, len(rows[i]), -d, i) if d else (2, 0, 0, i)

    def eliminate(active):
        pb = 1
        while active:
            k = min(active, key=priority)
            a = diag[k]
            if a < 0:
                return {k: qc(1)}
            if a == 0:  # the least entry (i, j) left
                return next(({i: qc(Fraction(-re, pb * D), Fraction(-im, pb * D)), j: qc(1)}
                             for i, j, (re, im) in sorted((i, j, rows[i][j]) for i in active for j in rows[i])), None)
            active.remove(k)
            del diag[k]
            kcol = {i: c for i, c in rows.pop(k).items() if i in active}
            for i in active:
                rowi, inside = rows[i], i in kcol
                if inside:
                    del rowi[k]
                else:
                    diag[i] = diag[i] * a // pb
                for j, (re, im) in rowi.items():
                    if not (inside and j in kcol):
                        rowi[j] = (re * a // pb, im * a // pb)
            order = list(kcol)
            for p, i in enumerate(order):
                (kr, ki), rowi = kcol[i], rows[i]
                diag[i] = (a * diag[i] - kr * kr - ki * ki) // pb
                for j in order[p + 1:]:
                    (xr, xi), (old_re, old_im) = kcol[j], rowi.get(j, (0, 0))
                    re = (a * old_re - kr * xr - ki * xi) // pb
                    im = (a * old_im - kr * xi + ki * xr) // pb
                    if re or im:
                        rowi[j], rows[j][i] = (re, im), (re, -im)
                    else:
                        del rowi[j], rows[j][i]
            processed.append((k, a, {i: (re, -im) for i, (re, im) in kcol.items()}))
            pivots.append(Fraction(a, pb * D))
            pb = a
        return None

    lowest, k = min((d, i) for i, d in diag.items())
    blocks = sorted(mult._components(rows), key=lambda block: min((-diag[i], i) for i in block))
    witness = {k: qc(1)} if lowest < 0 else next(filter(None, map(eliminate, blocks)), None)
    if witness is not None:
        v = mult._lift_through_columns(processed, witness)
        s = mult._common_denominator(v.values())
        value = mult._witness_quadratic_value(matrix, {i: mult._gaussian(c, s) for i, c in v.items()}, s)
        return False, tuple(v.get(i, QC_ZERO) for i in range(matrix.dim)), value
    return True, processed, pivots


def _kernel_outcome(matrix: mult.MultiplierMatrix):
    """`_ldlt`'s result in `_eager_ldlt`'s shape: (True, processed, pivots) or (False, witness, witness_value)."""
    try:
        processed, pivots = mult._ldlt(matrix)
    except mult.NotPsdError as exc:
        return False, exc.witness, exc.witness_value
    return True, processed, pivots


def _assert_kernel_matches_eager(matrix: mult.MultiplierMatrix):
    assert _kernel_outcome(matrix) == _eager_ldlt(matrix)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_shifted_forms(), _assembly_cases()))
@example((random_sos_form(random.Random(5), 3, 2), 1))  # PSD with zero pivots
def test_lazy_row_scaling_matches_eager_elimination(case):
    form, N = case
    _assert_kernel_matches_eager(mult.multiplier_matrix(form, N))


@pytest.mark.parametrize("upper", [
    # two blocks; three blocks as in the zero-pivot witness test (a zero Schur remainder, a PD block, a zero diagonal)
    {(0, 0): (4, 0), (1, 1): (2, 0), (0, 1): (1, 0), (2, 2): (3, 0), (3, 3): (3, 0), (2, 3): (0, 1)},
    {(0, 0): (9, 0), (0, 1): (3, 0), (0, 2): (0, 3), (1, 1): (1, 0), (1, 2): (2, 0), (2, 2): (1, 0),
     (3, 3): (6, 0), (3, 4): (1, 0), (4, 4): (6, 0), (5, 6): (1, 0)},
    # a block whose remainder holds no entry after its pivot, then a PD block
    {(0, 0): (4, 0), (1, 1): (1, 0), (0, 1): (2, 0), (2, 2): (3, 0), (3, 3): (3, 0), (2, 3): (1, 0)},
    # the path 0-1-2-3: pivots 3 and 2 pass row 0 by, then pivot 0 leaves row 1 a negative diagonal
    {(0, 0): (2, 0), (1, 1): (1, 0), (2, 2): (5, 0), (3, 3): (5, 0), (0, 1): (3, 0), (1, 2): (1, 1), (2, 3): (2, 0)},
    # the path 0-1-2-3: pivot 3 zeroes row 2, and the witness reads row 0, not rescaled since the matrix's start
    {(3, 3): (2, 0), (2, 2): (2, 0), (2, 3): (2, 0), (1, 2): (1, 0), (0, 1): (3, -1)},
])
def test_lazy_row_scaling_matches_eager_elimination_on_hand_built_blocks(upper):
    dim = 1 + max(j for _, j in upper)
    matrix = mult.MultiplierMatrix(2, dim - 1, 0, tuple(mi.iter_degree(2, dim - 1)), 1, upper)
    _assert_kernel_matches_eager(matrix)
    _assert_kernel_matches_eager(replace(matrix, D=6))  # any common denominator gives the same output



@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_shifted_forms(), st.randoms(use_true_random=False))
@example((random_sos_form(random.Random(5), 3, 2), 1), random.Random(0))  # PSD with zero pivots
def test_relabelling_the_basis_keeps_verdict_rank_and_certificate(case, rng):
    form, N = case
    matrix = mult.multiplier_matrix(form, N)
    perm = list(range(matrix.dim))
    rng.shuffle(perm)
    moved = {}
    for (i, j), (re, im) in matrix.numerators.items():  # a key that lands below the diagonal is swapped and conjugated
        p, q = perm[i], perm[j]
        moved[(min(p, q), max(p, q))] = (re, im if p <= q else -im)
    relabelled = mult.MultiplierMatrix(matrix.n, matrix.m, N, matrix.basis, matrix.D, moved)
    verdict, moved = mult.is_psd(matrix), mult.is_psd(relabelled)
    assert (moved.is_psd, len(moved.pivots or ())) == (verdict.is_psd, len(verdict.pivots or ()))
    if moved.is_psd:
        assert mult._decompose(relabelled).verified == "exact-pass"
    else:
        assert moved.witness_value < 0  # checked exactly inside the kernel


def _exact_outcomes(matrix: mult.MultiplierMatrix):
    """`_ldlt`'s outcome, `psd_decided`'s verdict, and `_decompose`'s certificate or witness."""
    try:
        decomposed = mult._decompose(matrix)
    except mult.NotPsdError as exc:
        decomposed = exc.witness, exc.witness_value
    return _kernel_outcome(matrix), mult.psd_decided(matrix), decomposed


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_shifted_forms(), _assembly_cases()), st.randoms(use_true_random=False))
# a zero diagonal block with three entries, so its witness could take any of them
@example((_form_of_matrix(2, 2, {(0, 1): qc(1), (0, 2): qc(0, 1), (1, 2): qc(2)}), 0), random.Random(0))
@example((random_sos_form(random.Random(5), 3, 2), 1), random.Random(0))  # PSD with zero pivots
def test_no_exact_result_depends_on_the_order_of_the_entries(case, rng):
    matrix = mult.multiplier_matrix(*case)
    assert all(i <= j for i, j in matrix.numerators)
    items = list(matrix.numerators.items())
    rng.shuffle(items)
    assert _exact_outcomes(replace(matrix, numerators=dict(items))) == _exact_outcomes(matrix)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mult.minimal_sos_N(sq, 5) == 0


def test_minimal_N_not_found():
    assert mult.minimal_sos_N(forms.fc_form(2), 4) is None


def _linear_scan(form, n_max, size_cap=mult.DEFAULT_SIZE_CAP):
    """Reference shift scan: every N from 0 assembled and decided by psd_decided."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    for N in range(n_max + 1):
        if mult.psd_decided(mult.multiplier_matrix(form, N, size_cap=size_cap)):
            return N
    return None


def _outcome(scan, form, n_max, size_cap=mult.DEFAULT_SIZE_CAP):
    """The scan's value, or the type and message of what it raised."""
    try:
        return scan(form, n_max, size_cap)
    except (ValueError, mult.SizeCapExceeded) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_shifted_forms())
def test_polya_diagonals_are_the_diagonal_numerators(case):
    form, n_max = case[0], 6
    digit = [(form.m + n_max + 1) ** k for k in range(form.n - 1, -1, -1)]
    for N, Q in enumerate(mult._polya_diagonals(form, n_max)):
        matrix = mult.multiplier_matrix(form, N)
        codes = [sum(x * d for x, d in zip(rho, digit)) for rho in matrix.basis]
        diagonal = {codes[i]: matrix.numerators.get((i, i), (0, 0)) for i in range(matrix.dim)}
        assert all(im == 0 for _, im in diagonal.values())
        assert {c: v for c, v in Q.items() if v} == {c: re for c, (re, _) in diagonal.items() if re}  # cancelled: 0
    assert N == n_max


@pytest.mark.parametrize("size_cap", [mult.DEFAULT_SIZE_CAP, 10])
def test_scan_matches_linear_scan_on_sample_and_fc_forms(size_cap):
    cases = [formats.load_form(path) for path in sorted(SAMPLES.glob("*.json"))]
    cases += [forms.fc_form(c) for c in C_GRID]
    for form in cases:
        assert _outcome(mult.minimal_sos_N, form, 20, size_cap) == _outcome(_linear_scan, form, 20, size_cap)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shifted_forms(), st.sampled_from([mult.DEFAULT_SIZE_CAP, 20]))
def test_scan_matches_linear_scan_on_random_forms(case, size_cap):
    form, _ = case
    assert _outcome(mult.minimal_sos_N, form, 5, size_cap) == _outcome(_linear_scan, form, 5, size_cap)


def _ladder_form() -> forms.HermitianForm:
    """Polya-type sum |z_i|^4 - (1/2) sum |z_i z_j|^2 plus three hermitian off-diagonal pairs, n = 3:
    its diagonal is first nonnegative at N = 3, and it is PSD (PD, one dense block) from N = 5 on."""
    terms = [(a, a, qc(1)) for a in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
    terms += [(a, a, qc(Fraction(-1, 2))) for a in ((1, 1, 0), (1, 0, 1), (0, 1, 1))]
    for a, b, c in [((2, 0, 0), (0, 1, 1), qc(Fraction(1, 16), Fraction(1, 16))),
                    ((0, 2, 0), (1, 0, 1), qc(Fraction(-1, 16), Fraction(1, 32))),
                    ((1, 1, 0), (0, 0, 2), qc(Fraction(1, 32), Fraction(-1, 16)))]:
        terms += [(a, b, c), (b, a, c.conj())]
    return forms.HermitianForm.from_terms(3, 2, terms)


@pytest.mark.parametrize("form, n_max, found, assembled", [
    (forms.fc_form(2), 4, None, []),  # no shift has a nonnegative diagonal
    (forms.fc_form(Fraction(7, 4)), 20, 13, []),  # diagonal: the Polya bound is the minimum
    (forms.fc_form(Fraction(3, 2)), 20, 5, []),
    (_ladder_form(), 10, 5, [3, 4, 5]),  # not diagonal: every shift from the bound to the minimum
])
def test_scan_assembles_nothing_below_the_polya_bound(form, n_max, found, assembled, monkeypatch):
    shifts, assemble = [], mult.multiplier_matrix

    def counted(f, N, size_cap=mult.DEFAULT_SIZE_CAP):
        shifts.append(N)
        return assemble(f, N, size_cap)

    monkeypatch.setattr(mult, "multiplier_matrix", counted)
    assert mult.minimal_sos_N(form, n_max) == found
    assert shifts == assembled


def test_scan_raises_the_size_cap_of_a_skipped_shift():
    # fc_7_4 first has a nonnegative diagonal at N = 13; the cap is first exceeded at N = 8 (dim 11)
    form = formats.load_form(SAMPLES / "fc_7_4.json")
    expected = (mult.SizeCapExceeded, "matrix dimension 11 exceeds size cap 10")
    assert _outcome(mult.minimal_sos_N, form, 20, 10) == _outcome(_linear_scan, form, 20, 10) == expected


def test_scan_stops_the_polya_recurrence_once_the_diagonal_sums_below_zero(monkeypatch):
    # fc_3's Q_0 is (1, -3, 1): Q_N sums to -2^N, so every shift has a negative diagonal entry
    drawn, diagonals = [], mult._polya_diagonals

    def counted(form, n_max):
        for Q in diagonals(form, n_max):
            drawn.append(Q)
            yield Q

    monkeypatch.setattr(mult, "_polya_diagonals", counted)
    form = forms.fc_form(3)
    assert mult.minimal_sos_N(form, 2000) is None
    assert len(drawn) == 1
    # the cap still fires at the first shift over it: N = 8 (dim 11) here, and N = 19998 (dim 20001) by default
    expected = (mult.SizeCapExceeded, "matrix dimension 11 exceeds size cap 10")
    assert _outcome(mult.minimal_sos_N, form, 2000, 10) == _outcome(_linear_scan, form, 2000, 10) == expected
    with pytest.raises(mult.SizeCapExceeded, match="matrix dimension 20001 exceeds size cap 20000"):
        mult.minimal_sos_N(form, 19998)
    assert len(drawn) == 3


def test_scan_stops_the_polya_recurrence_once_the_diagonal_is_negative_on_the_simplex(monkeypatch):
    # p = 8 x1^2 - 9 x1 x2 + 2 x2^2 sums to 1 > 0, but Q_1's most negative entry sits at (1, 2), where p = -2
    drawn, diagonals = [], mult._polya_diagonals

    def counted(form, n_max):
        for Q in diagonals(form, n_max):
            drawn.append(Q)
            yield Q

    monkeypatch.setattr(mult, "_polya_diagonals", counted)
    form = forms.HermitianForm.from_terms(
        2, 2, [((2, 0), (2, 0), qc(4)), ((0, 2), (0, 2), qc(1)), ((1, 1), (1, 1), qc(Fraction(-9, 2)))])
    assert mult.minimal_sos_N(form, 4000) is None
    assert len(drawn) <= 3
    # the cap still fires at the first shift over it, as it does in the scan that assembles every shift
    expected = (mult.SizeCapExceeded, "matrix dimension 11 exceeds size cap 10")
    assert _outcome(mult.minimal_sos_N, form, 20, 10) == _outcome(_linear_scan, form, 20, 10) == expected


def test_one_variable_form_builds_at_a_large_shift_without_factorials(monkeypatch):
    # dim 1 at every N, so no size cap stops it; each N!/mu! is a product of binomials
    monkeypatch.setattr(math, "factorial", _must_not_run)
    form = forms.HermitianForm.from_terms(1, 2, [((2,), (2,), qc(Fraction(3, 7)))])
    matrix = mult.multiplier_matrix(form, 20000)
    assert matrix.basis == ((20002,),)
    assert matrix.entries == {(0, 0): qc(Fraction(3, 7))}


def test_scan_raises_on_a_non_real_diagonal_coefficient_at_zero():
    # the real parts (1, -1, 1) are negative until N = 1; such a form is refused when it is built
    f = forms.fc_form(1)
    with pytest.raises(forms.SymmetryViolation) as info:
        forms.HermitianForm(2, 2, {**f.coeffs, ((1, 1), (1, 1)): qc(-1, Fraction(1, 3))})
    assert str(info.value) == "c[(1, 1),(1, 1)] = -1+1/3i is not the conjugate of c[(1, 1),(1, 1)] = -1+1/3i"
    # its matrix at N = 0, built by hand: the decision refuses a non-real diagonal entry 1 (z1 z2)
    matrix = mult.MultiplierMatrix(2, 2, 0, ((2, 0), (1, 1), (0, 2)), 3, {(0, 0): (3, 0), (2, 2): (3, 0), (1, 1): (-3, 1)})
    with pytest.raises(ValueError, match=re.escape("diagonal entry 1 not real; matrix not hermitian")):
        mult.psd_decided(matrix)


def test_scan_rejects_a_term_of_the_wrong_degree():
    # (0, 5) has degree 5, not m = 2: unchecked, its code at N = 1 would alias onto a basis entry
    f = forms.fc_form(1)
    with pytest.raises(forms.DegreeMismatch) as info:
        forms.HermitianForm(2, 2, {**f.coeffs, ((0, 5), (0, 5)): qc(1)})
    assert str(info.value) == "index (0, 5) has degree 5, expected 2"


@st.composite
def _diagonal_forms(draw):
    """sum_a c_aa |z^a|^2 with signed c_aa on a random set of the degree-m monomials."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    basis = list(mi.iter_degree(n, m))
    support = draw(st.lists(st.sampled_from(basis), unique=True, max_size=len(basis)))
    return forms.HermitianForm.from_terms(n, m, [(a, a, qc(draw(_rationals))) for a in support])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_diagonal_forms(), st.integers(0, 8), st.sampled_from([mult.DEFAULT_SIZE_CAP, 10]))
@example(forms.fc_form(Fraction(7, 4)), 20, 10)  # the cap fires at N = 8, before the bound 13
def test_diagonal_forms_scan_without_assembly(form, n_max, size_cap):
    expected = _outcome(_linear_scan, form, n_max, size_cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mult, "multiplier_matrix", _must_not_run)
        assert _outcome(mult.minimal_sos_N, form, n_max, size_cap) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shifted_forms().map(lambda case: (*case, False)))
@example((forms.fc_form(1), 1, True))  # the examples are PSD from their minimal shift N on
@example((forms.fc_form(Fraction(3, 2)), 5, True))
@example((random_sos_form(random.Random(5), 2, 2), 0, True))
@example((random_sos_form(random.Random(6), 3, 1), 0, True))
@example((ridge_form(), 0, True))
def test_monotonicity_in_shift(case):
    # PSD at N implies PSD at N + 1 and N + 2, which minimal_sos_N's first success relies on
    form, N, psd_expected = case
    psd = mult.is_psd(mult.multiplier_matrix(form, N)).is_psd
    assert psd or not psd_expected
    if psd:
        assert all(mult.is_psd(mult.multiplier_matrix(form, k)).is_psd for k in (N + 1, N + 2))


# ---------------------------------------------------------------------------
# float-first PSD decisions
# ---------------------------------------------------------------------------

SAMPLES = Path(__file__).resolve().parent.parent / "sample_forms"
SINGULAR_SAMPLES = ("fc_1", "fc_3_2", "fc_7_4", "polya_diag_n2_m3", "polya_diag_n3_m2")


@pytest.fixture
def ldlt_calls(monkeypatch):
    """The dimension of each matrix the exact kernel factors; psd_decided reaches it only through is_psd."""
    calls = []
    kernel = mult._ldlt

    def counted(matrix):
        calls.append(matrix.dim)
        return kernel(matrix)

    monkeypatch.setattr(mult, "_ldlt", counted)
    return calls


def _must_not_run(*args):
    raise AssertionError("reached a routine the decision should not need")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shifted_forms())
def test_psd_decided_agrees_with_exact_kernel(case):
    matrix = mult.multiplier_matrix(*case)
    assert mult.psd_decided(matrix) == mult.is_psd(matrix).is_psd


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_shifted_forms())
def test_clearly_indefinite_matrices_are_refuted_without_the_exact_kernel(case):
    # the eigenvector of the complex block, rounded to Gaussian integers over 2^40, is an exact witness
    # wherever the float spectrum is clearly negative: no such matrix escalates to is_psd
    matrix = mult.multiplier_matrix(*case)
    A = matrix.to_dense()
    if np.linalg.eigvalsh(A)[0] < -1e-6 * np.linalg.norm(A):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mult, "is_psd", _must_not_run)
            assert not mult.psd_decided(matrix)


@st.composite
def _boundary_matrices(draw):
    """||z||^4 + t G at a shift N, t a dyadic rational a relative step from G's float threshold t*.

    t* is the largest t keeping the float matrix PSD, so steps of one ulp and 0
    land where no float test can decide and steps of 1e-4 where one can.
    """
    n, N = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    G = random_hermitian_form(random.Random(draw(st.integers(0, 2**16))), n, 2)
    base = forms.inner_power(n, 2)
    if draw(st.booleans()):
        G = forms.scale(G, -1)
    d = 1 / np.sqrt(np.diag(mult.multiplier_matrix(base, N).to_dense()).real)  # the base matrix is diagonal, > 0
    lam = np.linalg.eigvalsh(d[:, None] * mult.multiplier_matrix(G, N).to_dense() * d[None, :])[0]
    assume(lam < -1e-6)  # then t* = -1 / lam
    step = draw(st.sampled_from([-1e-4, -1e-8, -1e-12, -2.0**-52, 0.0, 2.0**-52, 1e-12, 1e-8, 1e-4]))
    t = Fraction(-1 / lam * (1 + step))
    return mult.multiplier_matrix(add_forms(base, forms.scale(G, t)), N)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_boundary_matrices())
def test_psd_decided_agrees_with_exact_kernel_at_the_boundary(matrix):
    assert mult.psd_decided(matrix) == mult.is_psd(matrix).is_psd


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_boundary_matrices())
def test_lazy_row_scaling_matches_eager_elimination_at_the_boundary(matrix):
    _assert_kernel_matches_eager(matrix)


def test_indefinite_by_a_rounding_error_is_not_taken_for_pd():
    # ||z||^4 + t G at G's float threshold, n = 2, N = 0: the block [[1, c], [conj(c), 2]] with
    # |c|^2 above 2 by 3.1e-16, so lambda_min = -3.3e-16; a float Cholesky of the block without
    # Rump's shift runs to completion
    D = 3 * 2**54
    c = (36234795250144211, 67293191178839249)
    matrix = mult.MultiplierMatrix(2, 2, 0, ((2, 0), (1, 1), (0, 2)), D, {
        (0, 0): (D, 0), (1, 1): (2 * D, 0), (2, 2): (D, 0), (0, 1): c})
    assert c[0] ** 2 + c[1] ** 2 > 2 * D * D
    assert not mult.psd_decided(matrix)


@pytest.mark.parametrize("name", SINGULAR_SAMPLES)
def test_singular_sample_forms_decide_exactly(name, monkeypatch):
    # diagonal at their minimal shift, so the exact sign test of each 1x1 block decides them:
    # neither the float Cholesky nor the exact kernel runs
    form = formats.load_form(SAMPLES / f"{name}.json")
    N = mult.minimal_sos_N(form, 20)
    matrix, below = mult.multiplier_matrix(form, N), mult.multiplier_matrix(form, N - 1)
    assert _is_diagonal(matrix) and len(mult.is_psd(matrix).pivots) < matrix.dim  # singular
    monkeypatch.setattr(mult, "_ldlt", _must_not_run)
    monkeypatch.setattr(np.linalg, "cholesky", _must_not_run)
    assert mult.psd_decided(matrix) and not mult.psd_decided(below)


@pytest.mark.parametrize("N", [0, 1, 2])
def test_singular_block_escalates_to_exact_kernel(N, ldlt_calls):
    # |z1^2 + z2^2|^2 has singular blocks at every shift, which no float test settles: one of dim 2
    # at N = 0, two at N = 1 and 2; each goes to the exact kernel alone, at its own dimension
    matrix = mult.multiplier_matrix(forms.HermitianForm.from_terms(
        2, 2, [((2, 0), (2, 0), qc(1)), ((0, 2), (0, 2), qc(1)), ((2, 0), (0, 2), qc(1)), ((0, 2), (2, 0), qc(1))]), N)
    assert mult.psd_decided(matrix)
    assert ldlt_calls == {0: [2], 1: [2, 2], 2: [3, 2]}[N]


def _orthogonal_form(n: int, c) -> forms.HermitianForm:
    """||z||^4 - c |z^T z|^2, invariant under O(n) and diagonal in no basis for n >= 3."""
    squares = [tuple(2 * (i == k) for i in range(n)) for k in range(n)]
    return add_forms(forms.inner_power(n, 2),
                     forms.HermitianForm.from_terms(n, 2, [(a, b, qc(-c)) for a in squares for b in squares]))


@pytest.mark.parametrize("n, N, c, dims", [
    (3, 5, Fraction(7, 9), [10, 10, 10]),  # dim 36, blocks 6, 10, 10, 10: the 6-block is PD
    (4, 4, Fraction(5, 8), [20]),  # dim 84, blocks 4, six of 10 and 20: only the 20-block is singular
])
def test_only_the_unsettled_blocks_reach_the_exact_kernel(n, N, c, dims, ldlt_calls):
    # c = (2j + 1)/(2j + n), j = ceil(N/2), is the form's threshold at N: PSD and singular there
    matrix = mult.multiplier_matrix(_orthogonal_form(n, c), N)
    assert mult.psd_decided(matrix)
    assert ldlt_calls == dims
    assert mult.is_psd(matrix).is_psd
    above = mult.multiplier_matrix(_orthogonal_form(n, c + Fraction(1, 2**20)), N)
    assert not mult.psd_decided(above)
    assert not mult.is_psd(above).is_psd


def test_pd_ladder_form_decides_without_exact_kernel(monkeypatch):
    # PD at its minimal shift 5 (smallest eigenvalue 0.014 of the Frobenius norm), one dense block
    form = _ladder_form()
    matrix = mult.multiplier_matrix(form, 5)
    assert len(mult.is_psd(matrix).pivots) == matrix.dim == 36
    assert not mult.is_psd(mult.multiplier_matrix(form, 4)).is_psd
    monkeypatch.setattr(mult, "_ldlt", _must_not_run)
    assert mult.psd_decided(matrix)
    assert mult.minimal_sos_N(form, 10) == 5


@pytest.mark.parametrize("N", [3, 4])
def test_ladder_form_is_refuted_without_eigh_or_the_exact_kernel(N, monkeypatch):
    # below its minimal shift one dense block is indefinite: the inverse-iteration witness refutes it
    matrix = mult.multiplier_matrix(_ladder_form(), N)
    monkeypatch.setattr(np.linalg, "eigh", _must_not_run)
    monkeypatch.setattr(mult, "is_psd", _must_not_run)
    assert not mult.psd_decided(matrix)


@st.composite
def _hermitian_blocks(draw):
    """Hermitian d x d blocks, d <= 40: dense, with a repeated lowest eigenvalue, or circulant."""
    d, kind = draw(st.integers(1, 40)), draw(st.sampled_from(["dense", "repeated", "circulant", "real circulant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = A + A.conj().T
    elif kind == "repeated":
        Q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        lam = rng.standard_normal(d)
        lam[:draw(st.integers(1, d))] = lam.min()
        H = (Q * lam) @ Q.conj().T
        H = (H + H.conj().T) / 2
    else:  # eigenvectors are Fourier vectors; a real symmetric one pairs eigenvalues k and d - k
        c = rng.standard_normal(d) + (0 if kind == "real circulant" else 1j) * rng.standard_normal(d)
        c = (c + np.conj(np.roll(c[::-1], 1))) / 2  # c_(-k) = conj(c_k)
        H = c[(np.arange(d)[None, :] - np.arange(d)[:, None]) % d]
    return H * 10.0 ** draw(st.integers(-6, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_hermitian_blocks())
@example(np.array([[1, 3], [3, 1]], dtype=complex))  # lowest eigenvector (1, -1), orthogonal to all ones
def test_lowest_eigenvector_has_the_lowest_rayleigh_quotient(H):
    x = verified.lowest_eigenvector(H)
    rayleigh = (x.conj() @ H @ x).real / (x.conj() @ x).real
    assert abs(rayleigh - np.linalg.eigvalsh(H)[0]) <= 1e-9 * np.linalg.norm(H)


@pytest.mark.parametrize("entries, psd, escalations", [
    ({(0, 0): (1, 0), (0, 1): (1, 0), (1, 1): (1, 0), (2, 2): (1, 0)}, True, 1),  # singular block
    ({(0, 0): (3, 0), (0, 1): (1, 1), (1, 1): (3, 0), (2, 2): (1, 0)}, True, 0),  # PD block
    ({(0, 0): (1, 0), (0, 1): (3, 0), (1, 1): (1, 0), (2, 2): (1, 0)}, False, 0),  # indefinite block
])
def test_huge_numerators_do_not_overflow(entries, psd, escalations, ldlt_calls):
    big = 2**1100 + 1  # beyond the double range, so a float(...) of an entry would raise OverflowError
    numerators = {key: (re * big, im * big) for key, (re, im) in entries.items()}
    matrix = mult.MultiplierMatrix(2, 2, 0, ((2, 0), (1, 1), (0, 2)), 3, numerators)
    assert mult.psd_decided(matrix) == psd == mult.is_psd(matrix).is_psd
    assert len(ldlt_calls) == escalations + 1  # + the is_psd call of the assertion


@pytest.mark.parametrize("entries, psd, blocks", [
    ({(0, 0): (1, 0), (0, 1): (1, 0), (1, 1): (1, 0), (2, 2): (1, 0)}, True, 1),  # singular block
    ({(0, 0): (1, 0), (0, 1): (3, 0), (1, 1): (1, 0), (2, 2): (1, 0)}, False, 1),  # indefinite block
    ({(0, 0): (1, 0), (0, 1): (1, 0), (1, 1): (1, 0), (2, 2): (1, 0), (2, 3): (0, 1), (3, 3): (1, 0)}, True, 2),
])
def test_a_witness_solve_that_raises_leaves_the_block_to_is_psd(entries, psd, blocks, monkeypatch):
    def no_solve(H):
        raise np.linalg.LinAlgError("singular matrix")

    exact, calls = mult.is_psd, []

    def counted(matrix):
        calls.append(matrix.dim)
        return exact(matrix)

    basis = ((3, 0), (2, 1), (1, 2), (0, 3))[: 1 + max(j for _, j in entries)]
    matrix = mult.MultiplierMatrix(2, 3, 0, basis, 1, entries)
    monkeypatch.setattr(verified, "lowest_eigenvector", no_solve)
    monkeypatch.setattr(mult, "is_psd", counted)
    assert mult.psd_decided(matrix) == psd == exact(matrix).is_psd
    assert calls == [2] * blocks  # each block that neither float test settles, at its own dimension


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_single_square_certificate():
    for m in (1, 2, 3):
        cert = mult.sos_decompose(coordinate_power(2, m, 0), 0)
        assert cert.verified == "exact-pass"
        assert cert.num_squares() == 1
        (sq,) = cert.squares
        assert sq == mult.SosSquare(Fraction(1), 1, {(m, 0): (1, 0)})


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
    form = add_forms(forms.fc_form(3), random_hermitian_form(rng, 2, 2)) if seed else forms.fc_form(1)
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
    tampered = _with_square(cert, 0, _nudged(sq0, next(iter(sq0.coefficients))))
    status, _ = mult.verify_certificate(f, tampered)
    assert status == "fail"


# The weight and shape gates come before any arithmetic, so a certificate built by hand with float
# scalars is refused by them just as an exact one is.
@pytest.mark.parametrize("scalars, weight", [("exact", Fraction(-1)), ("exact", Fraction(0)), ("float", -1.0), ("float", 0.0)])
def test_verify_rejects_non_positive_weight(scalars, weight):
    # weight * |z1|^2 reproduces weight * |z1|^2 exactly, but only a positive weight makes it a sum of squares
    square = mult.SosSquare(weight, 1, {(1, 0): (1, 0) if scalars == "exact" else (1.0, 0.0)})
    cert = mult.SosCertificate(2, 1, 0, (square,))
    form = forms.scale(coordinate_power(2, 1, 0), Fraction(weight))
    assert mult.verify_certificate(form, cert)[0] == "fail"


@pytest.mark.parametrize("scalars", ["exact", "float"])
def test_verify_rejects_certificate_of_another_shape(scalars):
    # |z1^2|^2 at (n, m, N) = (2, 2, 0) puts 1 at basis position 0, as |z1|^2 does at (2, 1, 0)
    square = mult.SosSquare(Fraction(1) if scalars == "exact" else 1.0, 1, {(2, 0): (1, 0) if scalars == "exact" else (1.0, 0.0)})
    cert = mult.SosCertificate(2, 2, 0, (square,))
    assert mult.verify_certificate(coordinate_power(2, 1, 0), cert) == ("fail", None)


def test_exact_certificates_across_corpus():
    rng = random.Random(99)
    cases = [forms.fc_form(Fraction(1, 2)), ridge_form(), random_sos_form(rng, 2, 2)]
    for f in cases:
        n0 = mult.minimal_sos_N(f, 8)
        cert = mult.sos_decompose(f, n0)
        assert cert.verified == "exact-pass"
        assert all(sq.weight > 0 for sq in cert.squares)


def reference_expansion(cert: mult.SosCertificate) -> dict:
    """sum_j w_j Q_j conj(Q_j) by QC products over every ordered pair: expand_squares' former exact loop."""
    position = {alpha: i for i, alpha in enumerate(mi.iter_degree(cert.n, cert.m + cert.N))}
    out = {}
    for sq in cert.squares:
        ranked = [(position[a], qc(Fraction(re, sq.den), Fraction(im, sq.den))) for a, (re, im) in sq.coefficients.items()]
        for i, ci in ranked:
            for j, cj in ranked:
                s = out.get((i, j), QC_ZERO) + sq.weight * ci * cj.conj()
                if s.is_zero:
                    out.pop((i, j), None)
                else:
                    out[(i, j)] = s
    return out


_denominators = st.one_of(st.integers(1, 12), st.sampled_from([10**9 + 7, 2**61 - 1, 2**127 - 1]))
_cert_rationals = st.builds(Fraction, st.integers(-30, 30), _denominators)


def _square(weight: Fraction, coefficients: dict) -> mult.SosSquare:
    """The square with these exact coefficients, over the lcm of their denominators, which is in lowest terms."""
    den = mult._common_denominator(coefficients.values())
    return mult.SosSquare(weight, den, {alpha: mult._gaussian(c, den) for alpha, c in coefficients.items()})


@st.composite
def _exact_certificates(draw):
    """Weighted squares that do not come from LDL*: any order, repeats, cancellations, zero squares."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    basis = list(mi.iter_degree(n, m))
    squares = []
    for _ in range(draw(st.integers(0, 5))):
        monomials = draw(st.lists(st.sampled_from(basis), unique=True, max_size=len(basis)))  # insertion order
        coeffs = {a: qc(draw(_cert_rationals), draw(_cert_rationals)) for a in monomials}
        weight = abs(draw(_cert_rationals)) + Fraction(1, draw(_denominators))
        squares.append(_square(weight, coeffs))
        if draw(st.booleans()):
            squares.append(squares[draw(st.integers(0, len(squares) - 1))])  # a repeated square
        if len(coeffs) > 1 and draw(st.booleans()):
            # same weight, one coefficient negated: its products with the others cancel
            flip = draw(st.sampled_from(monomials))
            squares.append(_square(weight, {a: -c if a == flip else c for a, c in coeffs.items()}))
    return mult.SosCertificate(n, m, 0, tuple(draw(st.permutations(squares))))


def _with_square(cert: mult.SosCertificate, k: int, square: mult.SosSquare) -> mult.SosCertificate:
    squares = cert.squares[:k] + (square,) + cert.squares[k + 1:]
    return mult.SosCertificate(cert.n, cert.m, cert.N, squares)


def _nudged(sq: mult.SosSquare, alpha) -> mult.SosSquare:
    """sq with the real part of its coefficient at alpha moved by 1 away from 0: (re +- den, im) over den."""
    re, im = sq.coefficients[alpha]
    return mult.SosSquare(sq.weight, sq.den, {**sq.coefficients, alpha: (re + (sq.den if re >= 0 else -sq.den), im)})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_exact_certificates())
def test_expand_squares_matches_reference_and_verifies_exactly(cert):
    reference = reference_expansion(cert)
    assert mult.expand_squares(cert) == reference
    basis = list(mi.iter_degree(cert.n, cert.m))
    form = forms.HermitianForm.from_terms(cert.n, cert.m, [(basis[i], basis[j], c) for (i, j), c in reference.items()])
    assert mult.verify_certificate(form, cert) == ("exact-pass", 0.0)
    for k, sq in enumerate(cert.squares):
        tampered = []
        if any(re or im for re, im in sq.coefficients.values()):
            tampered.append(mult.SosSquare(sq.weight * (1 + Fraction(1, 10**30)), sq.den, sq.coefficients))
        for a in sq.coefficients:
            # a real change of |c|^2 on the diagonal: w ((c.re + d)^2 - c.re^2) = w (2 |c.re| + 1) with d = +-1
            tampered.append(_nudged(sq, a))
        missing = next((a for a in basis if a not in sq.coefficients), None)
        if missing is not None:
            tampered.append(mult.SosSquare(sq.weight, sq.den, {**sq.coefficients, missing: (sq.den, 0)}))
        for square in tampered:
            assert mult.verify_certificate(form, _with_square(cert, k, square))[0] == "fail"


GOLDEN = Path(__file__).resolve().parent / "golden"


def _decomposed(name: str) -> tuple[forms.HermitianForm, mult.SosCertificate]:
    """A sample form at its golden certificate's shift, or the seed-26 form of kernel_random.json at
    N = 2 (15 squares, each weight with its own denominator), with its sos_decompose certificate."""
    if name == "kernel-random-26":
        (case,) = [c for c in json.loads((GOLDEN / "kernel_random.json").read_text())["cases"] if c["seed"] == 26]
        form, N = formats.form_from_dict(case["form"]), 2
    else:
        form = formats.load_form(SAMPLES / f"{name}.json")
        N = formats.load_certificate(GOLDEN / f"certificate_{name}.json")[0].N
    return form, mult.sos_decompose(form, N)


@pytest.mark.parametrize("name", [path.stem for path in sorted(SAMPLES.glob("*.json"))] + ["kernel-random-26"])
def test_verification_does_not_depend_on_square_order(name):
    # each entry of the expansion is kept over the denominators of the squares up to the last one
    # holding its indices, so reordering the squares moves those horizons
    form, cert = _decomposed(name)
    shuffled = random.Random(name).sample(cert.squares, len(cert.squares))
    for squares in (cert.squares[::-1], tuple(shuffled)):
        reordered = mult.SosCertificate(cert.n, cert.m, cert.N, squares)
        assert mult.expand_squares(reordered) == mult.expand_squares(cert)
        assert mult.verify_certificate(form, reordered) == ("exact-pass", 0.0)
    *rest, final = cert.squares
    assert mult.verify_certificate(form, mult.SosCertificate(cert.n, cert.m, cert.N, tuple(rest)))[0] == "fail"
    changed = _nudged(final, list(final.coefficients)[-1])
    assert mult.verify_certificate(form, _with_square(cert, len(rest), changed))[0] == "fail"


def _kernel_records(name: str):
    """(form, N, psd) of every record of a kernel golden file."""
    for case in json.loads((GOLDEN / name).read_text())["cases"]:
        if name == "kernel_random.json":
            form = formats.form_from_dict(case["form"])
            yield from ((form, N, shift["psd"]) for N, shift in enumerate(case["shifts"]))
        else:
            yield formats.load_form(SAMPLES / f"{case['form']}.json"), case["N"], case["psd"]


@pytest.mark.parametrize("name", ["kernel_sample_forms.json", "kernel_random.json"])
def test_lazy_row_scaling_matches_eager_elimination_on_the_kernel_golden_forms(name):
    for form, N, _ in _kernel_records(name):
        _assert_kernel_matches_eager(mult.multiplier_matrix(form, N))


@pytest.mark.parametrize("name", ["kernel_sample_forms.json", "kernel_random.json"])
def test_squares_are_in_lowest_terms_with_pivot_coefficient_den(name):
    for form, N in ((form, N) for form, N, psd in _kernel_records(name) if psd):
        matrix = mult.multiplier_matrix(form, N)
        processed, pivots = mult._ldlt(matrix)
        cert = mult.sos_decompose(form, N)
        assert [sq.weight for sq in cert.squares] == pivots
        for (k, _, _), sq in zip(processed, cert.squares):
            assert sq.den > 0 and math.gcd(sq.den, *(x for c in sq.coefficients.values() for x in c)) == 1
            assert sq.coefficients[matrix.basis[k]] == (sq.den, 0)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("certificate_*.json")), ids=lambda p: p.stem)
def test_expand_squares_matches_reference_on_golden_certificates(path):
    cert, _ = formats.load_certificate(path)
    assert mult.expand_squares(cert) == reference_expansion(cert)
