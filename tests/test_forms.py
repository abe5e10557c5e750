import copy
import math
import pickle
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hsos import forms
from hsos.exact import QC_ZERO, qc
from hsos.forms import HermitianForm

from conftest import add_forms, coordinate_power, quarter_laplacian_oracle, random_hermitian_form, C_GRID, ridge_form


# ---------------------------------------------------------------------------
# validation: a form is checked when it is built
# ---------------------------------------------------------------------------

def test_validate_fc_ok():
    f = forms.fc_form(1)
    assert HermitianForm(f.n, f.m, f.coeffs) == f


def test_validate_symmetry_violation():
    with pytest.raises(forms.SymmetryViolation) as info:
        HermitianForm.from_terms(2, 2, [((2, 0), (0, 2), qc(0, 1)), ((0, 2), (2, 0), qc(0, 1))])
    assert str(info.value) == "c[(0, 2),(2, 0)] = 0+1i is not the conjugate of c[(2, 0),(0, 2)] = 0+1i"


def test_validate_zero_form_ok():
    assert HermitianForm.zero(2, 2).is_zero


def test_validate_degree_mismatch():
    with pytest.raises(forms.DegreeMismatch) as info:
        HermitianForm(2, 2, {((1, 0), (1, 0)): qc(1)})
    assert str(info.value) == "index (1, 0) has degree 1, expected 2"


def test_missing_conjugate_is_violation():
    with pytest.raises(forms.SymmetryViolation) as info:
        HermitianForm.from_terms(2, 1, [((1, 0), (0, 1), qc(1, 2))])
    assert str(info.value) == "c[(0, 1),(1, 0)] = 0 is not the conjugate of c[(1, 0),(0, 1)] = 1+2i"


def test_a_form_that_is_not_real_cannot_be_built():
    # c_12 = 1 without its conjugate c_21: unchecked, psd_decided(multiplier_matrix(f, 0)) would call it PSD
    with pytest.raises(forms.SymmetryViolation) as info:
        HermitianForm(2, 1, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 1, ((1, 0), (0, 1)): 1})
    assert str(info.value) == "c[(0, 1),(1, 0)] = 0 is not the conjugate of c[(1, 0),(0, 1)] = 1"


def test_zero_coefficients_are_dropped_when_a_form_is_built():
    f = HermitianForm(2, 2, {((2, 0), (2, 0)): QC_ZERO})
    assert f == HermitianForm.zero(2, 2) and f.is_zero
    assert HermitianForm.from_terms(2, 2, [((2, 0), (2, 0), 1), ((2, 0), (2, 0), -1)]).is_zero


def test_a_negative_exponent_of_the_right_degree_is_refused():
    # degree 2, so only the exponent check refuses it; unchecked, its Polya codes alias
    with pytest.raises(forms.FormError) as info:
        HermitianForm(2, 2, {((3, -1), (3, -1)): qc(-1), ((2, 0), (2, 0)): qc(1), ((0, 2), (0, 2)): qc(1)})
    assert str(info.value) == "index (3, -1) has an exponent that is not a non-negative integer"


def test_a_non_integer_exponent_is_refused_not_truncated():
    with pytest.raises(ValueError, match=re.escape("non-integer exponent in multi-index (2.7, 0.0)")):
        HermitianForm.from_terms(2, 2, [((2.7, 0.0), (2.2, 0.0), 1), ((0, 2), (0, 2), 1)])
    with pytest.raises(forms.FormError, match=re.escape("index (2.0, 0.0) has an exponent")):
        HermitianForm(2, 2, {((2.0, 0.0), (2.0, 0.0)): qc(1)})


def _built_forms():
    f = forms.fc_form(1)
    return {
        "constructor": HermitianForm(f.n, f.m, dict(f.coeffs)),
        "from_terms": f,
        "scale": forms.scale(f, Fraction(1, 2)),
        "add_forms": add_forms(f, ridge_form()),
        "quarter_laplacian": forms.quarter_laplacian(f),
    }


@pytest.mark.parametrize("origin", sorted(_built_forms()))
def test_coefficients_of_a_built_form_are_read_only(origin):
    f = _built_forms()[origin]
    before = dict(f.coeffs)
    key = next(iter(f.coeffs))
    with pytest.raises(TypeError):
        f.coeffs[key] = qc(100)
    with pytest.raises(TypeError):
        del f.coeffs[key]
    assert f.coeffs == before


def test_a_computed_minimum_stays_the_minimum_of_its_form():
    # a mutable map let g.coeffs[((2, 0), (2, 0))] = 100 leave lambda_min at the cached 0.25
    g = forms.fc_form(1)
    before = forms.lambda_min(g)
    with pytest.raises(TypeError):
        g.coeffs[((2, 0), (2, 0))] = qc(100)
    assert forms.lambda_min(g) == before and before.value == pytest.approx(0.25, abs=1e-9)
    assert forms.evaluate(g, [1, 0]) == 1.0


@pytest.mark.parametrize("duplicate", [lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_give_an_equal_read_only_form(duplicate):
    f = add_forms(forms.fc_form(1), ridge_form())
    forms.lambda_min(f)
    g = duplicate(f)
    assert g == f and list(g.coeffs.items()) == list(f.coeffs.items())
    assert "sphere_pass" in vars(f) and "sphere_pass" not in vars(g)  # rebuilt through the constructor
    with pytest.raises(TypeError):
        g.coeffs[((2, 0), (2, 0))] = qc(1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_fc_examples():
    f = forms.fc_form(1)
    assert forms.evaluate(f, [1, 0]) == pytest.approx(1.0, abs=1e-14)
    s = 1 / math.sqrt(2)
    assert forms.evaluate(f, [s, s]) == pytest.approx(0.25, abs=1e-12)
    assert forms.evaluate(f, [0, 0]) == 0.0


def test_evaluate_exact_rational_point():
    f = forms.fc_form(1)
    z = [qc(Fraction(3, 5)), qc(Fraction(4, 5))]
    # s = 9/25: s^2 + (1-s)^2 - s(1-s) = (81 + 256 - 144)/625
    assert forms.evaluate_exact(f, z) == Fraction(193, 625)


def test_evaluate_exact_gaussian_point():
    f = forms.fc_form(1)
    z = [qc(Fraction(3, 5), Fraction(0)), qc(Fraction(0), Fraction(4, 5))]
    assert forms.evaluate_exact(f, z) == Fraction(193, 625)


def test_evaluate_dimension_mismatch():
    with pytest.raises(forms.DimensionMismatch):
        forms.evaluate(forms.fc_form(1), [1.0])


def test_evaluate_batch_matches_pointwise():
    rng = random.Random(7)
    f = random_hermitian_form(rng, 3, 2)
    Z = (np.arange(12).reshape(4, 3) - 5) / 3.0 + 1j * np.linspace(-1, 1, 12).reshape(4, 3)
    batch = forms.evaluate_batch(f, Z)
    for i in range(4):
        assert forms.evaluate(f, Z[i]) == forms.evaluate_batch(f, [Z[i]])[0]  # evaluate is that one row, bit for bit
        assert batch[i] == pytest.approx(forms.evaluate(f, Z[i]), rel=1e-12, abs=1e-12)
    # Gaussian-rational points: the float evaluators against the exact one
    points = [
        [qc(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
         for _ in range(3)]
        for _ in range(8)
    ]
    batch = forms.evaluate_batch(f, np.array([[complex(w) for w in z] for z in points]))
    for i, z in enumerate(points):
        exact = float(forms.evaluate_exact(f, z))
        assert batch[i] == pytest.approx(exact, rel=1e-12, abs=1e-12)
        assert forms.evaluate(f, z) == pytest.approx(exact, rel=1e-12, abs=1e-12)
        assert forms.evaluate(f, z) == forms.evaluate_batch(f, [z])[0]


def test_evaluate_rejects_non_hermitian_form():
    # z1 conj(z2) alone, f(1, i) = -i: refused when it is built, so evaluate never sees it
    with pytest.raises(forms.SymmetryViolation) as info:
        HermitianForm(2, 1, {((1, 0), (0, 1)): qc(1)})
    assert str(info.value) == "c[(0, 1),(1, 0)] = 0 is not the conjugate of c[(1, 0),(0, 1)] = 1"


# ---------------------------------------------------------------------------
# quarter-Laplacian
# ---------------------------------------------------------------------------

def test_quarter_laplacian_coordinate_power():
    lap = forms.quarter_laplacian(coordinate_power(2, 2, 0))
    assert lap.coeffs == {((1, 0), (1, 0)): qc(4)}


def test_quarter_laplacian_inner_power_identity():
    # (Δ/4) <z,z>^m = m (m+n-1) <z,z>^(m-1)
    for n in (2, 3):
        for m in (1, 2, 3):
            lap = forms.quarter_laplacian(forms.inner_power(n, m))
            expected = forms.scale(forms.inner_power(n, m - 1), m * (m + n - 1))
            assert lap.coeffs == expected.coeffs


def test_quarter_laplacian_zero_form():
    assert forms.quarter_laplacian(HermitianForm.zero(2, 3)).is_zero


def test_quarter_laplacian_degree_zero_error():
    with pytest.raises(forms.DegreeZeroError):
        forms.quarter_laplacian(HermitianForm.zero(2, 0))


def test_quarter_laplacian_against_symbolic_oracle():
    rng = random.Random(101)
    for _ in range(10):
        n = rng.choice([2, 3])
        m = rng.choice([1, 2, 3])
        f = random_hermitian_form(rng, n, m)
        if f.m == 0:
            continue
        assert forms.quarter_laplacian(f).coeffs == quarter_laplacian_oracle(f)


def test_quarter_laplacian_preserves_hermitian_symmetry():
    rng = random.Random(55)
    for _ in range(20):
        f = random_hermitian_form(rng, rng.choice([2, 3]), rng.choice([2, 3]))
        lap = forms.quarter_laplacian(f)  # built, so checked hermitian
        assert all(lap.coeffs[(b, a)] == c.conj() for (a, b), c in lap.coeffs.items())


def test_laplacian_iterates_annihilate():
    rng = random.Random(17)
    for _ in range(5):
        f = random_hermitian_form(rng, 2, 3)
        its = forms.laplacian_iterates(f)
        assert len(its) == f.m + 1
        last = its[-1]
        assert last.m == 0
        assert all(sum(a) == 0 and sum(b) == 0 for (a, b) in last.coeffs)


# ---------------------------------------------------------------------------
# scalar invariants
# ---------------------------------------------------------------------------

def test_big_lambda_fc_family():
    for c in C_GRID:
        f = forms.fc_form(c)
        assert forms.big_lambda_sq(f) == 2 + Fraction(c) ** 2 / 4
    assert forms.big_lambda(forms.fc_form(1)) == 1.5


def test_big_lambda_edge_cases():
    assert forms.big_lambda_sq(HermitianForm.zero(3, 2)) == 0
    for m in (1, 2, 4):
        assert forms.big_lambda_sq(coordinate_power(2, m, 0)) == 1


def test_lambda_tilde():
    assert forms.lambda_tilde(forms.fc_form(1)) == 1
    assert forms.lambda_tilde(HermitianForm.zero(2, 2)) == 0
    f = HermitianForm.from_terms(2, 2, [((1, 1), (1, 1), qc(Fraction(7, 3)))])
    assert forms.lambda_tilde(f) == Fraction(7, 6)


def test_lambda_tilde_ignores_off_diagonal():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert forms.lambda_tilde(ridge_form()) == 2  # c[(2,0),(2,0)] = 2; the (2,0),(0,2) term is skipped


def test_lambda_min_fc_family():
    for c in C_GRID:
        r = forms.lambda_min(forms.fc_form(c))
        assert abs(r.value - float((2 - Fraction(c)) / 4)) < 1e-9
        assert r.converged


def test_lambda_min_boundary_c2():
    r = forms.lambda_min(forms.fc_form(2))
    assert abs(r.value) < 1e-9


def test_lambda_min_constant_form():
    for n, m in [(2, 1), (2, 2), (3, 2)]:
        f = forms.inner_power(n, m)
        r = forms.lambda_min(f)
        s = forms.lambda_sharp(f)
        assert abs(r.value - 1.0) < 1e-12
        assert abs(s.value - 1.0) < 1e-12
        # the form is exactly 1 at rational sphere points
        z = [qc(Fraction(3, 5)), qc(Fraction(4, 5))] + [qc(0)] * (n - 2)
        assert forms.evaluate_exact(f, z) == 1


def test_lambda_min_certificate_radius():
    r = forms.lambda_min(forms.fc_form(1))
    assert r.certified and math.isfinite(r.uncertainty)
    assert r.certified_lower_bound <= 0.25 + 1e-12


def test_lambda_min_is_lower_bound_on_samples():
    rng = random.Random(31)
    for _ in range(5):
        f = random_hermitian_form(rng, 2, 2)
        r = forms.lambda_min(f)
        from hsos.audit import unit_sphere_samples

        Z = unit_sphere_samples(2, 2000)
        assert forms.evaluate_batch(f, Z).min() >= r.value - 1e-9 * (1 + abs(r.value))


def test_lambda_sharp_examples():
    assert abs(forms.lambda_sharp(forms.fc_form(1)).value - 1.0) < 1e-9
    neg = forms.scale(coordinate_power(2, 2, 0), -1)
    assert abs(forms.lambda_sharp(neg).value - 1.0) < 1e-9


def test_sampled_sup_below_big_lambda():
    from hsos.audit import unit_sphere_samples

    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice([2, 3])
        f = random_hermitian_form(rng, n, rng.choice([1, 2, 3]))
        Z = unit_sphere_samples(n, 10_000)
        bound = forms.big_lambda(f)
        assert np.abs(forms.evaluate_batch(f, Z)).max() <= bound * (1 + 1e-12) + 1e-15


def test_frobenius_contraction_of_laplacian():
    rng = random.Random(9)
    checked = 0
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        m = rng.choice([1, 2, 3, 4])
        f = random_hermitian_form(rng, n, m)
        lhs = forms.big_lambda_sq(forms.quarter_laplacian(f))
        rhs = Fraction(n**2 * m**4) * forms.big_lambda_sq(f)
        assert lhs <= rhs
        checked += 1
    assert checked == 200


# ---------------------------------------------------------------------------
# q-symbol
# ---------------------------------------------------------------------------

def test_q_symbol_example():
    q = forms.q_symbol(coordinate_power(2, 2, 0), 1)
    assert forms.q_evaluate(q, [1, 0]) == pytest.approx(-1.0, abs=1e-14)
    assert [weight for weight, _ in q] == [1, -1, Fraction(1, 2)]


def test_q_symbol_small_h_limit():
    f = forms.fc_form(1)
    z = [0.4 + 0.1j, 0.7 - 0.3j]
    base = forms.evaluate(f, z)
    for h in (Fraction(1, 100), Fraction(1, 10000)):
        q = forms.q_symbol(f, h)
        assert abs(forms.q_evaluate(q, z) - base) < 20 * float(h)


def test_q_symbol_zero_form():
    q = forms.q_symbol(HermitianForm.zero(2, 2), Fraction(1, 3))
    assert forms.q_evaluate(q, [0.3, 0.4j]) == 0.0


def test_q_symbol_rejects_nonpositive_h():
    with pytest.raises(forms.FormError):
        forms.q_symbol(forms.fc_form(1), 0)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_scale_and_add():
    f = forms.fc_form(1)
    g = add_forms(forms.scale(f, Fraction(1, 2)), forms.scale(f, Fraction(1, 2)))
    assert g.coeffs == f.coeffs
    assert forms.scale(f, 0).is_zero


def test_is_diagonal():
    assert forms.is_diagonal(forms.fc_form(1))
    assert not forms.is_diagonal(ridge_form())


def test_from_terms_merges_duplicates():
    f = HermitianForm.from_terms(2, 1, [((1, 0), (1, 0), qc(1)), ((1, 0), (1, 0), qc(-1))])
    assert f.is_zero
