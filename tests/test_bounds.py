import math
from fractions import Fraction

import pytest

from hsos import bounds, forms, multiplier as mult, spheremin

from conftest import C_GRID, coordinate_power, diag_n3_form, ridge_form


def test_certified_N_example():
    f = forms.fc_form(1)
    assert bounds.certified_N(f, 1, 0.25, 1.5) == 128


def test_certified_N_degenerate_C():
    f = forms.fc_form(1)
    for C in (0, -1, Fraction(0), math.nan):
        with pytest.raises(ValueError, match="universal constant C must be positive"):
            bounds.certified_N(f, C, 0.25, 1.5)
    with pytest.raises(ValueError, match="universal constant C must be positive, got 0"):
        bounds.bound_report(f, C=0)
    with pytest.raises(ValueError, match="constant c must be positive"):
        bounds.nie_schweighofer_N(f, 0.0, 0.25)


def test_certified_N_linear_in_ratio():
    f = forms.fc_form(1)
    # doubling lambda halves the pre-ceiling value: compensating with C restores it
    full = bounds.certified_N(f, 1, 0.25, 1.5)  # ceil(127.88) = 128
    halved = bounds.certified_N(f, 1, 0.5, 1.5)  # ceil(63.94) = 64
    assert (full, halved) == (128, 64)
    assert bounds.certified_N(f, 2, 0.5, 1.5) == full


def test_certified_N_requires_positive_lambda_and_n2():
    f = forms.fc_form(1)
    with pytest.raises(bounds.NonPositiveLambda):
        bounds.certified_N(f, 1, 0.0, 1.5)
    one_var = coordinate_power(1, 2, 0)
    with pytest.raises(ValueError):
        bounds.certified_N(one_var, 1, 1.0, 1.0)


def test_powers_resnick_examples():
    assert bounds.powers_resnick_N(forms.fc_form(1), 0.25) == 3
    # m = 1 diagonal form: rhs = -1 < 0, floored to 0
    assert bounds.powers_resnick_N(forms.inner_power(2, 1), 1.0) == 0
    # c = 0: lambda = 1/2, diag max = 1 -> smallest N > 0 is 1
    assert bounds.powers_resnick_N(forms.fc_form(0), 0.5) == 1


def test_powers_resnick_requires_diagonal():
    with pytest.raises(bounds.NotDiagonal):
        bounds.powers_resnick_N(ridge_form(), 1.0)


def test_to_yeung_examples():
    assert bounds.to_yeung_N(forms.fc_form(1), 0.25, 1.0) == 66
    assert bounds.to_yeung_N(forms.inner_power(2, 1), 1.0, 1.0) == 0


def test_to_yeung_scale_invariance():
    f = forms.fc_form(1)
    t = 3.0 / 7.0
    assert bounds.to_yeung_N(f, 0.25, 1.0) == bounds.to_yeung_N(f, 0.25 * t, 1.0 * t)


def test_nie_schweighofer_example():
    val = bounds.nie_schweighofer_N(forms.fc_form(1), 1.0, 0.25)
    assert val == math.floor(math.exp(64.0)) + 1
    assert 6.2e27 < val < 6.3e27


def test_nie_schweighofer_overflow():
    f = forms.fc_form(1)
    assert bounds.nie_schweighofer_N(f, 1.0, 1e-300) is None


def test_all_bounds_scale_invariant_and_minimal_N_too():
    t = Fraction(3, 7)
    f = forms.fc_form(1)
    g = forms.scale(f, t)
    lam_f, lam_g = 0.25, 0.25 * float(t)
    big_f, big_g = forms.big_lambda(f), forms.big_lambda(g)
    assert bounds.certified_N(f, 1, lam_f, big_f) == bounds.certified_N(g, 1, lam_g, big_g)
    assert bounds.powers_resnick_N(f, lam_f) == bounds.powers_resnick_N(g, lam_g)
    assert bounds.to_yeung_N(f, lam_f, 1.0) == bounds.to_yeung_N(g, lam_g, float(t))
    assert bounds.nie_schweighofer_N(f, 1.0, lam_f) == bounds.nie_schweighofer_N(g, 1.0, lam_g)
    assert mult.minimal_sos_N(f, 6) == mult.minimal_sos_N(g, 6)


def test_minimal_N_monotone_in_c():
    values = []
    for c in C_GRID:
        values.append(mult.minimal_sos_N(forms.fc_form(c), 20))
    assert all(v is not None for v in values)
    assert values == sorted(values)


def test_bound_report_fc1():
    report = bounds.bound_report(forms.fc_form(1), n_max=10)
    assert report.empirical_minimal_N == 1
    assert report.powers_resnick_N == 3
    assert report.to_yeung_N == 66
    assert report.certified_N == 128
    assert report.nie_schweighofer_N is not None
    assert report.smallest_sufficient_C == Fraction(1, 64)
    assert all(report.checks.values())


def test_bound_report_constant_form():
    report = bounds.bound_report(forms.inner_power(2, 2), n_max=4)
    assert report.empirical_minimal_N == 0
    assert all(report.checks.values())


def test_bound_report_boundary_c2():
    report = bounds.bound_report(forms.fc_form(2), n_max=3)
    assert report.empirical_minimal_N is None
    assert "empirical_minimal_N" in report.notes
    for key in ("certified_N", "powers_resnick_N", "to_yeung_N", "nie_schweighofer_N"):
        assert getattr(report, key) is None
        assert "positive" in report.notes[key]


def test_bound_report_on_one_variable_notes_both_bounds_that_need_n2():
    # |z|^4 is a sum of squares at N = 0 with λ = 1 > 0, so only n = 1 keeps certified_N and the C grid from a value
    report = bounds.bound_report(coordinate_power(1, 2, 0), n_max=2)
    assert report.lambda_value == pytest.approx(1.0) and report.empirical_minimal_N == 0
    assert report.certified_N is None and report.smallest_sufficient_C is None
    assert report.notes["certified_N"] == report.notes["smallest_sufficient_C"] == "bound requires n >= 2 (log n > 0)"


def test_bound_report_nondiagonal_skips_pr():
    report = bounds.bound_report(ridge_form(), n_max=4)
    assert report.powers_resnick_N is None
    assert "diagonal" in report.notes["powers_resnick_N"]
    assert report.empirical_minimal_N == 0
    assert report.to_yeung_N is not None


def test_sufficient_bounds_are_psd_small_cases():
    # direct PSD confirmation at the bound values for small members of the corpus
    cases = [
        (forms.fc_form(1), 0.25),
        (forms.fc_form(Fraction(1, 2)), 0.375),
        (diag_n3_form(), 1.0 / 6.0),
    ]
    for f, lam in cases:
        pr = bounds.powers_resnick_N(f, lam)
        assert mult.is_psd(mult.multiplier_matrix(f, pr)).is_psd


def _refuse_shifts_above(monkeypatch, n_max):
    """Make multiplier_matrix and psd_decided fail a test at any shift above n_max."""
    assemble, decide = mult.multiplier_matrix, mult.psd_decided

    def capped_matrix(form, N, *args, **kwargs):
        assert N <= n_max, f"multiplier matrix assembled at N = {N} > n_max"
        return assemble(form, N, *args, **kwargs)

    def capped_decision(matrix):
        assert matrix.N <= n_max, f"PSD decided at N = {matrix.N} > n_max"
        return decide(matrix)

    monkeypatch.setattr(mult, "multiplier_matrix", capped_matrix)
    monkeypatch.setattr(mult, "psd_decided", capped_decision)


def test_bound_report_without_a_psd_shift_up_to_n_max(monkeypatch):
    # fc(31/16): no PSD shift up to 4, and its Nie-Schweighofer exponent overflows a double
    _refuse_shifts_above(monkeypatch, 4)
    report = bounds.bound_report(forms.fc_form(Fraction(31, 16)), n_max=4)
    assert report.nie_schweighofer_overflow and report.nie_schweighofer_N is None
    assert report.notes["nie_schweighofer_N"] == "double-precision overflow"
    assert report.empirical_minimal_N is None
    assert report.notes["empirical_minimal_N"] == "no PSD shift found up to N = 4"
    assert report.smallest_sufficient_C is None
    assert report.notes["smallest_sufficient_C"] == "no empirical minimal N up to N = 4"


def test_smallest_sufficient_C_probes_no_shift_beyond_the_scan(monkeypatch):
    # the scan stops at the size cap; the bound at C = 8 is 1024 <= 4 n_max, a shift the C search must not probe
    _refuse_shifts_above(monkeypatch, 256)
    report = bounds.bound_report(forms.fc_form(1), n_max=256, size_cap=2)
    assert report.empirical_minimal_N is None and report.smallest_sufficient_C is None
    assert report.notes["smallest_sufficient_C"] == "no empirical minimal N up to N = 256"


def test_bound_report_notes_the_size_cap():
    report = bounds.bound_report(forms.fc_form(1), n_max=4, size_cap=2)
    assert report.empirical_minimal_N is None and report.smallest_sufficient_C is None
    assert report.notes["empirical_minimal_N"] == "matrix dimension 3 exceeds size cap 2"
    assert report.notes["smallest_sufficient_C"] == "no empirical minimal N up to N = 4"


def test_smallest_sufficient_C_is_noted_when_no_grid_step_reaches_the_shift(monkeypatch):
    # a shift the bound reaches only at C = 8, the last grid step, and one it never reaches
    form = forms.fc_form(1)
    lam, _ = spheremin.sphere_range(form)  # the form's one sphere pass, which bound_report reads again
    at_max = bounds.certified_N(form, bounds.C_MAX, lam.value, forms.big_lambda(form))
    assert bounds.certified_N(form, bounds.C_MAX - Fraction(1, 64), lam.value, forms.big_lambda(form)) < at_max
    for shift, smallest, note in ((at_max, Fraction(8), None), (at_max + 1, None, "no C up to 8 on the 1/64 grid")):
        monkeypatch.setattr(mult, "minimal_sos_N", lambda f, n_max, size_cap: shift)
        report = bounds.bound_report(form)
        assert report.empirical_minimal_N == shift and report.smallest_sufficient_C == smallest
        assert report.notes.get("smallest_sufficient_C") == note
        assert report.checks["empirical_le_certified"] is False
