import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from hsos import audit, formats, forms, spheremin

from conftest import random_hermitian_form

SAMPLES = Path(__file__).resolve().parent.parent / "sample_forms"


# ---------------------------------------------------------------------------
# Laplacian power regularity
# ---------------------------------------------------------------------------

def test_laplacian_powers_inner_square():
    reports = audit.check_laplacian_powers(forms.inner_power(2, 2), samples=4000)
    by_name = {r.check_name: r for r in reports}
    # (Δ/4) <z,z>^2 = 6 <z,z>: the sampled max at j=1 is 6
    assert by_name["laplacian-power-j1"].lhs == pytest.approx(6.0, rel=1e-9)
    assert all(r.passed for r in reports)


def test_laplacian_power_j0_is_sup_bound():
    f = forms.fc_form(1)
    rep = audit.check_laplacian_powers(f, samples=4000)[0]
    assert rep.lhs <= forms.big_lambda(f) * (1 + 1e-12)


def test_laplacian_powers_zero_form():
    reports = audit.check_laplacian_powers(forms.HermitianForm.zero(2, 2), samples=64)
    assert all(r.passed for r in reports)
    assert all(r.lhs == 0.0 for r in reports)


def test_laplacian_powers_random_forms():
    rng = random.Random(40)
    for _ in range(10):
        f = random_hermitian_form(rng, rng.choice([2, 3]), rng.choice([1, 2, 3]))
        assert all(r.passed for r in audit.check_laplacian_powers(f, samples=2000))


def test_laplacian_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # a running maximum over chunks is the maximum over all points, and each point depends on its index alone
    rng = random.Random(41)
    cases = [(forms.fc_form(1), 1000), (random_hermitian_form(rng, 3, 2), 1000), (forms.HermitianForm.zero(2, 2), 10)]
    whole = [audit.check_laplacian_powers(f, samples=samples) for f, samples in cases]  # one chunk each
    points = spheremin.unit_sphere_samples(3, 1000)
    monkeypatch.setattr(spheremin, "EVAL_CHUNK", 7)
    assert [audit.check_laplacian_powers(f, samples=samples) for f, samples in cases] == whole
    assert np.array_equal(np.concatenate(list(spheremin.unit_sphere_chunks(3, 1000))), points)


# ---------------------------------------------------------------------------
# radial identity
# ---------------------------------------------------------------------------

def test_radial_I1_trivial_cases():
    assert audit.radial_I1(0, 3).rhs == 1.0
    for M in (0, 3, 17):
        rep = audit.radial_I1(M, 1)
        assert rep.rhs == 1.0 and rep.passed
    for M, n in [(-1, 3), (2, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"invalid (M, n) = ({M}, {n})")):
            audit.radial_I1(M, n)


def test_radial_I1_example():
    rep = audit.radial_I1(10, 3)
    assert rep.rhs == 66.0
    assert rep.passed


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_tail_J_grid_point():
    rep = audit.tail_J(50, 0.2)
    assert rep.passed
    assert 0 < rep.ratio  # calibration ratio reported


def test_tail_J_delta_near_one():
    rep = audit.tail_J(10, 0.999)
    assert rep.passed
    assert rep.lhs >= 0.0


def _quadrature_tails(rho, delta):
    """(J-, J+) by adaptive quadrature, as tail_J computed them before its closed form: the reference."""

    def integrand(t):
        return math.exp(rho * (math.log(t) - t)) if t > 0 else 0.0

    j_minus, _ = integrate.quad(integrand, 0.0, 1.0 - delta, epsabs=1e-300, epsrel=1e-10, limit=300)
    x = 745.0 / rho + 2.0
    for _ in range(60):
        x = 745.0 / rho + math.log(max(x, 1.0 + delta))
    upper = max(1.0 + delta + 10.0 / rho, x + 5.0)
    j_plus, _ = integrate.quad(integrand, 1.0 + delta, upper, epsabs=1e-300, epsrel=1e-10, limit=300)
    return j_minus, j_plus


def _tail_bounds(rho, delta):
    cplus = (1.0 + delta) - math.log1p(delta)
    return (
        math.exp(rho * (math.log1p(-delta) - 1.0 + delta)) / (rho * delta),
        (cplus / (cplus - 1.0)) * math.exp(-rho * cplus) / rho,
    )


def test_tail_J_closed_form_matches_quadrature():
    grid = [(rho, d10 / 10.0) for rho in (5, 10, 20, 50, 100) for d10 in range(1, 10)]
    for rho, delta in grid + [(50, 0.2), (10, 0.999)]:
        want = _quadrature_tails(rho, delta)
        got = [math.exp(v) for v in audit.log_tail_J(rho, delta)]
        assert got == pytest.approx(want, rel=1e-9), (rho, delta)
        verdicts = ["ok" if j <= b * (1 + 1e-9) else "FAIL" for j, b in zip(want, _tail_bounds(rho, delta))]
        rep = audit.tail_J(rho, delta)
        assert re.findall(r"\((ok|FAIL)\)", rep.notes) == verdicts, (rho, delta)
        assert rep.passed == (verdicts == ["ok", "ok"])
        assert rep.lhs == pytest.approx(sum(want), rel=1e-9)


def test_tail_J_decides_from_logs_below_the_double_range(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rho, delta = 2000.0, 0.9
    scale = -(rho + 1) * mpmath.log(rho)
    exact = (
        scale + mpmath.log(mpmath.gammainc(rho + 1, 0, rho * (1 - delta))),
        scale + mpmath.log(mpmath.gammainc(rho + 1, rho * (1 + delta), mpmath.inf)),
    )
    logs = audit.log_tail_J(rho, delta)
    assert logs == pytest.approx([float(v) for v in exact], rel=1e-13)
    assert max(logs) < -745  # both tails underflow as doubles
    rep = audit.tail_J(rho, delta)
    assert rep.passed and rep.lhs == 0.0 and rep.ratio == math.inf
    # J- above its bound by a factor e, and still 0.0 as a double: the check must fail
    log_bound_minus = rho * (math.log1p(-delta) - 1.0 + delta) - math.log(rho * delta)
    monkeypatch.setattr(audit, "log_tail_J", lambda r, d: (log_bound_minus + 1.0, logs[1]))
    rep = audit.tail_J(rho, delta)
    assert not rep.passed and "J-=0.000e+00 vs 0.000e+00 (FAIL)" in rep.notes


def test_tail_delta_grid():
    rep = audit.tail_delta_inequality(99)
    assert rep.passed and rep.lhs <= 0.0


def test_tail_J_rejects_bad_inputs():
    with pytest.raises(ValueError):
        audit.tail_J(-1, 0.5)
    with pytest.raises(ValueError):
        audit.tail_J(5, 1.5)


# ---------------------------------------------------------------------------
# localization quantity
# ---------------------------------------------------------------------------

def test_exact_E_k0_is_subunit():
    for h, M, n in [(0.01, 100, 2), (0.005, 205, 3), (1 / 640, 642, 2)]:
        eps = audit.default_epsilon(h)
        val = audit.exact_localization_E(h, M, 0, eps, n)
        assert 0.0 <= val <= 1.0


def test_exact_E_against_direct_quadrature():
    # independent route: numerically integrate the exterior radial integral
    h, M, k, eps, n = 0.05, 21, 2, 0.4, 2
    a = M + k + n

    def integrand(t):
        return t ** (a - 1) * math.exp(-t)

    lo, hi = (1 - eps) / h, (1 + eps) / h
    left, _ = integrate.quad(integrand, 0, lo, limit=300)
    right, _ = integrate.quad(integrand, hi, a + 60 * math.sqrt(a), limit=300)
    expected_sq = h**k * (left + right) / math.gamma(M + n)
    got = audit.exact_localization_E(h, M, k, eps, n) ** 2
    assert got == pytest.approx(expected_sq, rel=1e-9)


def test_exact_E_decays_with_shrinking_h():
    n, m = 2, 2
    values = []
    for N in (160, 640, 2560, 40960):
        h = 1.0 / N
        values.append(audit.exact_localization_E(h, N + m, m, audit.default_epsilon(h), n))
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-3


def test_localization_report_in_window():
    h = 1 / 320
    params = audit.RegimeParams(h=h, N=320, m=2, n=2, epsilon=audit.default_epsilon(h))
    for k in range(3):
        rep = audit.localization_report(params, k)
        assert rep.passed
        assert rep.ratio < 1.0  # far below the packaged bound at these scales


def test_localization_report_decides_below_the_double_range(monkeypatch):
    # hsos audit --suite localization --N 5000 --epsilon 1: E is about e^-768 for each k
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    h, eps = 1 / 5000, 1.0
    params = audit.RegimeParams(h=h, N=5000, m=2, n=2, epsilon=eps)
    M = params.M
    for k in range(3):
        # the inner tail is empty (ε = 1), so E^2 = h^k Γ(M+k+n, (1+ε)/h) / Γ(M+n)
        upper = mpmath.gammainc(M + k + 2, (1 + eps) / h, mpmath.inf)
        exact = 0.5 * (k * mpmath.log(h) + mpmath.log(upper) - mpmath.loggamma(M + 2))
        log_e = audit.log_localization_E(h, M, k, eps, 2)
        assert log_e == pytest.approx(float(exact), rel=1e-12)
        rep = audit.localization_report(params, k)
        log_ratio = log_e - audit.localization_bound_log(h, M, k, eps, 2)
        assert rep.lhs == 0.0 and rep.passed
        assert rep.ratio > 0 and rep.ratio == pytest.approx(math.exp(log_ratio), rel=1e-12)
    # E above the bound by a factor e: the check fails
    monkeypatch.setattr(
        audit, "log_localization_E", lambda h, M, k, eps, n: audit.localization_bound_log(h, M, k, eps, n) + 1.0
    )
    rep = audit.localization_report(params, 0)
    assert rep.ratio == pytest.approx(math.e) and not rep.passed


def test_localization_report_window_violation():
    # sigma_2 = 0.2 (7 + 2 + 2 - 1) = 2 is outside the window: a failed report, not an exception
    params = audit.RegimeParams(h=0.2, N=5, m=2, n=2, epsilon=0.5)
    rep = audit.localization_report(params, 2)
    assert rep.check_name == "localization-E"
    assert rep.parameters == {"h": 0.2, "M": 7, "k": 2, "epsilon": 0.5, "n": 2}
    assert math.isnan(rep.lhs) and math.isnan(rep.rhs) and math.isnan(rep.ratio)
    assert rep.passed is False
    assert rep.notes == "window violated: sigma window fails at (h=0.2, M=7, k=2): sigma_k=2.0000, eps=0.5"


def test_mc_localization_small():
    rep = audit.mc_localization_check(2, 6, 2, h=1 / 6, epsilon=0.3, samples=200_000, seed=11)
    assert rep.passed


def test_mc_localization_n1():
    rep = audit.mc_localization_check(1, 5, 1, h=0.2, epsilon=0.4, samples=200_000, seed=12)
    assert rep.passed


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_mc_localization_needs_two_samples(samples):
    # the standard error (ddof=1) of one sample is nan
    with pytest.raises(ValueError, match="at least 2"):
        audit.mc_localization_check(2, 6, 2, h=1 / 6, epsilon=0.3, samples=samples)


# ---------------------------------------------------------------------------
# sigma window
# ---------------------------------------------------------------------------

def _params_for_sigma(sigma: float, eps: float, m: int = 2, n: int = 2, N: int = 1000):
    M = N + m
    return audit.RegimeParams(h=sigma / (M + m + n - 1), N=N, m=m, n=n, epsilon=eps)


def test_sigma_window_verdicts():
    assert audit.check_sigma_window(_params_for_sigma(1.0 + 1e-9, 0.5)).passed
    assert audit.check_sigma_window(_params_for_sigma(1.2, 0.9)).passed
    assert not audit.check_sigma_window(_params_for_sigma(1.5 - 1e-9, 1.0)).passed
    assert not audit.check_sigma_window(_params_for_sigma(1.6, 1.0)).passed


def test_sigma_window_epsilon_floor():
    # epsilon below 4(sigma - 1) is inadmissible
    assert not audit.check_sigma_window(_params_for_sigma(1.2, 0.5)).passed


def _window_formula(h, M, k, epsilon, n):
    """The window test as written before it moved onto RegimeParams."""
    sigma = h * (M + k + n - 1)
    return 1.0 < sigma < 1.5 and 4.0 * (sigma - 1.0) <= epsilon <= 1.0


def test_window_holds_is_the_window_formula():
    params = [
        _params_for_sigma(sigma, eps, m=m, n=n, N=N)
        for sigma in (1.0, 1.0 + 1e-9, 1.2, 1.5 - 1e-9, 1.5, 1.6)
        for eps in (0.0, 0.5, 0.8, 0.9, 1.0, 1.5)
        for m, n, N in ((2, 2, 1000), (1, 3, 7), (4, 1, 0))
    ]
    params += [
        audit.RegimeParams(h=h, N=N, m=m, n=n, epsilon=eps)
        for h in (1 / 320, 0.01, 0.2, 1.0)
        for N in (0, 1, 5, 320)
        for m in (0, 2, 3)
        for n in (1, 2, 4)
        for eps in (0.0, 0.3, audit.default_epsilon(h), 1.0, 2.0)
    ]
    verdicts = set()
    for p in params:
        for k in range(p.m + 2):
            holds = p.window_holds(k)
            assert holds == _window_formula(p.h, p.M, k, p.epsilon, p.n), (p, k)
            assert p.sigma_at(k) == p.h * (p.M + k + p.n - 1)
            verdicts.add(holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "fields",
    [{"N": -1}, {"m": -1}, {"n": 0}, {"h": 0.0}, {"h": -0.1}, {"h": math.nan}],
    ids=["N-1", "m-1", "n0", "h0", "h-0.1", "h-nan"],
)
def test_regime_params_are_checked_when_built(fields):
    with pytest.raises(ValueError, match="h must be positive" if "h" in fields else "invalid regime"):
        audit.RegimeParams(**{"h": 0.1, "N": 2, "m": 2, "n": 2, "epsilon": 0.5, **fields})


# ---------------------------------------------------------------------------
# basic inequality and threshold scan
# ---------------------------------------------------------------------------

def test_basic_rhs_positive_at_small_h():
    f = forms.fc_form(1)
    h = 1 / 1024
    params = audit.RegimeParams(h=h, N=1024, m=2, n=2, epsilon=audit.default_epsilon(h))
    value, rep = audit.basic_rhs(f, params, lambda_value=0.25, big_lambda_value=1.5)
    assert value > 0
    assert rep.passed  # sampled annulus min dominates the explicit floor
    assert value < 0.25  # RHS can never exceed lambda


def test_basic_rhs_approaches_lambda():
    f = forms.fc_form(1)
    vals = []
    for N in (1024, 8192, 65536):
        h = 1.0 / N
        params = audit.RegimeParams(h=h, N=N, m=2, n=2, epsilon=audit.default_epsilon(h))
        value, _ = audit.basic_rhs(f, params, lambda_value=0.25, big_lambda_value=1.5)
        vals.append(value)
    assert vals == sorted(vals)
    assert vals[-1] > 0.2


def test_basic_rhs_zero_form():
    z = forms.HermitianForm.zero(2, 2)
    h = 1 / 1024
    params = audit.RegimeParams(h=h, N=1024, m=2, n=2, epsilon=audit.default_epsilon(h))
    value, rep = audit.basic_rhs(z, params, lambda_value=0.0, big_lambda_value=0.0)
    assert value == 0.0 and rep.passed


def test_basic_rhs_two_eps_factor():
    # with Λ = 0 the RHS reduces to (1 - E0) λ (1-2ε)^m; at ε = 1/4 the factor is 2^-m
    f = forms.inner_power(2, 2)
    h, N = 1 / 4096, 4096
    params = audit.RegimeParams(h=h, N=N, m=2, n=2, epsilon=0.25)
    value, _ = audit.basic_rhs(f, params, lambda_value=1.0, big_lambda_value=0.0)
    e0 = audit.exact_localization_E(h, N + 2, 0, 0.25, 2)
    assert value == pytest.approx((1 - e0) * 0.25, rel=1e-12)


def test_basic_rhs_window_enforced():
    # sigma_0 = 0.2 (7 + 0 + 1) = 1.6: the window fails at k = 0 first, and the report says so
    f = forms.fc_form(1)
    params = audit.RegimeParams(h=0.2, N=5, m=2, n=2, epsilon=0.58)
    value, rep = audit.basic_rhs(f, params, lambda_value=0.25, big_lambda_value=1.5)
    assert math.isnan(value) and not rep.passed
    assert rep.check_name == "basic-rhs" and rep.parameters["N"] == 5
    assert all(math.isnan(x) for x in (rep.lhs, rep.rhs, rep.ratio))
    assert rep.notes == "window violated: sigma window fails at (h=0.2, M=7, k=0): sigma_k=1.6000, eps=0.58"


def test_empirical_h0_fc1():
    scan = audit.empirical_h0(forms.fc_form(1), lambda_value=0.25, big_lambda_value=1.5)
    assert scan.found
    assert scan.implied_N >= 1  # dominates the empirical minimal shift (= 1)
    assert scan.h0 == pytest.approx(1 / 640)


def test_empirical_h0_easier_for_constant_form():
    f = forms.inner_power(2, 2)
    scan_ip = audit.empirical_h0(
        f, lambda_value=1.0, big_lambda_value=forms.big_lambda(f)
    )
    scan_fc = audit.empirical_h0(forms.fc_form(1), lambda_value=0.25, big_lambda_value=1.5)
    assert scan_ip.found and scan_fc.found
    # lambda comparable to Lambda admits a larger threshold
    assert scan_ip.h0 >= scan_fc.h0


def test_empirical_h0_nonpositive_lambda():
    scan = audit.empirical_h0(forms.fc_form(2), lambda_value=0.0, big_lambda_value=1.5)
    assert not scan.found
    assert scan.h0 is None and scan.implied_N is None
    assert scan.grid_points == 0
    assert "lambda" in scan.note


_H0_FORMS = {
    **{path.stem: formats.load_form(path) for path in sorted(SAMPLES.glob("*.json"))},
    **{f"fc-{c}": forms.fc_form(c) for c in (Fraction(1, 2), 1, Fraction(3, 2), Fraction(7, 4))},
}


def _h0_by_basic_rhs(form, lam, big):
    """(found, h0, implied_N, grid_points) of the scan, from basic_rhs at every grid h.

    Also checks that _basic_value's value is basic_rhs's, bit for bit, wherever the window holds,
    and that basic_rhs reports a failed window wherever it does not.
    """
    first = None
    for count, h in enumerate(audit.H_GRID, 1):
        N = max(1, math.ceil(1.0 / h))
        params = audit.RegimeParams(h=h, N=N, m=form.m, n=form.n, epsilon=audit.default_epsilon(h))
        value, report = audit.basic_rhs(form, params, lam, big)
        if not all(params.window_holds(k) for k in range(form.m + 1)):
            assert math.isnan(value) and report.notes.startswith("window violated: ")
            continue
        assert audit._basic_value(params, lam, big)[0] == value
        if value > 0 and first is None:
            first = (True, h, N, count)
    if lam <= 0:
        return False, None, None, 0
    return first or (False, None, None, len(audit.H_GRID))


@pytest.mark.parametrize("name", sorted(_H0_FORMS))
def test_empirical_h0_matches_a_scan_over_basic_rhs(monkeypatch, name):
    form = _H0_FORMS[name]
    lam, big = forms.lambda_min(form).value, forms.big_lambda(form)
    expected = _h0_by_basic_rhs(form, lam, big)

    def refuse(*args, **kwargs):
        raise AssertionError("the h0 scan draws no annulus sample")

    # the scan evaluates the inequality only: no q symbol, no sphere directions, no q evaluation
    for module, attr in ((audit, "unit_sphere_samples"), (forms, "q_symbol"), (forms, "q_evaluate_batch")):
        monkeypatch.setattr(module, attr, refuse)
    scan = audit.empirical_h0(form, lambda_value=lam, big_lambda_value=big)
    assert (scan.found, scan.h0, scan.implied_N, scan.grid_points) == expected


def test_empirical_h0_without_a_positive_rhs_counts_the_whole_grid():
    form, lam, big = forms.fc_form(1), 1e-12, 1.5  # λ too small for any grid h
    scan = audit.empirical_h0(form, lambda_value=lam, big_lambda_value=big)
    assert (scan.found, scan.h0, scan.implied_N, scan.grid_points) == _h0_by_basic_rhs(form, lam, big)
    assert scan.grid_points == len(audit.H_GRID) and scan.note == "no positive RHS on the grid"


def test_unit_sphere_samples_deterministic():
    a = audit.unit_sphere_samples(2, 100)
    b = audit.unit_sphere_samples(2, 100)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
