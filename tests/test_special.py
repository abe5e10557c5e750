import math

import numpy as np
import pytest
from scipy import special as sc  # reference only; the package does not import scipy.special

from hsos import special, spheremin


def _same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize("d", range(2, 9))
def test_ndtri_matches_scipy_bit_for_bit_on_halton_points(d):
    # scipy gets the coordinates clipped as special.ndtri clips them; 40k points in d = 2..8 are 1.4M coordinates
    h = spheremin._halton(d, 40_000)
    got = special.ndtri(h)
    assert got.shape == h.shape
    assert _same_bits(got, sc.ndtri(np.clip(h, 1e-12, 1 - 1e-12)))


def test_ndtri_matches_scipy_bit_for_bit_on_uniforms_and_branch_edges():
    edges = [1e-12, 1 - 1e-12, 0.5, math.exp(-2), 1 - math.exp(-2)]
    p = np.concatenate([np.clip(np.random.default_rng(7).random(1_000_000), 1e-12, 1 - 1e-12), edges])
    assert _same_bits(special.ndtri(p), sc.ndtri(p))


def test_ndtri_clips_to_the_samplers_bounds():
    got = special.ndtri([[0.0, 1.0], [-0.5, 1.5]])
    assert got.shape == (2, 2)
    low, high = special.ndtri([1e-12, 1 - 1e-12])
    assert _same_bits(got, [[low, high], [low, high]])
    # the clip keeps the tail's x = sqrt(-2 log y) below Cephes' far-tail branch (x >= 8), which is not ported
    y_min = min(special._P_MIN, 1.0 - (1.0 - special._P_MIN))
    assert math.sqrt(-2.0 * math.log(y_min)) < 8.0


def _regularized(a, x, upper):
    return math.exp(special.log_incomplete_gamma(a, x, upper) - math.lgamma(a))


@pytest.mark.parametrize("a_max, rel", [(400, 1e-12), (2001, 1e-11)])
def test_log_incomplete_gamma_matches_scipy(a_max, rel):
    worst = 0.0
    for a in np.geomspace(1.0, a_max, 40):
        for x in a * np.geomspace(0.01, 5.0, 60):
            for upper, reference in ((False, sc.gammainc), (True, sc.gammaincc)):
                want = float(reference(a, x))
                if want < 1e-290:  # scipy's value is at or near underflow
                    continue
                worst = max(worst, abs(_regularized(a, x, upper) - want) / want)
    assert worst <= rel


def test_log_incomplete_gamma_below_the_double_range():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for a, x, upper in [(2001.0, 200.0, False), (2001.0, 5000.0, True), (5004.0, 10000.0, True)]:
        exact = mpmath.gammainc(a, x, mpmath.inf) if upper else mpmath.gammainc(a, 0, x)
        got = special.log_incomplete_gamma(a, x, upper)
        assert got - math.lgamma(a) < -745  # the regularized value underflows, its log does not
        assert got == pytest.approx(float(mpmath.log(exact)), rel=1e-14)


def test_log_incomplete_gamma_ends_and_domain():
    assert special.log_incomplete_gamma(3.0, 0.0, upper=False) == -math.inf
    assert special.log_incomplete_gamma(3.0, 0.0, upper=True) == pytest.approx(math.log(2.0), abs=1e-15)
    # γ(1, x) = 1 - e^-x and Γ(1, x) = e^-x on both sides of x = a + 1
    for x in (0.5, 3.0):
        assert special.log_incomplete_gamma(1.0, x, upper=True) == pytest.approx(-x, rel=1e-15)
        assert special.log_incomplete_gamma(1.0, x, upper=False) == pytest.approx(math.log(-math.expm1(-x)), rel=1e-14)
    for a, x in [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            special.log_incomplete_gamma(a, x, upper=True)


def test_log_incomplete_gamma_reports_non_convergence():
    # a beyond 2^53: a + 1 == a, the series' denominators stop growing and it cannot converge
    with pytest.raises(ArithmeticError):
        special.log_incomplete_gamma(1e17, 1e17 * (1 - 1e-9), upper=False)
