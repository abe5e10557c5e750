"""Numerical audits of the analytic estimates behind the shift-degree bound.

Checks implemented here:
  * sphere regularity of iterated quarter-Laplacians, |(Δ/4)^j f| <= (n m^2)^j Λ(f);
  * the radial moment identity I1 = (M+n-1)!/(M!(n-1)!) against adaptive quadrature;
  * the Appendix tail bounds for J(rho, delta) = ∫_{t outside [1±δ]} t^ρ e^{-ρt} dt,
    asserting only the constant-free intermediate inequalities;
  * the localization quantity E_ε(h, M, k): the largest weighted Gaussian norm of
    ||z||^k u outside the annulus 1-ε <= ||z||^2 <= 1+ε over unit degree-M
    polynomials.  Radial symmetry of the region diagonalizes the defining
    operator in the monomial basis, giving the closed form
        E^2 = h^k * [Γ-tail integral outside ((1-ε)/h, (1+ε)/h)] / Γ(M+n)
    evaluated by log-space incomplete-gamma functions and cross-checked by
    Monte-Carlo Rayleigh quotients;
  * the sigma window, decided only by RegimeParams.window_holds(k) (a RegimeParams is checked when it
    is built), and interval containment; localization_report and basic_rhs report a window failure
    as a failed report with nan values;
  * the basic positivity inequality, whose report also samples q over the 2ε
    annulus, and the empirical threshold h0, whose scan skips a grid h off the
    window and evaluates only the inequality's right-hand side.

Hidden "up to a constant" factors are never asserted; they are reported as
measured calibration ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import forms as forms_mod
from . import multiindex as mi
from .forms import HermitianForm
from .spheremin import unit_sphere_chunks, unit_sphere_samples


LOCALIZATION_CALIBRATION = 1.0  # localization_report passes when E <= this times the packaged bound
ANNULUS_DIRECTIONS = 125  # unit directions per radius of basic_rhs's annulus sample
H_GRID = tuple(0.2 * 2.0**-k for k in range(18))  # empirical_h0's h values, descending


class QuadratureNonConvergence(ArithmeticError):
    pass


@dataclass(frozen=True)
class AuditReport:
    check_name: str
    parameters: dict
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    notes: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.check_name}: lhs={self.lhs:.6e} rhs={self.rhs:.6e} ratio={self.ratio:.3e} {self.notes}"


@dataclass(frozen=True)
class RegimeParams:
    """Semiclassical parameter block, M = m + N; h > 0, N, m >= 0 and n >= 1 are checked when it is built."""

    h: float
    N: int
    m: int
    n: int
    epsilon: float

    def __post_init__(self):
        require_positive_h(self.h)
        if self.N < 0 or self.m < 0 or self.n < 1:
            raise ValueError(f"invalid regime (N={self.N}, m={self.m}, n={self.n}): need N, m >= 0, n >= 1")

    @property
    def M(self) -> int:
        return self.m + self.N

    def sigma_at(self, k: int) -> float:
        """σ_k = h (M + k + n - 1)."""
        return self.h * (self.M + k + self.n - 1)

    def window_holds(self, k: int) -> bool:
        """The sigma window at k: 1 < σ_k < 3/2 and 4(σ_k - 1) <= ε <= 1."""
        s = self.sigma_at(k)
        return 1.0 < s < 1.5 and 4.0 * (s - 1.0) <= self.epsilon <= 1.0


def require_positive_h(h: float) -> float:
    """h itself; a ValueError when the semiclassical parameter is not positive."""
    if not h > 0:
        raise ValueError(f"semiclassical parameter h must be positive, got {h}")
    return h


def default_epsilon(h: float) -> float:
    """The h^(1/3) policy, clamped to the admissible ceiling 1."""
    return min(1.0, require_positive_h(h) ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# Lemma: sphere growth of iterated quarter-Laplacians
# ---------------------------------------------------------------------------

def check_laplacian_powers(form: HermitianForm, samples: int) -> list[AuditReport]:
    """Sampled max of |(Δ/4)^j f| on the sphere against (n m^2)^j Λ(f), j = 0..m.

    The points are drawn and evaluated a chunk at a time (`unit_sphere_chunks`), so memory does not
    grow with `samples`; a running maximum is exact, so the chunks do not change the reports.
    Appends one exact report for the single-step Frobenius inequality
    Λ((Δ/4) f)^2 <= n^2 m^4 Λ(f)^2.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    n, m = form.n, form.m
    big = forms_mod.big_lambda(form)
    iterates = forms_mod.laplacian_iterates(form)
    maxima = np.zeros(len(iterates))  # a zero iterate keeps 0; np.maximum, unlike max(), passes a nan on
    for Z in unit_sphere_chunks(n, samples):
        for j, g in enumerate(iterates):
            if not g.is_zero:
                maxima[j] = np.maximum(maxima[j], np.abs(forms_mod.evaluate_batch(g, Z)).max())
    reports = []
    for j, lhs in enumerate(map(float, maxima)):
        rhs = (n * m * m) ** j * big
        passed = lhs <= rhs * (1 + 1e-12) + 1e-15
        reports.append(
            AuditReport(
                f"laplacian-power-j{j}",
                {"n": n, "m": m, "j": j, "samples": samples},
                lhs,
                rhs,
                lhs / rhs if rhs > 0 else 0.0,
                passed,
            )
        )
    if m >= 1:
        lhs_sq = forms_mod.big_lambda_sq(forms_mod.quarter_laplacian(form))
        rhs_sq = Fraction(n * n * m**4) * forms_mod.big_lambda_sq(form)
        passed = lhs_sq <= rhs_sq
        reports.append(
            AuditReport(
                "laplacian-frobenius-step",
                {"n": n, "m": m},
                math.sqrt(float(lhs_sq)),
                math.sqrt(float(rhs_sq)) if rhs_sq > 0 else 0.0,
                float(lhs_sq / rhs_sq) ** 0.5 if rhs_sq > 0 else 0.0,
                passed,
                notes="exact rational comparison of squares",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Radial moment identity
# ---------------------------------------------------------------------------

def radial_I1(M: int, n: int) -> AuditReport:
    """Quadrature of the normalized radial moment against (M+n-1)!/(M!(n-1)!).

    The Gaussian radial integral at any h > 0 reduces, via t = r^2/h, to
    ∫ t^(M+n-1) e^-t dt / (M! (n-1)!); h cancels exactly, so it is no
    argument.  Also asserts the closing inequality I1 <= (M+n)^n.
    """
    if M < 0 or n < 1:
        raise ValueError(f"invalid (M, n) = ({M}, {n})")
    from scipy import integrate, special  # scipy loads on first use: only the audit suites need it
    a = M + n
    lognorm = special.gammaln(a)

    def integrand(t):
        return math.exp((a - 1) * math.log(t) - t - lognorm) if t > 0 else 0.0

    upper = a + 40.0 * math.sqrt(a) + 50.0
    val, err = integrate.quad(  # full_output returns quad's message instead of warning: err is checked below
        integrand, 0.0, upper, epsabs=1e-300, epsrel=1e-10, limit=400, points=[max(0.0, a - 1)], full_output=1
    )[:2]
    if not math.isfinite(val) or err > 1e-8 * max(val, 1e-300):
        raise QuadratureNonConvergence(f"radial quadrature error {err:.3e} at (M, n) = ({M}, {n})")
    exact = math.comb(M + n - 1, n - 1)
    i1_quad = val * exact
    rel = abs(i1_quad - exact) / exact
    closing = exact <= (M + n) ** n
    return AuditReport(
        "radial-I1",
        {"M": M, "n": n},
        i1_quad,
        float(exact),
        i1_quad / exact,
        rel <= 1e-8 and closing,
        notes=f"rel err {rel:.2e}; I1 <= (M+n)^n {'holds' if closing else 'FAILS'}",
    )


# ---------------------------------------------------------------------------
# Appendix tail bounds
# ---------------------------------------------------------------------------

def log_tail_J(rho: float, delta: float) -> tuple[float, float]:
    """(log J-, log J+): the logs of ∫_0^(1-δ) and ∫_(1+δ)^∞ of t^ρ e^(-ρt) dt, in closed form.

    With s = ρt, J- = ρ^-(ρ+1) γ(ρ+1, ρ(1-δ)) and J+ = ρ^-(ρ+1) Γ(ρ+1, ρ(1+δ)).
    """
    if rho <= 0 or not (0 < delta < 1):
        raise ValueError(f"invalid (rho, delta) = ({rho}, {delta})")
    from .special import log_incomplete_gamma  # imported on first use, like spheremin's ndtri
    log_scale = -(rho + 1.0) * math.log(rho)
    return (
        log_scale + log_incomplete_gamma(rho + 1.0, rho * (1.0 - delta), upper=False),
        log_scale + log_incomplete_gamma(rho + 1.0, rho * (1.0 + delta), upper=True),
    )


def tail_J(rho: float, delta: float) -> AuditReport:
    """Both tails of ∫ t^ρ e^(-ρt), in closed form (log_tail_J), against the explicit bounds.

    Hard assertions (constant-free), decided on logs, so they hold or fail on
    their merits when the tails are below the double range:
      J- <= (1/(ρ δ)) ((1-δ) e^(δ-1))^ρ
      J+ <= (c+/(c+-1)) e^(-ρ c+) / ρ,   c+ = (1+δ) - log(1+δ)
    The ratio against the packaged bound (1/(ρ δ^2)) exp(-ρ(1+δ²/4)) is
    calibration data for the hidden constant, never asserted.
    """
    log_j_minus, log_j_plus = log_tail_J(rho, delta)
    j_minus, j_plus = math.exp(log_j_minus), math.exp(log_j_plus)

    minus_exponent = rho * (math.log1p(-delta) - 1.0 + delta)
    est1 = math.exp(minus_exponent) / (rho * delta)
    cplus = (1.0 + delta) - math.log1p(delta)
    plus_factor = cplus / (cplus - 1.0)
    jplus_bound = plus_factor * math.exp(-rho * cplus) / rho
    packaged = math.exp(-rho * (1.0 + delta * delta / 4.0)) / (rho * delta * delta)

    slack = math.log1p(1e-9)
    ok_minus = log_j_minus <= minus_exponent - math.log(rho * delta) + slack
    ok_plus = log_j_plus <= math.log(plus_factor) - rho * cplus - math.log(rho) + slack
    total = j_minus + j_plus
    return AuditReport(
        "tail-J",
        {"rho": rho, "delta": delta},
        total,
        packaged,
        total / packaged if packaged > 0 else math.inf,
        ok_minus and ok_plus,
        notes=(
            f"J-={j_minus:.3e} vs {est1:.3e} ({'ok' if ok_minus else 'FAIL'}); "
            f"J+={j_plus:.3e} vs {jplus_bound:.3e} ({'ok' if ok_plus else 'FAIL'}); "
            f"ratio vs packaged bound is calibration data"
        ),
    )


def tail_delta_inequality(points: int = 99) -> AuditReport:
    """(1+δ) e^(-δ) <= e^(-δ²/4) on an interior grid of (0, 1)."""
    deltas = [(i + 1) / (points + 1) for i in range(points)]
    worst = max((1 + d) * math.exp(-d) - math.exp(-d * d / 4.0) for d in deltas)
    return AuditReport(
        "tail-delta-inequality",
        {"points": points},
        worst,
        0.0,
        0.0,
        worst <= 0.0,
        notes="max over grid of (1+d)e^-d - e^(-d^2/4)",
    )


# ---------------------------------------------------------------------------
# Localization quantity E
# ---------------------------------------------------------------------------

def log_localization_E(h: float, M: int, k: int, epsilon: float, n: int) -> float:
    """log E_ε(h, M, k), for E the weighted norm of ||z||^k u concentrated OUTSIDE the annulus.

    E^2 = h^k [Γ(a, (1+ε)/h) + γ(a, (1-ε)/h)] / Γ(M+n),  a = M+k+n,
    with Γ/γ the upper/lower incomplete gamma functions.  Each tail is taken
    in log space and the two are added by log-add-exp, so no cancellation
    occurs when they are tiny and nothing underflows when E is below the
    double range.
    """
    if not h > 0 or M < 0 or k < 0 or n < 1 or not epsilon > 0:
        raise ValueError(f"invalid localization parameters (h={h}, M={M}, k={k}, eps={epsilon}, n={n})")
    from .special import log_incomplete_gamma  # imported on first use, like spheremin's ndtri
    a = M + k + n
    log_hi = log_incomplete_gamma(a, (1.0 + epsilon) / h, upper=True)
    log_lo = log_incomplete_gamma(a, max(0.0, (1.0 - epsilon) / h), upper=False)
    top = max(log_hi, log_lo)  # finite: the upper tail never vanishes
    log_tails = top + math.log1p(math.exp(min(log_hi, log_lo) - top))
    return 0.5 * (k * math.log(h) + log_tails - math.lgamma(M + n))


def exact_localization_E(h: float, M: int, k: int, epsilon: float, n: int) -> float:
    """Exact E_ε(h, M, k) = exp(log_localization_E); 0.0 where E is below the double range."""
    return math.exp(log_localization_E(h, M, k, epsilon, n))


def localization_bound_log(h: float, M: int, k: int, epsilon: float, n: int) -> float:
    """log of the packaged localization bound h^k (M+k+n)^(2n+k) ε^-2 exp(-M ε²/16)."""
    return (
        k * math.log(h)
        + (2 * n + k) * math.log(M + k + n)
        - 2.0 * math.log(epsilon)
        - M * epsilon * epsilon / 16.0
    )


def _window_failure(check_name: str, parameters: dict, params: RegimeParams, k: int) -> AuditReport:
    """The failed report, nan values, of a check whose sigma window fails at k."""
    notes = (
        f"window violated: sigma window fails at (h={params.h}, M={params.M}, k={k}): "
        f"sigma_k={params.sigma_at(k):.4f}, eps={params.epsilon}"
    )
    return AuditReport(check_name, parameters, math.nan, math.nan, math.nan, False, notes=notes)


def localization_report(params: RegimeParams, k: int) -> AuditReport:
    """Exact E against the packaged bound times LOCALIZATION_CALIBRATION; a failed nan report off the window."""
    h, M, n, eps = params.h, params.M, params.n, params.epsilon
    if not params.window_holds(k):
        return _window_failure("localization-E", {"h": h, "M": M, "k": k, "epsilon": eps, "n": n}, params, k)
    log_e = log_localization_E(h, M, k, eps, n)
    log_bound = localization_bound_log(h, M, k, eps, n)
    bound = math.exp(log_bound) if log_bound < 700 else math.inf
    log_ratio = log_e - log_bound
    ratio = math.exp(log_ratio) if log_ratio < 700 else math.inf
    passed = log_ratio <= math.log(LOCALIZATION_CALIBRATION)
    return AuditReport(
        "localization-E",
        {"h": h, "M": M, "k": k, "epsilon": eps, "n": n, "calibration": LOCALIZATION_CALIBRATION},
        math.exp(log_e),
        bound,
        ratio,
        passed,
        notes=f"sigma_k={params.sigma_at(k):.6f}",
    )


def mc_localization_check(
    n: int,
    M: int,
    k: int,
    h: float,
    epsilon: float,
    samples: int,
    seed: int = 20240,
) -> AuditReport:
    """Monte-Carlo Rayleigh quotient of the exterior operator against the closed form.

    Draws z from the Gaussian weight exp(-||z||²/h)/(πh)^n and estimates
    E[ 1_outside ||z||^(2k) |z^α|² ] / (h^M α!), which by the radial
    diagonalization equals E²(h, M, k) for every |α| = M; α splits M evenly.
    """
    if samples < 2:  # the standard error (ddof=1) needs two samples
        raise ValueError(f"samples must be at least 2, got {samples}")
    if n < 1 or M < 0:
        raise ValueError(f"invalid (n, M) = ({n}, {M})")
    base, rem = divmod(M, n)
    alpha = tuple(base + (1 if i < rem else 0) for i in range(n))
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(h / 2.0)
    z = rng.normal(0.0, sigma, (samples, n)) + 1j * rng.normal(0.0, sigma, (samples, n))
    normsq = np.sum(np.abs(z) ** 2, axis=1)
    outside = (normsq < 1.0 - epsilon) | (normsq > 1.0 + epsilon)
    mono = np.ones(samples)
    for i, ai in enumerate(alpha):
        if ai:
            mono = mono * np.abs(z[:, i]) ** (2 * ai)
    values = np.where(outside, normsq**k * mono, 0.0) / (h**M * mi.index_factorial(alpha))
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(samples))
    exact_sq = exact_localization_E(h, M, k, epsilon, n) ** 2
    diff = abs(est - exact_sq)
    passed = diff <= 3.0 * se + 1e-300
    return AuditReport(
        "localization-mc",
        {"n": n, "M": M, "k": k, "h": h, "epsilon": epsilon, "samples": samples, "alpha": list(alpha)},
        est,
        exact_sq,
        est / exact_sq if exact_sq > 0 else math.inf,
        passed,
        notes=f"|mc - exact| = {diff:.3e} vs 3 se = {3 * se:.3e}",
    )


# ---------------------------------------------------------------------------
# Sigma window
# ---------------------------------------------------------------------------

def check_sigma_window(params: RegimeParams) -> AuditReport:
    """Admissibility window plus the two explicit inequalities and containment.

    Checks the window at k = m (params.window_holds(m), with σ = σ_m), then directly
      1 - ε/2 >= (1-ε)/σ   and   1 + ε/2 <= (1+ε)/σ,
    which together give [1 ± ε/2] ⊂ (1/σ)[1 ± ε].
    """
    s, eps = params.sigma_at(params.m), params.epsilon
    admissible = params.window_holds(params.m)
    p12a = 1.0 - eps / 2.0 >= (1.0 - eps) / s
    p12b = 1.0 + eps / 2.0 <= (1.0 + eps) / s
    passed = admissible and p12a and p12b
    return AuditReport(
        "sigma-window",
        {"h": params.h, "N": params.N, "m": params.m, "n": params.n, "epsilon": eps, "sigma": s},
        s,
        1.5,
        s / 1.5,
        passed,
        notes=(
            f"admissible={admissible} p12a={p12a} p12b={p12b} "
            f"containment={'holds' if (p12a and p12b) else 'fails'}"
        ),
    )


# ---------------------------------------------------------------------------
# Basic inequality and the empirical threshold
# ---------------------------------------------------------------------------

def _basic_value(
    params: RegimeParams, lambda_value: float, big_lambda_value: float
) -> tuple[float, float, dict[int, float]]:
    """The right-hand side of the basic positivity inequality, with its interior term and E values.

    RHS = (1 - E(h, M, 0)) (λ (1-2ε)^m - Λ Σ_{j>=1} (n m² h)^j/j! (1+2ε)^(m-j))
          - Λ Σ_{j>=0} (n m² h)^j/j! E(h, M, m-j)
    using exact exterior-localization values, not the lemma bound.  The caller
    has checked params.window_holds(k) at every k = 0..m.  Returns
    (RHS, interior, {k: E(h, M, k)}); the interior term is the explicit lower
    bound for min q over the 2ε annulus.
    """
    n, m = params.n, params.m
    h, eps, M = params.h, params.epsilon, params.M
    e_by_k = {k: exact_localization_E(h, M, k, eps, n) for k in range(m + 1)}
    base = n * m * m * h
    interior = lambda_value * (1.0 - 2.0 * eps) ** m
    for j in range(1, m + 1):
        interior -= (
            big_lambda_value * base**j / math.factorial(j) * (1.0 + 2.0 * eps) ** (m - j)
        )
    leak = sum(base**j / math.factorial(j) * e_by_k[m - j] for j in range(m + 1))
    return (1.0 - e_by_k[0]) * interior - big_lambda_value * leak, interior, e_by_k


def basic_rhs(
    form: HermitianForm,
    params: RegimeParams,
    lambda_value: float,
    big_lambda_value: float,
) -> tuple[float, AuditReport]:
    """The right-hand side of the basic positivity inequality (see _basic_value) and an annulus report.

    The report samples q over the 2ε annulus and asserts the sampled minimum
    dominates the explicit lower bound for min q there.  Where the sigma window
    fails at some k = 0..m, the value is nan and the report a failed one naming
    the first such k.
    """
    n, m = form.n, form.m
    h, eps = params.h, params.epsilon
    if params.m != m or params.n != n:
        raise ValueError("params (m, n) do not match the form")
    parameters = {
        "h": h,
        "N": params.N,
        "m": m,
        "n": n,
        "epsilon": eps,
        "lambda": lambda_value,
        "big_lambda": big_lambda_value,
    }
    off_window = [k for k in range(m + 1) if not params.window_holds(k)]
    if off_window:
        return math.nan, _window_failure("basic-rhs", parameters, params, off_window[0])
    value, interior, e_by_k = _basic_value(params, lambda_value, big_lambda_value)

    # annulus floor: sampled min of q over 1-2ε <= ||z||² <= 1+2ε
    q = forms_mod.q_symbol(form, Fraction(h))
    dirs = unit_sphere_samples(n, ANNULUS_DIRECTIONS)
    radii = np.sqrt(np.linspace(max(0.0, 1.0 - 2.0 * eps), 1.0 + 2.0 * eps, 17))
    sampled = math.inf
    for r in radii:
        sampled = min(sampled, float(forms_mod.q_evaluate_batch(q, r * dirs).min()))
    eq6 = interior  # the same explicit lower bound expression
    annulus_ok = sampled >= eq6 - 1e-9 * (1.0 + abs(eq6))

    report = AuditReport(
        "basic-rhs",
        parameters,
        sampled,
        eq6,
        sampled / eq6 if eq6 != 0 else math.inf,
        annulus_ok,
        notes=f"rhs value {value:.6e} ({'positive' if value > 0 else 'non-positive'}); "
        f"E0={e_by_k[0]:.3e} Em={e_by_k[m]:.3e}",
    )
    return value, report


@dataclass(frozen=True)
class H0ScanResult:
    """empirical_h0's answer; grid_points counts the grid values of h examined, window failures included."""

    found: bool
    h0: Optional[float]
    implied_N: Optional[int]
    grid_points: int
    note: str = ""


def empirical_h0(
    form: HermitianForm,
    *,
    lambda_value: float,
    big_lambda_value: float,
) -> H0ScanResult:
    """Scan H_GRID downward for the largest h with positive basic RHS.

    N = ceil(1/h) by the semiclassical correspondence, ε = default_epsilon(h).  Only
    the inequality's right-hand side is evaluated (_basic_value); the annulus
    sample belongs to basic_rhs's report.  A grid point whose sigma window fails
    at some k = 0..m (params.window_holds) is counted and skipped.  A nonpositive
    sphere minimum short-circuits to found = False with no grid point examined.
    """
    if lambda_value <= 0:
        return H0ScanResult(False, None, None, 0, note="lambda <= 0: leading term cannot be positive")

    for grid_points, h in enumerate(H_GRID, 1):
        N = max(1, math.ceil(1.0 / h))
        params = RegimeParams(h=h, N=N, m=form.m, n=form.n, epsilon=default_epsilon(h))
        if not all(params.window_holds(k) for k in range(form.m + 1)):
            continue
        if _basic_value(params, lambda_value, big_lambda_value)[0] > 0:  # scanning downward: the largest grid h
            return H0ScanResult(True, h, N, grid_points)
    return H0ScanResult(False, None, None, len(H_GRID), note="no positive RHS on the grid")
