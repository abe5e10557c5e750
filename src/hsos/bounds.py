"""Published sufficient shift-degree bounds and their comparison report.

Four bounds are evaluated from the scalar invariants: the semiclassical bound
C (Λ/λ)(m+n)^3 log^3 n with its unspecified universal constant exposed as a
parameter, the Powers-Resnick diagonal bound, the To-Yeung bound, and the
Nie-Schweighofer bound (comparative only, at c = NS_C).  All logs are natural,
rounding is ceil (or "smallest integer strictly greater" where the source
inequality is strict), and results are floored at 0.  A constant C or c <= 0
is refused with a ValueError.  The smallest sufficient C is the first step
k / C_RESOLUTION <= C_MAX at which the semiclassical bound reaches the
empirical minimal shift; it is unknown where the scan found none or no step
reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import forms as forms_mod
from . import multiplier as mult
from . import spheremin
from .exact import as_fraction
from .forms import HermitianForm


C_RESOLUTION, C_MAX = 64, 8  # smallest sufficient C is searched on k / C_RESOLUTION <= C_MAX
NS_C = 1.0


class NonPositiveLambda(ValueError):
    pass


class NotDiagonal(ValueError):
    pass


def _smallest_int_greater(x: float) -> int:
    return math.floor(x) + 1


def certified_N(form: HermitianForm, C, lambda_value: float, big_lambda_value: float) -> int:
    """ceil( C * (Λ/λ) * (m+n)^3 * ln(n)^3 ), the semiclassical sufficient bound; C > 0."""
    if form.n < 2:
        raise ValueError("bound requires n >= 2 (log n > 0)")
    if lambda_value <= 0:
        raise NonPositiveLambda(f"lambda = {lambda_value} must be positive")
    if not C > 0:
        raise ValueError(f"universal constant C must be positive, got {C}")
    C = float(C)
    value = C * (big_lambda_value / lambda_value) * (form.m + form.n) ** 3 * math.log(form.n) ** 3
    return max(0, math.ceil(value))


def powers_resnick_N(form: HermitianForm, lambda_value: float) -> int:
    """Smallest N > (m(m-1)/2) (diag_max/λ) - m; diagonal forms only."""
    if not forms_mod.is_diagonal(form):
        raise NotDiagonal("Powers-Resnick bound applies to diagonal forms only")
    if lambda_value <= 0:
        raise NonPositiveLambda(f"lambda = {lambda_value} must be positive")
    lt = float(forms_mod.lambda_tilde(form))
    rhs = (form.m * (form.m - 1) / 2.0) * (lt / lambda_value) - form.m
    return max(0, _smallest_int_greater(rhs))


def to_yeung_N(form: HermitianForm, lambda_value: float, sharp_value: float) -> int:
    """ceil( n m (2m-1) Λ#/(ln 2 · λ) - n - m ), floored at 0."""
    if lambda_value <= 0:
        raise NonPositiveLambda(f"lambda = {lambda_value} must be positive")
    n, m = form.n, form.m
    rhs = n * m * (2 * m - 1) * sharp_value / (math.log(2.0) * lambda_value) - n - m
    return max(0, math.ceil(rhs))


def nie_schweighofer_N(form: HermitianForm, c: float, lambda_value: float) -> Optional[int]:
    """Smallest N > c * exp(m^2 n^m (diag_max/λ))^c, None on double overflow; c > 0."""
    if not c > 0:
        raise ValueError(f"constant c must be positive, got {c}")
    if lambda_value <= 0:
        raise NonPositiveLambda(f"lambda = {lambda_value} must be positive")
    lt = float(forms_mod.lambda_tilde(form))
    exponent = c * (form.m**2) * (form.n**form.m) * (lt / lambda_value)
    if exponent > 700.0:
        return None  # overflow flag
    return max(0, _smallest_int_greater(c * math.exp(exponent)))


@dataclass
class BoundReport:
    diagonal: bool
    lambda_value: float
    big_lambda: float
    lambda_tilde: float
    lambda_sharp: float
    universal_C_used: Fraction
    certified_N: Optional[int] = None
    powers_resnick_N: Optional[int] = None
    to_yeung_N: Optional[int] = None
    nie_schweighofer_N: Optional[int] = None
    nie_schweighofer_overflow: bool = False
    empirical_minimal_N: Optional[int] = None
    smallest_sufficient_C: Optional[Fraction] = None
    notes: dict[str, str] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)


def bound_report(
    form: HermitianForm,
    C=Fraction(1),
    n_max: int = 10,
    size_cap: int = mult.DEFAULT_SIZE_CAP,
) -> BoundReport:
    """Compute all invariants and bounds, run the empirical scan, and record checks (the form was checked when built)."""
    C = as_fraction(C)
    if C <= 0:
        raise ValueError(f"universal constant C must be positive, got {C}")
    if n_max < 0:  # minimal_sos_N checks it too, but only after the sphere pass
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    lam, sharp = spheremin.sphere_range(form)
    big = forms_mod.big_lambda(form)
    lt = float(forms_mod.lambda_tilde(form))
    diagonal = forms_mod.is_diagonal(form)

    report = BoundReport(
        diagonal=diagonal,
        lambda_value=lam.value,
        big_lambda=big,
        lambda_tilde=lt,
        lambda_sharp=sharp.value,
        universal_C_used=C,
    )

    try:
        report.empirical_minimal_N = mult.minimal_sos_N(form, n_max, size_cap=size_cap)
        if report.empirical_minimal_N is None:
            report.notes["empirical_minimal_N"] = f"no PSD shift found up to N = {n_max}"
    except mult.SizeCapExceeded as exc:
        report.notes["empirical_minimal_N"] = str(exc)

    for name, fn in [
        ("certified_N", lambda: certified_N(form, C, lam.value, big)),
        ("powers_resnick_N", lambda: powers_resnick_N(form, lam.value)),
        ("to_yeung_N", lambda: to_yeung_N(form, lam.value, sharp.value)),
        ("nie_schweighofer_N", lambda: nie_schweighofer_N(form, NS_C, lam.value)),
    ]:
        try:
            setattr(report, name, fn())
        except ValueError as exc:  # NonPositiveLambda and NotDiagonal among them
            report.notes[name] = str(exc)
    if report.nie_schweighofer_N is None and "nie_schweighofer_N" not in report.notes:
        report.nie_schweighofer_overflow = True
        report.notes["nie_schweighofer_N"] = "double-precision overflow"

    if lam.value > 0:
        report.checks["lambda_le_sharp"] = lam.value <= sharp.value * (1 + 1e-9) + 1e-12
        report.checks["sharp_le_big_lambda"] = sharp.value <= big * (1 + 1e-9) + 1e-12
    emp = report.empirical_minimal_N
    for name in ("powers_resnick_N", "to_yeung_N", "certified_N"):  # `hsos bounds` lists failures in this order
        if emp is not None and getattr(report, name) is not None:
            report.checks["empirical_le_" + name.removesuffix("_N")] = emp <= getattr(report, name)

    if lam.value > 0 and emp is None:
        report.notes["smallest_sufficient_C"] = f"no empirical minimal N up to N = {n_max}"
    elif lam.value > 0:
        # certified_N is monotone in C, so the first sufficient step of the grid is the smallest
        grid = (Fraction(k, C_RESOLUTION) for k in range(1, C_RESOLUTION * C_MAX + 1))
        try:
            report.smallest_sufficient_C = next((c for c in grid if certified_N(form, c, lam.value, big) >= emp), None)
        except ValueError as exc:  # n < 2
            report.notes["smallest_sufficient_C"] = str(exc)
        else:
            if report.smallest_sufficient_C is None:
                report.notes["smallest_sufficient_C"] = f"no C up to {C_MAX} on the 1/{C_RESOLUTION} grid"

    return report
