"""Exact complex-rational scalars used for all coefficient-level arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def as_fraction(x) -> Fraction:
    """x as a Fraction; x must be an int or another exact rational (a str is a TypeError)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True, slots=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|self|^2, exact."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other) -> "QC":
        other = qc(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "QC":
        other = qc(other)
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "QC":
        other = qc(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def qc(re, im=0) -> QC:
    """Coerce ints/Fractions/(re, im) pairs into a QC."""
    if isinstance(re, QC):
        if im:
            raise TypeError("cannot combine a QC with an extra imaginary part")
        return re
    return QC(as_fraction(re), as_fraction(im))


QC_ZERO = QC(Fraction(0), Fraction(0))
QC_ONE = QC(Fraction(1), Fraction(0))
