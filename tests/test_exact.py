from fractions import Fraction

import pytest

from hsos.exact import QC_ONE, QC_ZERO, qc


def test_arithmetic():
    a = qc(Fraction(1, 2), Fraction(-1, 3))
    b = qc(2, 5)
    assert a + b == qc(Fraction(5, 2), Fraction(14, 3))
    assert a - b == qc(Fraction(-3, 2), Fraction(-16, 3))
    assert a * QC_ONE == a
    assert (a * b).re == Fraction(1, 2) * 2 - Fraction(-1, 3) * 5
    assert -a == qc(Fraction(-1, 2), Fraction(1, 3))


def test_conj_and_abs2():
    a = qc(3, -4)
    assert a.conj() == qc(3, 4)
    assert a.abs2() == 25
    assert (a * a.conj()).re == a.abs2()
    assert (a * a.conj()).im == 0


def test_scalar_mixing_and_complex():
    a = qc(1, 1)
    assert 2 * a == qc(2, 2)
    assert Fraction(1, 2) * a == qc(Fraction(1, 2), Fraction(1, 2))
    assert complex(a) == 1 + 1j
    assert bool(QC_ZERO) is False and bool(a) is True


def test_rejects_inexact():
    with pytest.raises(TypeError):
        qc(0.5)


def test_rejects_strings():
    # rationals are read from text only by formats, whose grammar refuses "1_000" and non-ASCII digits
    for text in ("1/2", "1_000", "\u0661/\u0662"):
        with pytest.raises(TypeError):
            qc(text)
        with pytest.raises(TypeError):
            qc(0, text)
