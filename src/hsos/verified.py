"""Floating-point tests whose outcome is a proof about an exact hermitian matrix.

A hermitian matrix H = Re + i Im is PD exactly when its real embedding
[[Re, -Im], [Im, Re]] is.  `scaled_hermitian` rounds the upper triangle that a
`MultiplierMatrix` stores into a complex H once; `cholesky_proves_pd` turns a
floating Cholesky of H's embedding into a proof of positive definiteness.  A
witness of indefiniteness needs no bound: the caller checks it exactly.
"""

from __future__ import annotations

import math

import numpy as np

U = 2.0**-53  # unit roundoff of IEEE double
ETA = 2.0**-1074  # smallest positive subnormal double


def scaled_hermitian(d: int, numerators: dict[tuple[int, int], tuple[int, int]]) -> np.ndarray:
    """The d x d hermitian matrix with upper triangle {(p, q): (re, im)}, divided by its largest part.

    The integers are stored as in a `MultiplierMatrix`, each off-diagonal pair
    once.  Each part is one correctly rounded int / int division into [-1, 1],
    so none overflows or is non-finite, whatever their size.
    """
    (p, q), (re, im) = zip(*numerators), zip(*numerators.values())
    scale = max(max(map(abs, re)), max(map(abs, im)))
    H = np.zeros((d, d), dtype=complex)
    H[q, p] = [complex(a / scale, -b / scale) for a, b in zip(re, im)]  # an int negated: +0.0, not conj()'s -0.0
    H[p, q] = [complex(a / scale, b / scale) for a, b in zip(re, im)]
    return H


def cholesky_proves_pd(H: np.ndarray) -> bool:
    """True only if the exact hermitian matrix that H rounds is positive definite (Rump 2006).

    The proof runs on H's real embedding S = [[Re, -Im], [Im, Re]], of order
    k, which holds the correctly rounded entries of the exact embedding A with
    |A_ij| <= 1 and A_ii >= 0.  If the floating Cholesky of X = fl(S - cI) runs
    to completion, Rump's bound (Verification of positive definiteness, BIT 46,
    2006) gives
    lambda_min(X) > -(gamma_{k+1}/(1 - gamma_{k+1}) tr(S) + 4k(2(k+2) + max S_ii) eta),
    gamma_j = j u/(1 - j u), u = 2^-53, eta = 2^-1074 (tr X <= tr S and
    max X_ii <= max S_ii for c >= 0).  Rounding the exact entries moves the
    spectrum by at most ||A - S||_2 <= u ||S||_F + k eta (a subnormal entry is
    off by eta/2), and forming X by at most u max S_ii + u c.  So A is PD when
    c = 2 (gamma_{k+1}/(1 - gamma_{k+1}) tr(S) + 4k(2(k+2) + max S_ii) eta + u ||S||_F + k eta + u max S_ii),
    the factor 2 covering both u c and the few roundings made in evaluating c.
    """
    S = np.block([[H.real, -H.imag], [H.imag, H.real]])
    k = S.shape[0]
    gamma = (k + 1) * U / (1 - (k + 1) * U)
    diag = np.diag(S)
    top = float(diag.max())
    c = 2 * (gamma / (1 - gamma) * math.fsum(diag) + 4 * k * (2 * (k + 2) + top) * ETA
             + U * float(np.linalg.norm(S)) + k * ETA + U * top)
    try:
        np.linalg.cholesky(S - c * np.eye(k))
    except np.linalg.LinAlgError:
        return False
    return True
