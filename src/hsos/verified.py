"""Floating-point tests whose outcome is a proof about an exact hermitian matrix.

A hermitian matrix H = Re + i Im is PD exactly when its real embedding
[[Re, -Im], [Im, Re]] is.  `scaled_hermitian` rounds the upper triangle that a
`MultiplierMatrix` stores into a complex H once; `cholesky_proves_pd` turns a
floating Cholesky of H's embedding into a proof of positive definiteness.  A
witness of indefiniteness needs no bound: `lowest_eigenvector` takes H's
lowest eigenvalue and finds a vector for it by inverse iteration, and the
caller checks that vector exactly.
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
    vals = np.array([complex(a / scale, b / scale) for a, b in zip(re, im)])
    H = np.zeros((d, d), dtype=complex)
    H[p, q] = vals
    H[q, p] = np.conj(vals) + 0.0  # + 0.0: a zero imaginary part stays +0.0 below the diagonal, not conj()'s -0.0
    return H


_PHI = (math.sqrt(5) - 1) / 2  # the start exp(2 pi i phi k^2) of the inverse iteration
_STEP = 2.0**-40  # the shift's distance below the lowest eigenvalue, relative to ||H||_2


def lowest_eigenvector(H: np.ndarray) -> np.ndarray:
    """A vector whose Rayleigh quotient is H's lowest eigenvalue, up to rounding, for hermitian H != 0.

    w = eigvalsh(H); two solves with H - sigma I, sigma = w_1 - 2^-40 ||H||_2
    (||H||_2 = max(-w_1, w_d)), from x_k = exp(2 pi i phi k^2), phi =
    0.618..., the result scaled to a largest part of 1 (inverse iteration;
    Ipsen, Computing an eigenvector with inverse iteration, SIAM Rev. 39,
    1997).  Each solve shrinks the part of x along an eigenvalue mu > w_1
    against w_1's by (w_1 - sigma)/(mu - sigma) and grows x by about
    2^40/||H||_2 at most, so the two need no scaling between them.  The start
    has no symmetry, since a symmetric one can miss the eigenvector: the
    all-ones vector is orthogonal to the lowest eigenvector of [[1, 3], [3,
    1]].  Raises LinAlgError when a solve meets an exactly singular matrix.
    """
    d = H.shape[0]
    w = np.linalg.eigvalsh(H)
    A = H.copy()
    A.flat[:: d + 1] -= w[0] - _STEP * max(-w[0], w[-1])
    k = np.arange(d)
    x = np.linalg.solve(A, np.linalg.solve(A, np.exp(2j * np.pi * (_PHI * k * k % 1.0))))
    return x / np.abs(x).max()


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
    d = H.shape[0]
    k = 2 * d
    S = np.empty((k, k))
    S[:d, :d] = S[d:, d:] = H.real
    S[d:, :d] = H.imag
    S[:d, d:] = -H.imag
    gamma = (k + 1) * U / (1 - (k + 1) * U)
    diag = np.diag(S)
    top = float(diag.max())
    c = 2 * (gamma / (1 - gamma) * math.fsum(diag) + 4 * k * (2 * (k + 2) + top) * ETA
             + U * float(np.linalg.norm(S)) + k * ETA + U * top)
    try:
        S.flat[:: k + 1] -= c
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True
