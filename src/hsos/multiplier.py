"""Multiplier matrices of shifted forms, exact PSD decisions, SOS certificates.

The coefficient matrix of ||z||^(2N) f(z, z̄) over the degree-(m+N) monomial
basis is hermitian; the shifted form is a sum of squares of holomorphic
polynomials exactly when that matrix is positive semidefinite.  One exact
kernel, a pivoted LDL* factorization of each connected block of the sparsity
pattern, computed fraction-free on the matrix scaled to Gaussian integers,
decides PSD, raises NotPsdError with an exactly checked witness, and yields
certificates sum_j w_j |Q_j(z)|^2 with rational weights w_j > 0.  Verification
rejects any weight <= 0, re-expands the squares exactly in Gaussian integers
over one common denominator and compares every entry of the multiplier matrix
by cross-multiplication.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

import numpy as np

from . import forms as forms_mod
from . import multiindex as mi
from .exact import QC, QC_ONE, QC_ZERO, qc
from .forms import HermitianForm


class SizeCapExceeded(RuntimeError):
    def __init__(self, dimension: int, cap: int):
        self.dimension = dimension
        self.cap = cap
        super().__init__(f"matrix dimension {dimension} exceeds size cap {cap}")


class NotPsdError(RuntimeError):
    def __init__(self, message: str, witness=None, witness_value=None):
        self.witness = witness  # exact mode: v with <Mv, v> = witness_value < 0
        self.witness_value = witness_value
        super().__init__(message)


class NumericalIndeterminate(RuntimeError):
    def __init__(self, min_eigenvalue: float, band: float):
        self.min_eigenvalue = min_eigenvalue
        self.band = band
        super().__init__(
            f"smallest eigenvalue {min_eigenvalue:.3e} lies inside the tolerance band "
            f"+-{band:.3e}; escalate to exact mode"
        )


class VerificationFailed(RuntimeError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"certificate re-expansion mismatch, residual {residual}")


DEFAULT_SIZE_CAP = 20_000


@dataclass(frozen=True)
class MultiplierMatrix:
    """Hermitian coefficient matrix of ||z||^(2N) f over the degree-(m+N) basis."""

    n: int
    m: int
    N: int
    basis: tuple[mi.MultiIndex, ...]
    entries: dict[tuple[int, int], QC]  # both orientations stored

    @property
    def dim(self) -> int:
        return len(self.basis)

    def entry(self, i: int, j: int) -> QC:
        return self.entries.get((i, j), QC_ZERO)

    def is_hermitian(self) -> bool:
        for (i, j), c in self.entries.items():
            if self.entries.get((j, i), QC_ZERO) != c.conj():
                return False
        return True

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.entries)

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.entries.values()), default=0.0)

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.dim, self.dim), dtype=complex)
        for (i, j), c in self.entries.items():
            A[i, j] = complex(c)
        return A


def multiplier_matrix(form: HermitianForm, N: int, size_cap: int = DEFAULT_SIZE_CAP) -> MultiplierMatrix:
    """Exact entries of ||z||^(2N) f over degree m+N, assembled sparsely.

    Entry (rho, gamma) = sum over splits rho = a + mu, gamma = b + mu with
    |mu| = N of (N!/mu!) c_ab; the outer loop runs over the nonzero c_ab and
    the N-degree shifts mu, never over all (rho, gamma) pairs.
    """
    if N < 0:
        raise ValueError("shift degree N must be non-negative")
    dim = mi.dim_homogeneous(form.n, form.m + N)
    if dim > size_cap:
        raise SizeCapExceeded(dim, size_cap)
    basis = tuple(mi.iter_degree(form.n, form.m + N))
    position = {alpha: i for i, alpha in enumerate(basis)}
    entries: dict[tuple[int, int], QC] = {}
    nfact = mi.factorial(N)
    for mu in mi.iter_degree(form.n, N):
        w = Fraction(nfact, mi.index_factorial(mu))
        for (alpha, beta), c in form.coeffs.items():
            key = (position[mi.add(alpha, mu)], position[mi.add(beta, mu)])
            s = entries.get(key, QC_ZERO) + c * w
            if s.is_zero:
                entries.pop(key, None)
            else:
                entries[key] = s
    return MultiplierMatrix(form.n, form.m, N, basis, entries)


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    mode: str
    witness: Optional[tuple[QC, ...]] = None       # exact mode, <Mv, v> < 0
    witness_value: Optional[Fraction] = None
    pivots: Optional[tuple[Fraction, ...]] = None  # positive pivots, exact mode
    rank: Optional[int] = None
    min_eigenvalue: Optional[float] = None         # floating mode


def _witness_quadratic_value(matrix: MultiplierMatrix, v: dict[int, QC]) -> Fraction:
    total = QC_ZERO
    for (i, j), c in matrix.entries.items():
        if i in v and j in v:
            total = total + v[i].conj() * c * v[j]
    if total.im != 0:
        raise ValueError("witness quadratic value not real; matrix not hermitian")
    return total.re


def _lift_through_columns(processed, v: dict[int, QC]) -> dict[int, QC]:
    """Extend v so that (L* v) vanishes on all processed pivot rows."""
    for k, col in reversed(processed):
        s = QC_ZERO
        for i, l in col.items():
            if i in v:
                s = s + l.conj() * v[i]
        if not s.is_zero:
            v[k] = -s
    return v


def _components(rows: dict[int, dict]) -> list[set[int]]:
    """Connected components of the sparsity pattern; rows holds the off-diagonal entries."""
    seen: set[int] = set()
    components = []
    for start in rows:
        if start in seen:
            continue
        seen.add(start)
        block = [start]
        for i in block:  # grows while it is walked: breadth-first search
            for j in rows[i]:
                if j not in seen:
                    seen.add(j)
                    block.append(j)
        components.append(set(block))
    return components


def _ldlt(matrix: MultiplierMatrix):
    """Pivoted fraction-free LDL* of a hermitian matrix, the one exact PSD kernel.

    D, the lcm of the entry denominators, scales the matrix to Gaussian
    integers A (pairs of ints).  Pivot a = A[k][k] updates its block as
    A[i][j] = (a A[i][j] - A[i][k] A[k][j]) // b, b the block's previous pivot
    (1 at first), a division Sylvester's identity makes exact (Bareiss 1968):
    no gcd per entry.  The Schur complement is A / (b D), so d = a / (b D) and
    l_i = conj(A[k][i]) / a.  The pivot is the largest |diagonal| of the Schur
    complement left, ties by index; it updates only its connected block of the
    sparsity pattern, so a heap over each block's candidate keeps that order.

    Returns (processed, pivots) where processed is a list of (pivot_index,
    column dict) in elimination order.  A matrix that is not PSD raises
    NotPsdError with a witness v whose value <Mv, v> < 0 is checked exactly.
    """
    D = math.lcm(*(x.denominator for c in matrix.entries.values() for x in (c.re, c.im)))
    diag: dict[int, int] = {i: 0 for i in range(matrix.dim)}
    rows: dict[int, dict[int, tuple[int, int]]] = {i: {} for i in range(matrix.dim)}
    for (i, j), c in matrix.entries.items():
        re, im = c.re.numerator * (D // c.re.denominator), c.im.numerator * (D // c.im.denominator)
        if i == j:
            if im:
                raise ValueError(f"diagonal entry {i} not real; matrix not hermitian")
            diag[i] = re
        else:
            rows[i][j] = (re, im)

    blocks = _components(rows)
    prev = [1] * len(blocks)  # each block's last pivot b; its Schur complement is A / (b D)

    def candidate(b: int):
        k = min(blocks[b], key=lambda i: (-abs(diag[i]), i))
        return -Fraction(abs(diag[k]), prev[b]), k, b

    heap = [candidate(b) for b in range(len(blocks))]
    heapq.heapify(heap)
    processed: list[tuple[int, dict[int, QC]]] = []
    pivots: list[Fraction] = []
    witness: Optional[dict[int, QC]] = None

    while heap:
        _, k, b = heapq.heappop(heap)
        a, pb = diag[k], prev[b]
        if a < 0:
            witness = {k: QC_ONE}
            break
        if a == 0:
            # every remaining diagonal vanishes, so any nonzero entry c = S[i][j]
            # of the remainder S gives u = -c e_i + e_j with <Su, u> = -2|c|^2
            scale = {i: prev[bb] * D for bb, block in enumerate(blocks) for i in block}
            witness = next(({i: QC(Fraction(-re, scale[i]), Fraction(-im, scale[i])), j: QC_ONE}
                            for i in sorted(scale) for j, (re, im) in rows[i].items()), None)
            break
        active = blocks[b]
        active.remove(k)
        del diag[k]
        # A[k][i] in row k's order, which fixes where fill-in lands in each row
        # and so which entry the zero-pivot witness takes
        kcol = {i: c for i, c in rows.pop(k).items() if i in active}
        for i in active:  # entries outside the rank-one update only rescale by a / pb
            rowi, inside = rows[i], i in kcol
            if inside:
                del rowi[k]
            else:
                diag[i] = diag[i] * a // pb
            for j, (re, im) in rowi.items():
                if not (inside and j in kcol):
                    rowi[j] = (re * a // pb, im * a // pb)
        order = list(kcol)
        for p, i in enumerate(order):
            (kr, ki), rowi = kcol[i], rows[i]
            diag[i] = (a * diag[i] - kr * kr - ki * ki) // pb
            for j in order[p + 1:]:  # upper triangle; the lower one is its conjugate
                (xr, xi), (old_re, old_im) = kcol[j], rowi.get(j, (0, 0))
                re = (a * old_re - kr * xr - ki * xi) // pb  # conj(A[k][i]) A[k][j]
                im = (a * old_im - kr * xi + ki * xr) // pb
                if re or im:
                    rowi[j], rows[j][i] = (re, im), (re, -im)
                else:
                    del rowi[j], rows[j][i]
        processed.append((k, {i: QC(Fraction(re, a), Fraction(-im, a)) for i, (re, im) in kcol.items()}))
        pivots.append(Fraction(a, pb * D))
        prev[b] = a
        if active:
            heapq.heappush(heap, candidate(b))

    if witness is not None:
        v = _lift_through_columns(processed, witness)
        value = _witness_quadratic_value(matrix, v)
        if value >= 0:
            raise AssertionError("internal error: PSD witness failed exact verification")
        raise NotPsdError(
            f"multiplier matrix at N={matrix.N} is not PSD; witness value {value}",
            tuple(v.get(i, QC_ZERO) for i in range(matrix.dim)),
            value,
        )
    return processed, pivots


def is_psd(
    matrix: MultiplierMatrix,
    mode: Literal["exact", "float"] = "exact",
    tol: float = 1e-9,
) -> PsdVerdict:
    """Decide positive semidefiniteness.

    Exact mode: pivoted fraction-free LDL*; PSD iff all pivots are positive
    and the zero-pivot tail vanishes identically.  Semidefinite counts as
    success.
    Floating mode: smallest eigenvalue of the hermitian matrix; verdicts inside
    the band |eig| < tol * ||M||_F raise NumericalIndeterminate.
    """
    if mode == "exact":
        try:
            _, pivots = _ldlt(matrix)
        except NotPsdError as exc:
            return PsdVerdict(False, "exact", witness=exc.witness, witness_value=exc.witness_value)
        return PsdVerdict(True, "exact", pivots=tuple(pivots), rank=len(pivots))

    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    A = matrix.to_dense()
    fro = float(np.linalg.norm(A))
    eigvals, eigvecs = np.linalg.eigh(A)
    lam_min = float(eigvals[0])
    band = tol * fro
    if abs(lam_min) < band:
        raise NumericalIndeterminate(lam_min, band)
    if lam_min >= -band:
        return PsdVerdict(True, "float", min_eigenvalue=lam_min)
    vec = eigvecs[:, 0]
    wit = tuple(qc(Fraction(float(x.real)), Fraction(float(x.imag))) for x in vec)
    return PsdVerdict(False, "float", witness=wit, min_eigenvalue=lam_min)


@dataclass(frozen=True)
class SosSquare:
    weight: object  # Fraction (exact mode) or float (floating mode), > 0
    coefficients: dict[mi.MultiIndex, object]  # monomial -> QC or complex


@dataclass(frozen=True)
class SosCertificate:
    """Weighted squares sum_j w_j |Q_j(z)|^2 representing ||z||^(2N) f."""

    n: int
    m: int
    N: int
    mode: str  # "exact" | "float"
    squares: tuple[SosSquare, ...]
    verified: str = "unverified"  # "exact-pass" | "float-pass" | "fail"
    residual: Optional[float] = None

    def num_squares(self) -> int:
        return len(self.squares)


def _positivity_probe(form: HermitianForm) -> float:
    from . import spheremin

    return float(forms_mod.evaluate_batch(form, spheremin._starting_points(form.n, 32)).min())


def minimal_sos_N(
    form: HermitianForm,
    n_max: int,
    size_cap: int = DEFAULT_SIZE_CAP,
    warn_nonpositive: bool = True,
) -> Optional[int]:
    """Smallest N <= n_max whose multiplier matrix is PSD (exact), else None.

    Linear scan from 0; by monotonicity of the PSD property in N the first
    success is the minimum.
    """
    if warn_nonpositive and not form.is_zero and _positivity_probe(form) <= 0:
        warnings.warn(
            "form appears to be <= 0 somewhere on the sphere; the scan may not terminate early",
            UserWarning,
            stacklevel=2,
        )
    for N in range(n_max + 1):
        if is_psd(multiplier_matrix(form, N, size_cap=size_cap)).is_psd:
            return N
    return None


def sos_decompose(
    form: HermitianForm,
    N: int,
    mode: Literal["exact", "float"] = "exact",
    size_cap: int = DEFAULT_SIZE_CAP,
    tol: float = 1e-9,
) -> SosCertificate:
    """Factor the multiplier matrix into weighted squares and verify the result.

    Exact mode keeps rational weights w_j > 0: absorbing sqrt(w_j) into the
    polynomials would give unit-weight squares but leave the rationals.
    Floating mode uses an eigendecomposition with eigenvalues below tolerance
    clipped to zero.
    """
    matrix = multiplier_matrix(form, N, size_cap=size_cap)
    basis = matrix.basis

    if mode == "exact":
        processed, pivots = _ldlt(matrix)
        squares = []
        for (k, col), d in zip(processed, pivots):
            coeffs: dict[mi.MultiIndex, QC] = {basis[k]: QC_ONE}
            for i, l in col.items():
                coeffs[basis[i]] = l
            squares.append(SosSquare(d, coeffs))
        cert = SosCertificate(form.n, form.m, N, "exact", tuple(squares))
    elif mode == "float":
        A = matrix.to_dense()
        scale = max(matrix.max_abs(), 1e-300)
        eigvals, eigvecs = np.linalg.eigh(A)
        if eigvals[0] < -tol * scale * matrix.dim:
            raise NotPsdError(
                f"multiplier matrix at N={N} has eigenvalue {eigvals[0]:.3e} < 0"
            )
        squares = []
        for lam, vec in zip(eigvals, eigvecs.T):
            if lam <= tol * scale:
                continue
            coeffs = {basis[i]: complex(vec[i]) for i in range(matrix.dim) if abs(vec[i]) > 1e-300}
            squares.append(SosSquare(float(lam), coeffs))
        cert = SosCertificate(form.n, form.m, N, "float", tuple(squares))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    status, residual = _verify_against(matrix, cert, float_tol=1e-8)
    if status == "fail":
        raise VerificationFailed(residual)
    return SosCertificate(form.n, form.m, N, cert.mode, cert.squares, status, residual)


def _gaussian_expansion(cert: SosCertificate) -> tuple[dict[tuple[int, int], tuple[int, int]], int]:
    """Upper triangle (i <= j) of an exact certificate's expansion as Gaussian integers (re, im) over L.

    Square j, scaled by den (the lcm of its coefficient denominators) to Gaussian integers g, keeps
    s_j = w_j / den^2; L = lcm_j den(s_j), and square j adds g_i conj(g_k) num(s_j) L / den(s_j).
    """
    position = {alpha: i for i, alpha in enumerate(mi.iter_degree(cert.n, cert.m + cert.N))}
    scaled = []
    for sq in cert.squares:
        den = math.lcm(*(x.denominator for c in sq.coefficients.values() for x in (c.re, c.im)))
        g = sorted((position[a], c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
                   for a, c in sq.coefficients.items())
        scaled.append((Fraction(sq.weight) / (den * den), g))
    L = math.lcm(*(s.denominator for s, _ in scaled))
    upper: dict[tuple[int, int], tuple[int, int]] = {}
    for s, g in scaled:
        f = s.numerator * (L // s.denominator)
        for p, (i, ar, ai) in enumerate(g):  # sorted by position, so i <= j below
            for j, br, bi in g[p:]:  # small products first, then the scale f
                re, im = upper.get((i, j), (0, 0))
                upper[(i, j)] = (re + (ar * br + ai * bi) * f, im + (ai * br - ar * bi) * f)
    return upper, L


def expand_squares(cert: SosCertificate) -> dict[tuple[int, int], object]:
    """Coefficient matrix of sum_j w_j Q_j(z) conj(Q_j(z)) over the ranked basis, both orientations."""
    if cert.mode == "exact":  # QC entries, zeros left out
        upper, L = _gaussian_expansion(cert)
        half = {(i, j): QC(Fraction(re, L), Fraction(im, L)) for (i, j), (re, im) in upper.items() if re or im}
        return {**half, **{(j, i): c.conj() for (i, j), c in half.items()}}
    out: dict[tuple[int, int], complex] = {}
    position = {alpha: i for i, alpha in enumerate(mi.iter_degree(cert.n, cert.m + cert.N))}
    for sq in cert.squares:
        ranked = [(position[a], c) for a, c in sq.coefficients.items()]
        for i, ci in ranked:
            for j, cj in ranked:
                term = sq.weight * ci * np.conj(cj)
                out[(i, j)] = out.get((i, j), 0j) + term
    return out


def verify_certificate(
    form: HermitianForm,
    cert: SosCertificate,
    size_cap: int = DEFAULT_SIZE_CAP,
    float_tol: float = 1e-8,
) -> tuple[str, Optional[float]]:
    """Independent re-expansion check of a certificate against the multiplier matrix.

    Every weight must be positive.  Exact certificates must reproduce every entry exactly, compared
    over the expansion's common denominator without building a Fraction; floating ones pass when the
    max-abs residual is below float_tol * ||c^N||_max.
    """
    return _verify_against(multiplier_matrix(form, cert.N, size_cap=size_cap), cert, float_tol)


def _verify_against(matrix: MultiplierMatrix, cert: SosCertificate, float_tol: float) -> tuple[str, Optional[float]]:
    if any(not sq.weight > 0 for sq in cert.squares):
        return "fail", None
    if cert.mode == "exact":
        upper, L = _gaussian_expansion(cert)
        for (i, j), c in matrix.entries.items():  # (re + i im) / L == c, conjugated below the diagonal
            re, im = upper.get((min(i, j), max(i, j)), (0, 0))
            sign = 1 if i <= j else -1
            if re * c.re.denominator != c.re.numerator * L or sign * im * c.im.denominator != c.im.numerator * L:
                return "fail", None
        if any((re or im) and ((i, j) not in matrix.entries or (j, i) not in matrix.entries)
               for (i, j), (re, im) in upper.items()):
            return "fail", None
        return "exact-pass", 0.0
    expanded = expand_squares(cert)
    residual = 0.0
    keys = set(expanded) | set(matrix.entries)
    for key in keys:
        got = complex(expanded.get(key, 0j))
        want = complex(matrix.entries.get(key, QC_ZERO))
        residual = max(residual, abs(got - want))
    scale = max(matrix.max_abs(), 1e-300)
    return ("float-pass", residual) if residual <= float_tol * scale else ("fail", residual)
