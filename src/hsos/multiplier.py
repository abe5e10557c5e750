"""Multiplier matrices of shifted forms, exact PSD decisions, SOS certificates.

The coefficient matrix of ||z||^(2N) f(z, z̄) over the degree-(m+N) monomial
basis is hermitian; the shifted form is a sum of squares of holomorphic
polynomials exactly when that matrix is positive semidefinite.  One exact
kernel, a pivoted rational LDL* factorization of each connected block of the
sparsity pattern, decides PSD, raises NotPsdError with an exactly checked
witness, and yields certificates sum_j w_j |Q_j(z)|^2 with rational weights
w_j > 0, which are then re-expanded and compared entrywise against the
multiplier matrix.
"""

from __future__ import annotations

import heapq
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


def _components(rows: dict[int, dict[int, QC]]) -> list[set[int]]:
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
    """Pivoted rational LDL* of a hermitian matrix, the one exact PSD kernel.

    The pivot is the largest |diagonal| left, ties by index.  Eliminating it
    updates only its own connected block of the sparsity pattern, so each
    block keeps its own candidate pivot and a heap picks among the blocks'
    candidates: the pivot order is the global one, at the cost of a scan of
    one block per step (a diagonal matrix is dim blocks of size 1).

    Returns (processed, pivots) where processed is a list of (pivot_index,
    column dict) in elimination order.  A matrix that is not PSD raises
    NotPsdError with a witness v whose value <Mv, v> < 0 is checked exactly.
    """
    diag: dict[int, Fraction] = {i: Fraction(0) for i in range(matrix.dim)}
    rows: dict[int, dict[int, QC]] = {i: {} for i in range(matrix.dim)}
    for (i, j), c in matrix.entries.items():
        if i == j:
            if c.im != 0:
                raise ValueError(f"diagonal entry {i} not real; matrix not hermitian")
            diag[i] = c.re
        else:
            rows[i][j] = c

    blocks = _components(rows)

    def candidate(b: int):
        k = min(blocks[b], key=lambda i: (-abs(diag[i]), i))
        return -abs(diag[k]), k, b

    heap = [candidate(b) for b in range(len(blocks))]
    heapq.heapify(heap)
    processed: list[tuple[int, dict[int, QC]]] = []
    pivots: list[Fraction] = []
    witness: Optional[dict[int, QC]] = None

    while heap:
        _, k, b = heapq.heappop(heap)
        dk = diag[k]
        if dk < 0:
            witness = {k: QC_ONE}
            break
        if dk == 0:
            # every remaining diagonal vanishes, so any nonzero entry c = S[i][j]
            # of the remainder S gives u = -c e_i + e_j with <Su, u> = -2|c|^2
            rest = set().union(*blocks)
            witness = next(
                ({i: -c, j: QC_ONE} for i in sorted(rest) for j, c in rows[i].items() if j in rest and not c.is_zero),
                None,
            )
            break
        active = blocks[b]
        active.remove(k)
        krow = rows.pop(k)
        diag.pop(k)
        # krow holds A[k][i]; the L column needs l_i = A[i][k]/d = conj(A[k][i])/d
        col = {i: c.conj() / dk for i, c in krow.items() if i in active and not c.is_zero}
        for i, li in col.items():
            rows[i].pop(k, None)
            diag[i] -= li.abs2() * dk
            rowi = rows[i]
            for j, lj in col.items():
                if j == i:
                    continue
                s = rowi.get(j, QC_ZERO) - li * (lj.conj() * dk)
                if s.is_zero:
                    rowi.pop(j, None)
                else:
                    rowi[j] = s
        processed.append((k, col))
        pivots.append(dk)
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

    Exact mode: pivoted rational LDL*; PSD iff all pivots are positive and the
    zero-pivot tail vanishes identically.  Semidefinite counts as success.
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

    status, residual = verify_certificate(form, cert, size_cap=size_cap)
    if status == "fail":
        raise VerificationFailed(residual)
    return SosCertificate(form.n, form.m, N, cert.mode, cert.squares, status, residual)


def expand_squares(cert: SosCertificate) -> dict[tuple[int, int], object]:
    """Coefficient matrix of sum_j w_j Q_j(z) conj(Q_j(z)) over the ranked basis."""
    position = {alpha: i for i, alpha in enumerate(mi.iter_degree(cert.n, cert.m + cert.N))}
    out: dict[tuple[int, int], object] = {}
    exact = cert.mode == "exact"
    for sq in cert.squares:
        ranked = [(position[a], c) for a, c in sq.coefficients.items()]
        for i, ci in ranked:
            for j, cj in ranked:
                if exact:
                    term = sq.weight * ci * cj.conj()
                    s = out.get((i, j), QC_ZERO) + term
                    if s.is_zero:
                        out.pop((i, j), None)
                    else:
                        out[(i, j)] = s
                else:
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

    Exact certificates must reproduce every entry exactly; floating ones pass
    when the max-abs residual is below float_tol * ||c^N||_max.
    """
    matrix = multiplier_matrix(form, cert.N, size_cap=size_cap)
    expanded = expand_squares(cert)
    if cert.mode == "exact":
        keys = set(expanded) | set(matrix.entries)
        for key in keys:
            if expanded.get(key, QC_ZERO) != matrix.entries.get(key, QC_ZERO):
                return "fail", None
        return "exact-pass", 0.0
    residual = 0.0
    keys = set(expanded) | set(matrix.entries)
    for key in keys:
        got = complex(expanded.get(key, 0j))
        want = complex(matrix.entries.get(key, QC_ZERO))
        residual = max(residual, abs(got - want))
    scale = max(matrix.max_abs(), 1e-300)
    return ("float-pass", residual) if residual <= float_tol * scale else ("fail", residual)
