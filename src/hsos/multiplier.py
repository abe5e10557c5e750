"""Multiplier matrices of shifted forms, exact PSD decisions, SOS certificates.

The coefficient matrix of ||z||^(2N) f(z, z̄) over the degree-(m+N) monomial
basis is hermitian; the shifted form is a sum of squares of holomorphic
polynomials exactly when that matrix is positive semidefinite.  It is
assembled once as Gaussian integers (pairs of ints) over one common
denominator D, the lcm of f's coefficient denominators, and every consumer
reads those integers.  Only the upper triangle (i <= j) is stored, each
hermitian pair once, and no exact result depends on the order of its entries;
`entries` and `to_dense` give both orientations.  One exact kernel, a pivoted
fraction-free LDL*, decides PSD, raises NotPsdError with an exactly checked
witness, and yields certificates sum_j w_j |Q_j(z)|^2 with rational weights
w_j > 0, the only kind of certificate.  It eliminates the connected blocks of
the sparsity pattern one at a time, the block with the largest diagonal first,
so each block's squares stand alone.  Within a block its pivot order is
minimum degree: a negative diagonal first, then the positive diagonal with the
fewest off-diagonal entries left in its row, since only the differences of f's
exponents couple two rows and the largest diagonal would fill that sparsity
in.  Each square keeps the kernel's representation of its column, Gaussian
integers over one denominator (in lowest terms), through verification and into
the file.  The shift scan asks only for the verdict, and `psd_decided` proves
most verdicts in floating point first: a verified Cholesky (Rump 2006) for a
PD block, a witness checked exactly for a not-PSD one, found by inverse
iteration at the lowest float eigenvalue; the exact kernel sees only blocks
neither settles.  The scan starts at the first shift
whose diagonal, the coefficients of (x_1 + ... + x_n)^N sum_a c_aa x^a
(Polya), has no negative entry, computed without assembly; every earlier shift
fails on that entry, and a diagonal form's scan ends there.  Verification
rejects any weight <= 0, re-expands the squares exactly in Gaussian integers
and compares every entry of the multiplier matrix by cross-multiplication.
Each entry of the expansion is kept over its own horizon denominator, the lcm
of the scaled weights' denominators up to the earlier of the last squares
holding each of its two indices: no later square holds both, so none adds to
it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import multiindex as mi
from .exact import QC, QC_ONE, QC_ZERO
from .forms import HermitianForm, is_diagonal


class SizeCapExceeded(RuntimeError):
    def __init__(self, dimension: int, cap: int):
        self.dimension = dimension
        self.cap = cap
        super().__init__(f"matrix dimension {dimension} exceeds size cap {cap}")


class NotPsdError(RuntimeError):
    def __init__(self, message: str, witness: tuple[QC, ...], witness_value: Fraction):
        self.witness = witness  # v with <Mv, v> = witness_value < 0
        self.witness_value = witness_value
        super().__init__(message)


class VerificationFailed(RuntimeError):
    """Extracted squares that do not re-expand to their multiplier matrix: an internal error."""


DEFAULT_SIZE_CAP = 20_000


def _common_denominator(values) -> int:
    """lcm of the denominators of the QC values' parts, 1 for none."""
    return math.lcm(*(x.denominator for c in values for x in (c.re, c.im)))


def _gaussian(c: QC, den: int) -> tuple[int, int]:
    """den * c as a Gaussian integer (re, im); den is a multiple of c's denominators."""
    return c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)


@dataclass(frozen=True)
class MultiplierMatrix:
    """Hermitian coefficient matrix of ||z||^(2N) f over the degree-(m+N) basis.

    Entry (i, j) is (re + i im) / D for numerators[(i, j)] = (re, im), stored for
    i <= j in any order; entry (j, i) is its conjugate and zero entries are left out.
    """

    n: int
    m: int
    N: int
    basis: tuple[mi.MultiIndex, ...]
    D: int
    numerators: dict[tuple[int, int], tuple[int, int]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def entries(self) -> dict[tuple[int, int], QC]:
        """The nonzero entries as exact QC values, both orientations."""
        upper = {key: QC(Fraction(re, self.D), Fraction(im, self.D)) for key, (re, im) in self.numerators.items()}
        return {**upper, **{(j, i): c.conj() for (i, j), c in upper.items() if i != j}}

    def to_dense(self) -> np.ndarray:
        import numpy as np
        A = np.zeros((self.dim, self.dim), dtype=complex)
        for (i, j), (re, im) in self.numerators.items():  # correctly rounded, as float(Fraction(re, D))
            A[j, i], A[i, j] = complex(re / self.D, -im / self.D), complex(re / self.D, im / self.D)
        return A


def multiplier_matrix(form: HermitianForm, N: int, size_cap: int = DEFAULT_SIZE_CAP) -> MultiplierMatrix:
    """Exact entries of ||z||^(2N) f over degree m+N, assembled sparsely in Gaussian integers.

    Entry (rho, gamma) = sum over splits rho = a + mu, gamma = b + mu with
    |mu| = N of (N!/mu!) c_ab; the outer loop runs over the N-degree shifts mu
    and the inner one over the nonzero c_ab, never over all (rho, gamma)
    pairs.  Each exponent a of f gets one row, the positions of a + mu for
    every mu, found by an integer code: the exponents read as the digits of a
    base-(m+N+1) number, so code(a + mu) = code(a) + code(mu) and the loop sums
    no multi-indices.  Each c_ab is scaled once to a Gaussian integer over D,
    the lcm of f's coefficient denominators, and N!/mu! (`mi.multinomial`) is
    an integer, so the sums stay in ints.  Only the terms with a >= b are summed: the basis is lex-descending
    and adding mu keeps lex order, so they give the keys i <= j; zero sums are dropped last.
    """
    if N < 0:
        raise ValueError("shift degree N must be non-negative")
    dim = mi.dim_homogeneous(form.n, form.m + N)
    if dim > size_cap:
        raise SizeCapExceeded(dim, size_cap)
    basis = tuple(mi.iter_degree(form.n, form.m + N))
    digit = [(form.m + N + 1) ** k for k in range(form.n - 1, -1, -1)]

    def code(alpha):
        return sum(map(operator.mul, alpha, digit))

    position = {code(alpha): i for i, alpha in enumerate(basis)}
    mus = list(mi.iter_degree(form.n, N))
    mu_codes = [code(mu) for mu in mus]
    row = {}
    for alpha in {a for key in form.coeffs for a in key}:
        offset = code(alpha)
        row[alpha] = [position[offset + c] for c in mu_codes]
    D = _common_denominator(form.coeffs.values())
    scaled = [(row[alpha], row[beta], *_gaussian(c, D)) for (alpha, beta), c in form.coeffs.items() if alpha >= beta]
    numerators: dict[tuple[int, int], tuple[int, int]] = {}
    for t, w in enumerate(map(mi.multinomial, mus)):
        for row_a, row_b, re, im in scaled:
            key = (row_a[t], row_b[t])
            old_re, old_im = numerators.get(key, (0, 0))
            numerators[key] = (old_re + w * re, old_im + w * im)
    return MultiplierMatrix(form.n, form.m, N, basis, D, {key: s for key, s in numerators.items() if s != (0, 0)})


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    witness: Optional[tuple[QC, ...]] = None       # <Mv, v> < 0
    witness_value: Optional[Fraction] = None
    pivots: Optional[tuple[Fraction, ...]] = None  # positive pivots, as many as the rank


def _witness_quadratic_value(matrix: MultiplierMatrix, g: dict[int, tuple[int, int]], s: int) -> Fraction:
    """<Mv, v> for v = g / s, g Gaussian integers (re, im): sum Re(conj(g_i) A_ij g_j) over the numerators, / (s^2 D);
    an off-diagonal numerator counts twice, for itself and its conjugate below the diagonal."""
    total = 0
    for (i, j), (ar, ai) in matrix.numerators.items():
        if i in g and j in g:
            (xr, xi), (yr, yi) = g[i], g[j]
            pr, pi = xr * ar + xi * ai, xr * ai - xi * ar  # conj(g_i) A_ij
            total += (pr * yr - pi * yi) * (1 if i == j else 2)
    return Fraction(total, s * s * matrix.D)


def _lift_through_columns(processed, v: dict[int, QC]) -> dict[int, QC]:
    """Extend v so that (L* v) vanishes on all processed pivot rows: v_k = -sum conj(c_i) v_i / a for c_i = a l_i."""
    for k, a, col in reversed(processed):
        re = im = Fraction(0)
        for i, (cr, ci) in col.items():
            if i in v:
                re, im = re + cr * v[i].re + ci * v[i].im, im + cr * v[i].im - ci * v[i].re
        if re or im:
            v[k] = QC(-re / a, -im / a)
    return v


def _pattern(matrix: MultiplierMatrix) -> tuple[dict[int, int], dict[int, dict[int, tuple[int, int]]]]:
    """The diagonal numerators and, per row, the off-diagonal ones, each pair written in both rows."""
    diag = {i: 0 for i in range(matrix.dim)}
    rows: dict[int, dict[int, tuple[int, int]]] = {i: {} for i in range(matrix.dim)}
    for (i, j), (re, im) in matrix.numerators.items():
        if i != j:
            rows[i][j], rows[j][i] = (re, im), (re, -im)
        elif im:
            raise ValueError(f"diagonal entry {i} not real; matrix not hermitian")
        else:
            diag[i] = re
    return diag, rows


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

    A holds the matrix's numerators, Gaussian integers (pairs of ints) over
    its common denominator D; any common denominator gives the same output.
    The most negative diagonal refutes first (ties by index).  Otherwise the
    connected blocks of the sparsity pattern, which never interact, are
    eliminated one at a time, the block with the largest diagonal first (ties
    by index).  Pivot a = A[k][k] updates its block as
    A[i][j] = (a A[i][j] - A[i][k] A[k][j]) // b, b the block's previous pivot
    (1 at first), a division Sylvester's identity makes exact (Bareiss 1968):
    no gcd per entry.  The Schur complement is A / (b D), so d = a / (b D) and
    l_i = conj(A[k][i]) / a.  An entry outside the rank-one update would only
    rescale by a / b, so the rows are scaled lazily: a row outside the pivot's
    column keeps the pivot s at which its off-diagonal entries were last
    current, and is brought current, entry * b // s (exact: the factors a / b
    telescope to b / s), only when it enters a pivot column or is the pivot's
    row; the zero-pivot witness reads an entry as entry / (s D).  The
    diagonal, which the pivot order reads, is rescaled at every pivot.  In a
    block a negative diagonal refutes (the largest |diagonal|, ties by
    index); otherwise the pivot is the positive
    diagonal whose active row has the fewest off-diagonal entries, ties by the
    largest diagonal and then the index, a minimum-degree order (Tinney-Walker
    1967; George-Liu 1989): its column holds only those entries, and the
    rank-one update fills in at most their pairs, where the largest diagonal
    would fill a sparse block almost densely.  Zero diagonals come last, and
    any entry left beside them refutes: the least (i, j), so that no output
    depends on the order of the matrix's entries.

    Returns (processed, pivots), processed listing (k, a, {i: a l_i}) in
    elimination order, a l_i = conj(A[k][i]) as Gaussian integers (re, im).
    A matrix that is not PSD raises NotPsdError with a witness v whose value
    <Mv, v> < 0 is checked exactly.
    """
    D = matrix.D
    diag, rows = _pattern(matrix)
    processed: list[tuple[int, int, dict[int, tuple[int, int]]]] = []
    pivots: list[Fraction] = []

    def priority(i: int):
        d = diag[i]
        if d < 0:
            return 0, 0, d, i
        return (1, len(rows[i]), -d, i) if d else (2, 0, 0, i)

    def eliminate(active: set[int]) -> Optional[dict[int, QC]]:  # factors one block; a witness if it refutes
        pb = 1  # the block's last pivot b; its Schur complement is A / (b D)
        scale = dict.fromkeys(active, 1)  # the b at which each row's off-diagonal entries were last current
        while active:
            k = min(active, key=priority)
            a = diag[k]
            if a < 0:
                return {k: QC_ONE}
            if a == 0:
                # every diagonal left in the block vanishes, so any nonzero entry c = S[i][j]
                # of its remainder S gives u = -c e_i + e_j with <Su, u> = -2|c|^2; c is the
                # stored entry over its row's scale, (re pb / s) / (pb D) = re / (s D)
                for i, j in sorted((i, j) for i in active for j in rows[i])[:1]:  # the least (i, j)
                    re, im = rows[i][j]
                    return {i: QC(Fraction(-re, scale[i] * D), Fraction(-im, scale[i] * D)), j: QC_ONE}
                return None
            active.remove(k)
            del diag[k]
            s = scale.pop(k)
            kcol = {i: (re * pb // s, im * pb // s) for i, (re, im) in rows.pop(k).items() if i in active}
            for i in active:
                if i not in kcol:  # only the diagonal, which priority reads, is kept current
                    diag[i] = diag[i] * a // pb
                    continue
                rowi, s = rows[i], scale[i]
                del rowi[k]
                scale[i] = a
                for j, (re, im) in rowi.items():  # the update reads its entries at pb; the rest go to a
                    t = pb if j in kcol else a
                    if t != s:
                        rowi[j] = (re * t // s, im * t // s)
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
            processed.append((k, a, {i: (re, -im) for i, (re, im) in kcol.items()}))
            pivots.append(Fraction(a, pb * D))
            pb = a
        return None

    lowest, k = min((d, i) for i, d in diag.items())
    blocks = sorted(_components(rows), key=lambda block: min((-diag[i], i) for i in block))
    witness = {k: QC_ONE} if lowest < 0 else next(filter(None, map(eliminate, blocks)), None)  # stops at a refutation

    if witness is not None:
        v = _lift_through_columns(processed, witness)
        s = _common_denominator(v.values())
        value = _witness_quadratic_value(matrix, {i: _gaussian(c, s) for i, c in v.items()}, s)
        if value >= 0:
            raise AssertionError("internal error: PSD witness failed exact verification")
        raise NotPsdError(
            f"multiplier matrix at N={matrix.N} is not PSD; witness value {value}",
            tuple(v.get(i, QC_ZERO) for i in range(matrix.dim)),
            value,
        )
    return processed, pivots


def is_psd(matrix: MultiplierMatrix) -> PsdVerdict:
    """Decide positive semidefiniteness exactly with the pivoted fraction-free LDL* of `_ldlt`.

    PSD iff all pivots are positive and the zero-pivot tail vanishes
    identically; semidefinite counts as success.  A not-PSD verdict carries a
    witness v whose value <Mv, v> < 0 is checked exactly.
    """
    try:
        _, pivots = _ldlt(matrix)
    except NotPsdError as exc:
        return PsdVerdict(False, witness=exc.witness, witness_value=exc.witness_value)
    return PsdVerdict(True, pivots=tuple(pivots))


@dataclass(frozen=True)
class SosSquare:
    """weight |Q(z)|^2, Q = sum of (re + i im) / den z^alpha over coefficients[alpha] = (re, im): the certificate
    path's one representation, Gaussian integers over one den > 0 in lowest terms, as in `MultiplierMatrix`."""

    weight: Fraction  # > 0
    den: int
    coefficients: dict[mi.MultiIndex, tuple[int, int]]


@dataclass(frozen=True)
class SosCertificate:
    """Weighted squares sum_j w_j |Q_j(z)|^2 representing ||z||^(2N) f."""

    n: int
    m: int
    N: int
    squares: tuple[SosSquare, ...]
    verified: str = "unverified"  # "exact-pass" | "fail"
    residual: Optional[float] = None

    def num_squares(self) -> int:
        return len(self.squares)


_WITNESS_BITS = 40  # eigenvector witnesses are rounded to Gaussian multiples of 2^-40


def psd_decided(matrix: MultiplierMatrix) -> bool:
    """Whether the matrix is PSD, decided in floating point where that is a proof and exactly elsewhere.

    The chain: a negative diagonal numerator means not PSD (exact); then each
    connected block of the sparsity pattern (`_components`; blocks never
    interact) is decided by exactly one route.  A 1x1 block is PSD by its
    sign.  A larger one, its principal submatrix as a `MultiplierMatrix`, is
    PD if the verified Cholesky of `verified.cholesky_proves_pd` (Rump 2006;
    the shift is quoted there) succeeds on its scaled real embedding, not PSD
    if a vector for the lowest eigenvalue of the d x d complex block
    (`verified.lowest_eigenvector`: `eigvalsh`'s eigenvalue, then inverse
    iteration), rounded to Gaussian integers over 2^40, gives <Mv, v> < 0
    exactly, and otherwise (a singular or nearly singular block, or a solve
    that raises `LinAlgError`) goes alone to `is_psd`, the exact `_ldlt`: the
    only escalation.  So every verdict equals `is_psd`'s.
    """
    import numpy as np  # numpy and the float proofs load on first use: certify and verify never need them
    from . import verified
    diag, rows = _pattern(matrix)
    if any(d < 0 for d in diag.values()):
        return False
    for block in _components(rows):
        if len(block) == 1:
            continue  # its diagonal is >= 0
        position = {i: p for p, i in enumerate(sorted(block))}
        numerators = {(p, position[j]): c for i, p in position.items() for j, c in rows[i].items() if i < j}
        numerators.update({(p, p): (diag[i], 0) for i, p in position.items() if diag[i]})
        H = verified.scaled_hermitian(len(position), numerators)
        if verified.cholesky_proves_pd(H):
            continue
        sub = MultiplierMatrix(matrix.n, matrix.m, matrix.N, tuple(matrix.basis[i] for i in position), matrix.D, numerators)
        try:
            x = verified.lowest_eigenvector(H)
        except np.linalg.LinAlgError:
            refuted = False
        else:  # the largest part scaled to 2^40, then rounded
            x = np.rint(x * (2.0**_WITNESS_BITS / max(np.abs(x.real).max(), np.abs(x.imag).max())))
            g = dict(enumerate(zip(x.real.astype(int).tolist(), x.imag.astype(int).tolist())))
            refuted = _witness_quadratic_value(sub, g, 2**_WITNESS_BITS) < 0
        if refuted or not is_psd(sub).is_psd:
            return False
    return True


def _polya_diagonals(form: HermitianForm, n_max: int):
    """D times the diagonal of the multiplier matrix at N = 0, ..., n_max, as {code: int} maps.

    Entry (rho, rho) gets c_ab only where a = b, so the diagonal at shift N is
    1/D times the coefficient list Q_N of (x_1 + ... + x_n)^N p(x), p the sum
    of D c_aa x^a (Polya's theorem; Powers-Reznick 2001), and
    Q_{N+1}[rho + e_k] += Q_N[rho].  Monomials are keyed by the additive
    integer codes of `multiplier_matrix`, in the base m + n_max + 1 that holds
    every shift up to n_max; a missing or zero entry is a zero diagonal.
    The c_aa of a built form are real: it is hermitian and read-only.
    """
    digit = [(form.m + n_max + 1) ** k for k in range(form.n - 1, -1, -1)]
    D = _common_denominator(form.coeffs.values())
    Q = {sum(map(operator.mul, a, digit)): _gaussian(c, D)[0] for (a, b), c in form.coeffs.items() if a == b}
    for N in range(n_max + 1):
        yield Q
        if N < n_max:
            nxt: dict[int, int] = {}
            for r, v in Q.items():
                if v:
                    for d in digit:
                        nxt[r + d] = nxt.get(r + d, 0) + v
            Q = nxt


def _polya_start(form: HermitianForm, n_max: int, size_cap: int) -> Optional[int]:
    """First N <= n_max whose multiplier matrix has no negative diagonal entry, else None.

    Every shift below it has a negative diagonal entry, the first thing
    `psd_decided` refutes, so the shift scan may start here.  If it does not
    come before the first shift over the cap, found by bisection since the
    dimension never falls with N, that shift raises SizeCapExceeded, as in
    `multiplier_matrix`.  Q_N lists the coefficients of (x_1 + ... + x_n)^N p(x),
    which is p(x) on the simplex; so once p < 0 at a point of the simplex every
    later shift keeps a negative entry, and the recurrence stops.  The points
    tried are the centroid (Q_N sums below 0) at every N, and at N = 1, 2, 4, ...
    the exponents of Q_N's most negative entry, scaled onto the simplex.
    """
    over = bisect.bisect_right(range(n_max + 1), size_cap, key=lambda N: mi.dim_homogeneous(form.n, form.m + N))
    base = form.m + n_max + 1  # the base of _polya_diagonals' codes
    digits = [base**k for k in range(form.n - 1, -1, -1)]

    def exponents(code: int) -> list[int]:
        return [code // d % base for d in digits]

    for N, Q in zip(range(over), _polya_diagonals(form, n_max)):
        low = min(Q.values(), default=0)
        if low >= 0:
            return N
        if sum(Q.values()) < 0:
            break
        if not N:
            p = [(exponents(a), v) for a, v in Q.items()]  # D c_aa at each a
        elif not N & (N - 1):
            rho = exponents(next(r for r, v in Q.items() if v == low))
            if sum(v * math.prod(map(pow, rho, a)) for a, v in p) < 0:
                break
    if over <= n_max:
        raise SizeCapExceeded(mi.dim_homogeneous(form.n, form.m + over), size_cap)
    return None


def minimal_sos_N(
    form: HermitianForm,
    n_max: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Optional[int]:
    """Smallest N <= n_max whose multiplier matrix is PSD (a `psd_decided` proof), else None.

    Linear scan from the Polya diagonal bound of `_polya_start`, below which
    every shift has a negative diagonal entry, so no matrix is assembled there;
    by monotonicity of the PSD property in N the first success is the minimum.
    A diagonal form (c_ab = 0 for a != b) has diagonal matrices, PSD exactly
    when that diagonal is nonnegative, so its bound is the minimum and nothing
    is assembled.  A form that is not hermitian of bidegree (m, m) cannot
    be passed: HermitianForm raises its FormError when it is built.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    start = _polya_start(form, n_max, size_cap)
    if start is None or is_diagonal(form):
        return start
    for N in range(start, n_max + 1):
        if psd_decided(multiplier_matrix(form, N, size_cap=size_cap)):
            return N
    return None


def sos_decompose(form: HermitianForm, N: int, size_cap: int = DEFAULT_SIZE_CAP) -> SosCertificate:
    """Factor the multiplier matrix exactly into weighted squares and verify the result.

    Square j is w_j |e_k + sum_i l_i e_i|^2 for the pivot k, its positive
    pivot w_j and its column l of `_ldlt`; the weights stay rational, since
    absorbing sqrt(w_j) into the polynomials would leave the rationals.  A
    matrix that is not PSD raises NotPsdError with its exactly checked witness;
    the form is valid, since HermitianForm raises any FormError when it is built.
    """
    return _decompose(multiplier_matrix(form, N, size_cap=size_cap))


def _decompose(matrix: MultiplierMatrix) -> SosCertificate:
    """The verified certificate of `sos_decompose` from the multiplier matrix itself."""
    basis = matrix.basis
    processed, pivots = _ldlt(matrix)
    squares = []
    for (k, a, col), d in zip(processed, pivots):
        col = {k: (a, 0), **col}  # a (e_k + sum_i l_i e_i), reduced to lowest terms by its gcd with a
        g = math.gcd(*itertools.chain.from_iterable(col.values()))
        squares.append(SosSquare(d, a // g, {basis[i]: (re // g, im // g) for i, (re, im) in col.items()}))
    cert = SosCertificate(matrix.n, matrix.m, matrix.N, tuple(squares))
    status, residual = _verify_against(matrix, cert)
    if status == "fail":
        raise VerificationFailed(f"certificate at N={matrix.N} does not re-expand to the multiplier matrix")
    return replace(cert, verified=status, residual=residual)


def _gaussian_expansion(cert: SosCertificate) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Upper triangle (i <= j) of a certificate's expansion as Gaussian integers (re, im) over their own L_h.

    Square t, Gaussian integers g over den, keeps s_t = w_t / den^2.  Basis index i is held last by
    square last(i), and entry (i, j) is kept over L_h = lcm(den(s_0), ..., den(s_h)) for its horizon h = min(last(i), last(j)): only squares t <= h
    hold both indices, and each adds g_i conj(g_j) f(t, h) with f(t, h) = num(s_t) L_h / den(s_t),
    computed once per square and horizon.  Values are (re, im, L_h).
    """
    position = {alpha: i for i, alpha in enumerate(mi.iter_degree(cert.n, cert.m + cert.N))}
    scaled, last = [], {}
    for t, sq in enumerate(cert.squares):
        g = [(position[a], re, im) for a, (re, im) in sq.coefficients.items()]
        wn, wd = sq.weight.as_integer_ratio()  # one Fraction constructor, cheaper than Fraction division
        scaled.append((Fraction(wn, wd * sq.den * sq.den), g))
        for i, _, _ in g:
            last[i] = t
    prefix = list(itertools.accumulate((s.denominator for s, _ in scaled), math.lcm))  # L_h
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for s, g in scaled:
        sn, sd, f, rows = s.numerator, s.denominator, {}, []
        # latest horizon first: one order of the indices for every square, so a pair is keyed one way
        for _, i, ar, ai in sorted((-last[i], i, ar, ai) for i, ar, ai in g):
            h = last[i]
            if h not in f:
                f[h] = sn * (prefix[h] // sd)
            rows.append((i, ar, ai, f[h]))
        for p, (i, ar, ai, _) in enumerate(rows):
            for j, br, bi, fj in rows[p:]:  # last(j) <= last(i), so j's scale; small products first
                re, im = pairs.get((i, j), (0, 0))
                pairs[(i, j)] = (re + (ar * br + ai * bi) * fj, im + (ai * br - ar * bi) * fj)
    return {
        (i, j) if i <= j else (j, i): (re, im if i <= j else -im, prefix[last[j]])
        for (i, j), (re, im) in pairs.items()
    }


def expand_squares(cert: SosCertificate) -> dict[tuple[int, int], QC]:
    """Coefficient matrix of sum_j w_j Q_j(z) conj(Q_j(z)) over the ranked basis, both orientations, zeros left out."""
    half = {
        (i, j): QC(Fraction(re, L), Fraction(im, L))
        for (i, j), (re, im, L) in _gaussian_expansion(cert).items()
        if re or im
    }
    return {**half, **{(j, i): c.conj() for (i, j), c in half.items()}}


def verify_certificate(
    form: HermitianForm,
    cert: SosCertificate,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> tuple[str, Optional[float]]:
    """Independent exact re-expansion check of a certificate against the multiplier matrix.

    The form is valid (HermitianForm raises any FormError when it is built), the certificate's (n, m) must be the form's, every
    weight must be positive and the squares must reproduce every entry exactly, each compared over its
    own denominator in the expansion without building a Fraction.  Returns ("exact-pass", 0.0) or
    ("fail", None).
    """
    return _verify_against(multiplier_matrix(form, cert.N, size_cap=size_cap), cert)


def _verify_against(matrix: MultiplierMatrix, cert: SosCertificate) -> tuple[str, Optional[float]]:
    if (cert.n, cert.m, cert.N) != (matrix.n, matrix.m, matrix.N) or any(not sq.weight > 0 for sq in cert.squares):
        return "fail", None
    upper = _gaussian_expansion(cert)  # the upper triangle, as the matrix stores it
    for key, (a_re, a_im) in matrix.numerators.items():  # (re + i im) / L == (a_re + i a_im) / D
        re, im, L = upper.get(key, (0, 0, 1))  # an entry no square holds is 0
        if re * matrix.D != a_re * L or im * matrix.D != a_im * L:
            return "fail", None
    if any((re or im) and key not in matrix.numerators for key, (re, im, _) in upper.items()):
        return "fail", None
    return "exact-pass", 0.0
