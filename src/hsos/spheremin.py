"""Deterministic minimization of a hermitian form over the unit sphere.

Multi-start projected gradient descent with Armijo backtracking (all starts
advanced as one vectorized batch), combined for n <= 3 with a coarse certified
grid pass.  The certificate uses the crude sphere Lipschitz bound
L = 2m * sum |c_ab| together with an explicit covering radius of the
(moduli, phases) parameter grid, so the reported uncertainty radius is safe
but far from tight.  The grid is a product of moduli cells and phase cells, and
f on it is a sum of moduli-factor x phase-factor outer products, so its points
are never formed and it makes no forms.evaluate_batch call.

Each form object keeps one sphere pass, the dict HermitianForm.sphere_pass:
"grid" holds the grid's (min, max, cover, count) for n <= 3, 0 and 1 the final
SphereMinResult of f and of -f.  The grid and each descent run at most once
per form, every λ and Λ♯ of a form with n <= 3 includes the grid, and
minimize_on_sphere, sphere_range and forms.lambda_min/lambda_sharp all read
it.  An equal form that is a different object runs its own pass.

The descent is pinned bit for bit (tests/golden/sphere_descent.json).  Its
objective multiplies each distinct monomial factor list once, so its cost
follows the distinct monomials, not the terms, and three rules of _Objective
keep every float: np.multiply.reduce along a C-contiguous last axis is the
plain left fold of separately rounded complex products, whatever the batch
size or a row's position; an elementwise complex * rounds differently from it
and is not commutative in the last bit, so each * keeps its operands, their
shapes and which of them is a temporary (numpy reuses a large temporary for
the result and swaps the operands); and every complex @ sees the rows it
always saw, in the same order, since it rounds a row by its batch: the
gradient's is one transposed (kb, B, K) stack @ C per block of kb slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice, product

import numpy as np

from .forms import HermitianForm

MAX_ITER = 500  # descent iterations per start
TOL = 1e-9  # a start has converged once |projected gradient| <= TOL * (1 + |f|)
QUASI_STARTS = 64  # Halton starts on top of the axes and the balanced points
GRID_BUDGET = 160_000  # evaluations of the certified grid pass (n <= 3)
EVAL_CHUNK = 65536  # points per evaluation batch of the sampled audits (unit_sphere_chunks)


@dataclass(frozen=True)
class SphereMinResult:
    value: float
    minimizer: tuple[complex, ...]
    uncertainty: float  # radius of the certified interval; inf when not certified
    certified: bool
    converged: bool
    starts: int
    grid_points: int

    @property
    def certified_lower_bound(self) -> float:
        return self.value - self.uncertainty


def lipschitz_bound(form: HermitianForm) -> float:
    """Crude but safe Lipschitz constant of f on the sphere: 2m * sum |c_ab|."""
    return 2.0 * form.m * float(form.coefficient_l1())


class _Objective:
    """Batched f and Euclidean gradient on R^{2n} via Wirtinger derivatives.

    Each point's powers z_j^e and z̄_j^e, e <= m, are computed once into a table row.  Each
    distinct factor list is gathered from it and multiplied once, and z^a, z̄^b and the ∂̄_k
    factors of every term are gathered from those products.  The module docstring's three rules
    keep each float what per-term powers and np.prod gave: the reduce runs along a C-contiguous
    last axis, each elementwise * keeps its operands, shapes and temporaries (so the gradient
    keeps its block size kb), and each @ sees the rows it always saw.
    """

    def __init__(self, form: HermitianForm):
        n, K, width = form.n, len(form.coeffs), form.m + 1
        keys = list(form.coeffs.keys())
        A = np.array([k[0] for k in keys], dtype=np.int64).reshape(K, n)
        B = np.array([k[1] for k in keys], dtype=np.int64).reshape(K, n)
        self.n, self.C, self.powers = n, np.array([complex(form.coeffs[k]) for k in keys]), np.arange(width)
        # flat positions in a table row [z_j^e ..., z̄_j^e ..., e z̄_j^(e-1) ...], j < n, e <= m: the
        # lists of z^a and z̄^b, and for each k those of z̄^b with factor k replaced by
        # b_k z̄_k^(b_k - 1), the terms of dbar_k f = sum c z^a b_k z̄^(b - e_k)
        at = np.arange(n) * width
        dlists = np.broadcast_to(B + at + n * width, (n, K, n)).copy()
        dlists[np.arange(n), :, np.arange(n)] = (B + at + 2 * n * width).T
        # value reduces the distinct lists of z^a and z̄^b, value_grad those and the ∂̄_k lists after
        # them; index[0], index[1] and dindex[k] gather each term's products from the reduced row
        self.lists, index = np.unique(np.concatenate([A + at, B + at + n * width]), axis=0, return_inverse=True)
        dlists, dindex = np.unique(dlists.reshape(n * K, n), axis=0, return_inverse=True)
        self.index, self.dindex = index.reshape(2, K), dindex.reshape(n, K) + len(self.lists)
        self.all_lists = np.concatenate([self.lists, dlists])

    def _table(self, X: np.ndarray) -> np.ndarray:
        z = X[:, : self.n] + 1j * X[:, self.n :]
        return np.concatenate([z, np.conj(z)], axis=1)[:, :, None] ** self.powers  # (B, 2n, m + 1)

    def value(self, X: np.ndarray) -> np.ndarray:
        mono = np.multiply.reduce(self._table(X).reshape(len(X), -1).take(self.lists, axis=1), axis=2)
        za, zb = mono.take(self.index, axis=1).transpose(1, 0, 2)
        return (za * zb @ self.C).real

    def value_grad(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        table = self._table(X)
        deriv = np.zeros_like(table[:, self.n :])
        deriv[:, :, 1:] = self.powers[1:] * table[:, self.n :, :-1]
        table = np.concatenate([table, deriv], axis=1).reshape(len(X), -1)
        mono = np.multiply.reduce(table.take(self.all_lists, axis=1), axis=2)
        za, zb = mono.take(self.index, axis=1).transpose(1, 0, 2)
        # dbar_k f for the rows k of dindex, kb = 2^20 / (n K B) at a time; each @ sees the B rows.
        # kb stays: a block of one has za's shape, so from 256 KiB numpy reuses the gathered
        # temporary for the product and swaps the * operands
        g = np.empty((self.n, len(X)), dtype=complex)
        block = max(1, (1 << 20) // max(1, self.dindex.size * len(X)))
        for k in range(0, self.n, block):
            dbar = za[:, None, :] * mono.take(self.dindex[k : k + block], axis=1)
            g[k : k + block] = dbar.transpose(1, 0, 2) @ self.C
        return (za * zb @ self.C).real, np.concatenate([2.0 * g.real.T, 2.0 * g.imag.T], axis=1)


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    nrm = np.sqrt(np.add.reduce(X * X, axis=1, keepdims=True))  # np.linalg.norm's own sum, without its checks
    if (nrm == 0).any():
        raise ValueError("cannot project the origin to the sphere")
    return X / nrm


def _pgd_batch(obj: _Objective, X0: np.ndarray):
    """Armijo projected gradient on all rows at once; returns (values, points, converged)."""
    X = _normalize_rows(X0.astype(float))
    fx, G = obj.value_grad(X)
    step = np.ones(X.shape[0])
    converged = np.zeros(X.shape[0], dtype=bool)
    for _ in range(MAX_ITER):
        Gt = G - np.sum(G * X, axis=1, keepdims=True) * X
        gn = np.linalg.norm(Gt, axis=1)
        converged |= gn <= TOL * (1.0 + np.abs(fx))
        active = np.flatnonzero(~converged)
        if not active.size:
            break
        step[active] = np.minimum(step[active] * 2.0, 1e3)
        # the rows still backtracking and their step, point, direction, value and |g|^2; a step
        # of at most 1e3 falls below 1e-18 within 70 halvings, so every row leaves the loop
        rows, s, Xr, Gr, fr, g2 = active, step[active], X[active], Gt[active], fx[active], gn[active] ** 2
        while rows.size:
            Xc = _normalize_rows(Xr - s[:, None] * Gr)
            fc = obj.value(Xc)
            ok = fc <= fr - 1e-4 * s * g2
            half = s * 0.5
            dead = ~ok & (half < 1e-18)  # no float-resolution descent left
            leave = ok | dead
            if leave.any():
                good = rows[ok]
                X[good], fx[good], step[good] = Xc[ok], fc[ok], s[ok]
                converged[rows[dead]] = True
                keep = ~leave
                rows, half, Xr, Gr, fr, g2 = rows[keep], half[keep], Xr[keep], Gr[keep], fr[keep], g2[keep]
            s = half
        fx[active], G[active] = obj.value_grad(X[active])
    return fx, X, converged


def _halton(d: int, count: int, start: int = 0) -> np.ndarray:
    """Points start, ..., start + count - 1 of the unscrambled Halton sequence in [0, 1)^d.

    Coordinate j is the radical inverse of the index in the j-th prime, digits added in scipy's order.
    """
    primes = [p for p in range(2, d * d + 3) if all(p % q for q in range(2, math.isqrt(p) + 1))][:d]
    out = np.zeros((count, d))
    for j, base in enumerate(primes):
        index = np.arange(start, start + count)
        weight = 1.0 / base
        while index.any():
            out[:, j] += (index % base) * weight
            index //= base
            weight /= base
    return out


def _sphere_points(n: int, count: int, start: int) -> np.ndarray:
    """Halton points start, ..., start + count - 1 on the unit sphere of C^n: ndtri (clipped), normalize."""
    from .special import ndtri  # imported on first use, so the exact commands never load it
    g = ndtri(_halton(2 * n, count, start))
    z = g[:, :n] + 1j * g[:, n:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def unit_sphere_samples(n: int, count: int) -> np.ndarray:
    """Deterministic quasi-random points on the unit sphere of C^n: Halton, ndtri, normalize."""
    return _sphere_points(n, count, 0)


def unit_sphere_chunks(n: int, count: int):
    """The points of unit_sphere_samples(n, count), EVAL_CHUNK at a time; each depends on its index alone."""
    for lo in range(0, count, EVAL_CHUNK):
        yield _sphere_points(n, min(EVAL_CHUNK, count - lo), lo)


def _starting_points(n: int) -> np.ndarray:
    """Unit start points in C^n: the axes, balanced points with a few phase patterns, Halton samples."""
    balanced = np.array(list(islice(product((1.0, 1j), repeat=n), 8))) / math.sqrt(n)
    return np.concatenate([np.eye(n, dtype=complex), balanced, unit_sphere_samples(n, QUASI_STARTS)])


def _certified_grid(form: HermitianForm):
    """Coarse covering of the sphere by (moduli-angle, phase-angle) cells.

    Returns (grid_min, grid_max, covering_radius, points_used).  Every sphere
    point is within covering_radius of an evaluated point (after removing the
    global phase, which leaves f invariant), so grid_min - L * covering_radius
    certifies a lower bound on f and -grid_max - L * covering_radius one on -f.

    A grid point is z_j = r_j(psi) e^{i theta_j} with theta_n = 0, one of K^(n-1)
    moduli cells psi times one of K^(n-1) phase cells theta, so a term c z^a z̄^b is
    c r^(a+b) e^{i (a-b).theta}: a moduli factor times a phase factor.  The terms are
    summed into P_d(psi) = sum_{a-b=d} c r^(a+b), one per difference d, and hermitian
    symmetry gives P_{-d} = conj(P_d), so every value is
    f = P_0 + sum_{d>0} 2 (Re P_d cos(d.theta) - Im P_d sin(d.theta)), built on the
    (moduli cells, phase cells) table one elementwise outer product at a time; the
    points themselves are never formed.  Each value is a sum of products of a few
    correctly rounded factors, each at most |c_ab| in size, so its float rounding error
    is a few tens of units of 1e-16 * sum |c_ab| (it agrees with forms.evaluate_batch
    on the points to 7.8e-16 on the shipped forms).  That is far inside the Lipschitz
    margin L * covering_radius, which is 2m * sum |c_ab| times at least 0.0098.
    """
    n = form.n
    if n == 1:  # the sphere of C^1 is one point once the global phase is removed
        K, dpsi, dtheta, cover = 1, 0.0, 0.0, 0.0
    else:
        K = max(4, int(GRID_BUDGET ** (1.0 / (2 * (n - 1)))))
        dpsi = (math.pi / 2) / K
        dtheta = (2 * math.pi) / K
        cover = (n - 1) * dpsi / 2 + dtheta / 2
    cells = np.indices((K,) * (n - 1)).reshape(n - 1, K ** (n - 1)).T + 0.5  # cell centres, in steps
    psis, thetas = cells * dpsi, cells * dtheta

    # spherical moduli: r_1 = cos psi_1, r_2 = sin psi_1 cos psi_2, ..., r_n = prod sin
    r = np.empty((len(psis), n))
    sin_acc = np.ones(len(psis))
    for j in range(n - 1):
        r[:, j] = sin_acc * np.cos(psis[:, j])
        sin_acc = sin_acc * np.sin(psis[:, j])
    r[:, n - 1] = sin_acc
    r_pow = r[:, :, None] ** np.arange(2 * form.m + 1)  # (moduli cells, n, 2m + 1)

    zero = (0,) * (n - 1)
    moduli: dict[tuple[int, ...], np.ndarray] = {}
    for (a, b), c in form.coeffs.items():
        d = tuple(x - y for x, y in zip(a[:-1], b[:-1]))  # d_n = -sum d_j, as |a| = |b|
        if d >= zero:  # P_{-d} = conj(P_d) is not needed
            rab = np.multiply.reduce(r_pow[:, np.arange(n), np.add(a, b)], axis=1)
            moduli[d] = moduli.get(d, 0) + complex(c) * rab

    vals = np.zeros((len(psis), len(thetas)))
    if zero in moduli:
        vals += moduli.pop(zero).real[:, None]
    term = np.empty_like(vals)  # one outer product at a time, in place
    for d, p in moduli.items():
        phase = np.add.reduce(thetas * d, axis=1)
        vals += np.multiply.outer(2.0 * p.real, np.cos(phase), out=term)
        vals -= np.multiply.outer(2.0 * p.imag, np.sin(phase), out=term)
    return float(vals.min()), float(vals.max()), cover, vals.size


def _descent(form: HermitianForm, side: int) -> SphereMinResult:
    """The multi-start descent alone on f (side 0) or on -f (side 1): no grid, uncertified."""
    z0 = _starting_points(form.n)
    starts, obj = np.concatenate([z0.real, z0.imag], axis=1), _Objective(form)
    if side:  # -f: exactly negated coefficients
        obj.C = -obj.C
    vals, X, conv = _pgd_batch(obj, starts)
    best = int(np.argmin(vals))
    z = tuple(complex(X[best, k], X[best, form.n + k]) for k in range(form.n))
    return SphereMinResult(float(vals[best]), z, math.inf, False, bool(conv.any()), len(starts), 0)


def _minimum(form: HermitianForm, side: int) -> SphereMinResult:
    """The minimum of f (side 0) or of -f (side 1) on the sphere, read from the form's sphere pass."""
    if form.is_zero:
        e = tuple(1.0 + 0j if k == 0 else 0j for k in range(form.n))
        return SphereMinResult(0.0, e, 0.0, True, True, 0, 0)
    sp = form.sphere_pass
    if side not in sp:
        if form.n <= 3 and "grid" not in sp:
            # before the starts: the grid's value table is freed before the descent allocates its arrays
            sp["grid"] = _certified_grid(form)
        found = _descent(form, side)
        if "grid" in sp:
            grid_min, grid_max, cover, grid_points = sp["grid"]
            if side:  # min(-f) = -max f on the same grid values
                grid_min = -grid_max
            lower = grid_min - lipschitz_bound(form) * cover
            value = min(found.value, grid_min)
            found = replace(
                found, value=value, uncertainty=max(0.0, value - lower), certified=True, grid_points=grid_points
            )
        sp[side] = found
    return sp[side]


def _sharp(low: SphereMinResult, high: SphereMinResult) -> SphereMinResult:
    """Λ♯ = sup |f| from the minima of f (low) and of -f (high)."""
    side = high if high.value <= low.value else low  # sup |f| = -min(min f, min -f)
    return SphereMinResult(
        max(0.0, -side.value),  # 0.0, not -0.0, on a tie: max keeps its first argument
        side.minimizer,
        max(low.uncertainty, high.uncertainty),
        low.certified and high.certified,
        low.converged and high.converged,
        low.starts + high.starts,
        low.grid_points,  # one grid pass serves both sides
    )


def minimize_on_sphere(form: HermitianForm) -> SphereMinResult:
    """Multi-start projected gradient minimum of f on the unit sphere, with the certified grid for n <= 3."""
    return _minimum(form, 0)


def sphere_range(form: HermitianForm) -> tuple[SphereMinResult, SphereMinResult]:
    """(λ, Λ♯): minimize_on_sphere(form) and sup |f| from the same sphere pass and a descent on -f."""
    low = _minimum(form, 0)
    return low, _sharp(low, _minimum(form, 1))
