"""The two-sided sphere pass and the in-house Halton sampler."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsos import cli, formats, forms, multiindex as mi, spheremin
from hsos.exact import qc

from conftest import random_hermitian_form
from test_kernel_golden import DESCENT_GOLDEN, descent_record

SAMPLES = Path(__file__).resolve().parent.parent / "sample_forms"


@pytest.mark.parametrize("d", range(1, 9))
def test_halton_matches_scipy_bit_for_bit(d):
    from scipy.stats import qmc  # reference only; the package does not import scipy.stats

    for count in (0, 1, 97, 5000):
        assert np.array_equal(spheremin._halton(d, count), qmc.Halton(d=d, scramble=False).random(count))


def test_halton_matches_scipy_long_run():
    from scipy.stats import qmc

    assert np.array_equal(spheremin._halton(8, 200_000), qmc.Halton(d=8, scramble=False).random(200_000))


def test_unit_sphere_samples_on_sphere():
    Z = spheremin.unit_sphere_samples(3, 500)
    assert Z.shape == (500, 3)
    assert np.allclose(np.linalg.norm(Z, axis=1), 1.0, rtol=0, atol=1e-15)


def test_starting_points_take_the_first_eight_phase_patterns():
    for n in range(1, 11):
        balanced = np.array(list(itertools.product((1.0, 1j), repeat=n))[:8]) / math.sqrt(n)
        halton = spheremin.unit_sphere_samples(n, spheremin.QUASI_STARTS)
        old = np.concatenate([np.eye(n, dtype=complex), balanced, halton])
        assert np.array_equal(spheremin._starting_points(n), old)
    # 2^40 phase patterns are never built: 40 axes, 8 balanced points, 64 Halton starts
    assert spheremin._starting_points(40).shape == (112, 40)


def _old_sup_abs(form):
    """The former composition: two full minimizations, of f and of an exactly scaled -f."""
    r_min = spheremin.minimize_on_sphere(form)
    r_max = spheremin.minimize_on_sphere(forms.scale(form, -1))
    if -r_max.value >= -r_min.value:
        value, point = -r_max.value, r_max.minimizer
    else:
        value, point = -r_min.value, r_min.minimizer
    return r_min, r_max, max(value, 0.0), point


SPHERE_FORMS = {
    "fc_7_4 (n=2)": lambda: formats.load_form(SAMPLES / "fc_7_4.json"),
    "polya_diag_n3_m2 (n=3, grid)": lambda: formats.load_form(SAMPLES / "polya_diag_n3_m2.json"),
    "seeded n=4 (no grid)": lambda: random_hermitian_form(random.Random(7), 4, 2),
    "indefinite n=2": lambda: forms.fc_form(3),
    "zero": lambda: forms.HermitianForm.zero(2, 2),
}


@pytest.mark.parametrize("name", SPHERE_FORMS)
def test_sphere_range_matches_separate_minimizations(name):
    lam, sharp = spheremin.sphere_range(SPHERE_FORMS[name]())
    r_min, r_max, value, point = _old_sup_abs(SPHERE_FORMS[name]())  # a fresh form: nothing read from the pass
    assert lam == r_min
    assert sharp.value == value and sharp.minimizer == point
    assert sharp.uncertainty == max(r_min.uncertainty, r_max.uncertainty)
    assert sharp.certified == (r_min.certified and r_max.certified)
    assert sharp.converged == (r_min.converged and r_max.converged)
    assert sharp.starts == r_min.starts + r_max.starts
    assert sharp.grid_points == r_min.grid_points


@pytest.mark.parametrize("argv", [["analyze"], ["bounds", "--n-max", "1"]])
def test_zero_form_lambda_sharp_is_positive_zero(capsys, tmp_path, argv):
    # sup |f| = max(0, -min) ties at 0 for the zero form; -0.0 would print as "-0.0"
    assert math.copysign(1.0, spheremin.sphere_range(forms.HermitianForm.zero(2, 1))[1].value) == 1.0
    path = tmp_path / "zero.json"
    path.write_text('{"n": 2, "m": 1, "terms": []}')
    assert cli.main(["--json", argv[0], str(path), *argv[1:]]) == 0
    assert math.copysign(1.0, json.loads(capsys.readouterr().out)["lambda_sharp"]) == 1.0


def _count_calls(monkeypatch, name, calls=None):
    calls = [] if calls is None else calls
    original = getattr(spheremin, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(spheremin, name, counted)
    return calls


@pytest.mark.parametrize("argv", [["analyze"], ["bounds", "--n-max", "3"]])
def test_analyze_and_bounds_run_one_grid_and_one_descent_batch(monkeypatch, capsys, argv):
    grids = _count_calls(monkeypatch, "_certified_grid")
    descents = _count_calls(monkeypatch, "_pgd_batch")
    path = str(SAMPLES / "fc_7_4.json")
    assert cli.main(["--json", argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert (len(grids), len(descents)) == (1, 1)


def test_lambda_min_and_lambda_sharp_pass_counts():
    counts = {}
    for fn in (forms.lambda_min, forms.lambda_sharp):
        with pytest.MonkeyPatch.context() as mp:
            grids = _count_calls(mp, "_certified_grid")
            descents = _count_calls(mp, "_pgd_batch")
            fn(forms.fc_form(1))  # a fresh form each: what one call costs on its own
        counts[fn.__name__] = (len(grids), len(descents))
    assert counts == {"lambda_min": (1, 1), "lambda_sharp": (1, 1)}


def _pass_counts(monkeypatch, form, *calls):
    """(grids, descents) that the calls, in order, run on one form."""
    grids = _count_calls(monkeypatch, "_certified_grid")
    descents = _count_calls(monkeypatch, "_pgd_batch")
    for call in calls:
        call(form)
    return len(grids), len(descents)


def test_lambda_min_then_lambda_sharp_share_one_pass(monkeypatch):
    assert _pass_counts(monkeypatch, forms.fc_form(1), forms.lambda_min, forms.lambda_sharp) == (1, 1)


def test_sphere_range_after_minimize_on_sphere_adds_no_pass(monkeypatch):
    form = forms.fc_form(1)
    spheremin.minimize_on_sphere(form)
    assert _pass_counts(monkeypatch, form, spheremin.sphere_range) == (0, 0)


def test_certified_grid_runs_before_the_starts(monkeypatch):
    """The grid's value table is freed before the starts and the descent allocate theirs, so the two never add up.

    When the starts loaded scipy.special and the grid formed its 160 000 points, the other order
    raised the peak resident memory of `hsos analyze fc_1` from 55 to 75 MB; the grid's table now
    takes about 2.6 MB and the numpy ndtri about 0.4 MB.
    """
    calls = _count_calls(monkeypatch, "_certified_grid")
    _count_calls(monkeypatch, "_starting_points", calls)
    forms.lambda_min(forms.fc_form(1))
    assert calls == ["_certified_grid", "_starting_points"]


def _grid_reference(n: int) -> tuple[np.ndarray, int, float]:
    """The certified grid's points, one row each, with K and the covering radius, built point by point.

    The meshgrid runs over the n - 1 moduli angles psi, then the n - 1 phase angles theta; z_j is
    r_j e^{i theta_j} with spherical moduli r and theta_n = 0.
    """
    if n == 1:
        return np.array([[1.0 + 0j]]), 1, 0.0
    K = max(4, int(spheremin.GRID_BUDGET ** (1.0 / (2 * (n - 1)))))
    dpsi, dtheta = (math.pi / 2) / K, (2 * math.pi) / K
    axes = np.meshgrid(*([(np.arange(K) + 0.5) * dpsi] * (n - 1) + [(np.arange(K) + 0.5) * dtheta] * (n - 1)),
                       indexing="ij")
    psis, thetas = [g.reshape(-1) for g in axes[: n - 1]], [g.reshape(-1) for g in axes[n - 1 :]]
    Z = np.empty((K ** (2 * n - 2), n), dtype=complex)
    sin_acc = np.ones(len(Z))
    for j in range(n - 1):
        Z[:, j] = (sin_acc * np.cos(psis[j])) * np.exp(1j * thetas[j])
        sin_acc = sin_acc * np.sin(psis[j])
    Z[:, n - 1] = sin_acc
    return Z, K, (n - 1) * dpsi / 2 + dtheta / 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certified_grid_matches_evaluate_batch_on_its_points(n):
    Z, K, cover = _grid_reference(n)
    rng, off_diagonal = random.Random(310 + n), 0
    for m in (1, 2, 3):
        for _ in range(2):
            form = random_hermitian_form(rng, n, m, max_terms=8)
            off_diagonal += not forms.is_diagonal(form)
            vals = forms.evaluate_batch(form, Z)
            grid_min, grid_max, grid_cover, count = spheremin._certified_grid(form)
            tol = 1e-12 * (1 + float(form.coefficient_l1()))
            assert abs(grid_min - vals.min()) <= tol and abs(grid_max - vals.max()) <= tol
            assert (grid_cover, count) == (cover, len(Z)) == (cover, K ** (2 * n - 2))
    assert off_diagonal >= (3 if n > 1 else 0)  # complex terms off the diagonal, where the phases matter


def test_certified_grid_memory_stays_far_below_its_points():
    """The grid's 160 000 points as complex (160 000, 3) rows would take 7.7 MB, their terms many times that."""
    import tracemalloc

    form = random_hermitian_form(random.Random(33), 3, 3, max_terms=20)
    assert not forms.is_diagonal(form)
    tracemalloc.start()
    try:
        spheremin._certified_grid(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


SPHERE_CALLS = {"minimize": spheremin.minimize_on_sphere, "range": spheremin.sphere_range}


# A call's answer could only depend on which sides of the pass exist before it; both orders of the
# two calls are every order, and each call comes first, on a fresh form, in one of them.
CALL_ORDERS = list(itertools.permutations(SPHERE_CALLS))


@pytest.mark.parametrize("name", SPHERE_FORMS)
def test_shared_pass_answers_as_a_fresh_form_does(name):
    results = []
    for order in CALL_ORDERS:
        form = SPHERE_FORMS[name]()
        results += [(order, call, SPHERE_CALLS[call](form)) for call in order]
    fresh = {call: result for order, call, result in results if call == order[0]}
    assert fresh.keys() == SPHERE_CALLS.keys()
    for order, call, result in results:
        assert result == fresh[call] and repr(result) == repr(fresh[call]), (order, call)


def test_equal_forms_do_not_share_a_pass(monkeypatch):
    doc = json.loads((SAMPLES / "fc_7_4.json").read_text())
    first, second = formats.form_from_dict(doc), formats.form_from_dict(doc)
    assert first == second and first is not second
    assert _pass_counts(monkeypatch, first, forms.lambda_min) == (1, 1)
    assert _pass_counts(monkeypatch, second, forms.lambda_min) == (1, 1)
    assert forms.lambda_min(first) == forms.lambda_min(second)


@pytest.mark.parametrize(
    "module, unwanted",
    [("hsos.cli", ("scipy",)), ("hsos", ("scipy",))],
)
def test_import_loads_no_unneeded_scipy(module, unwanted):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith({unwanted!r})))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# The descent pinned bit for bit against tests/golden/sphere_descent.json; test_kernel_golden
# describes the file and records it.
def _descent_cases():
    return json.loads(DESCENT_GOLDEN.read_text())["cases"]


@pytest.mark.parametrize("case", _descent_cases(), ids=lambda case: case["id"])
def test_descent_matches_golden_bit_for_bit(case):
    form = formats.form_from_dict(case["form"])
    assert descent_record(form) == {k: v for k, v in case.items() if k not in ("id", "form")}


def test_descent_golden_covers_samples_n4_and_non_diagonal_forms():
    cases = _descent_cases()
    assert {c["id"] for c in cases} >= {path.stem for path in SAMPLES.glob("*.json")}
    assert {c["form"]["n"] for c in cases} == {2, 3, 4, 5}
    assert any(t["alpha"] != t["beta"] for c in cases if c["form"]["n"] == 4 for t in c["form"]["terms"])


def _starts(n):
    z0 = spheremin._starting_points(n)
    return np.concatenate([z0.real, z0.imag], axis=1)


def _bits(*arrays):
    """float64 bits, so that a changed sign of zero shows too (a bool array as 0.0 and 1.0)."""
    return [np.ascontiguousarray(x, dtype=float).view(np.uint64) for x in arrays]


@pytest.mark.parametrize("case", _descent_cases(), ids=lambda case: case["id"])
def test_descent_batch_of_f_and_minus_f_matches_a_batch_per_side(case):
    form = formats.form_from_dict(case["form"])
    starts, obj = _starts(form.n), spheremin._Objective(form)
    paired = spheremin._pgd_batch(obj, np.concatenate([starts, starts]), len(starts))
    alone = [spheremin._pgd_batch(obj, starts, cut) for cut in (len(starts), 0)]  # f alone, -f alone
    for got, f, minus_f in zip(paired, *alone):
        assert np.array_equal(*_bits(got, np.concatenate([f, minus_f])))


@pytest.mark.parametrize("name", ["invariants-1/polya-diag-n3", "invariants-3/polya-diag-n2"])
def test_descent_retires_its_fixed_points_with_the_result_of_all_iterations(name):
    """The golden was recorded by descents that ran all MAX_ITER iterations on these f sides."""
    (case,) = [c for c in _descent_cases() if c["id"] == name]
    form = formats.form_from_dict(case["form"])
    obj, calls, starts = spheremin._Objective(form), [], _starts(form.n)
    value_grad = obj.value_grad
    obj.value_grad = lambda X, cut: calls.append(len(X)) or value_grad(X, cut)
    vals, X, conv = spheremin._pgd_batch(obj, starts, len(starts))
    assert len(calls) < spheremin.MAX_ITER // 5
    best = int(np.argmin(vals))
    minimizer = [[X[best, k].hex(), X[best, form.n + k].hex()] for k in range(form.n)]
    assert (vals[best].hex(), minimizer, bool(conv.any())) == tuple(
        case["min_f"][key] for key in ("value", "minimizer", "converged")
    )


@st.composite
def _objective_cases(draw, max_rows=6):
    """A hermitian form with n <= 4, m <= 3 and complex coefficients, and 1-max_rows points of R^{2n} near the sphere."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    basis = list(mi.iter_degree(n, m))
    parts = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    triples = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
        c = qc(draw(parts)) if a == b else qc(draw(parts), draw(parts))
        triples += [(a, b, c)] if a == b else [(a, b, c), (b, a, c.conj())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = spheremin._normalize_rows(rng.standard_normal((draw(st.integers(1, max_rows)), 2 * n)))
    X[:, draw(st.integers(0, 2 * n - 1))] = 0.0  # an exact zero coordinate, as at the axis starts
    return forms.HermitianForm.from_terms(n, m, triples), X * rng.uniform(0.5, 1.5, (len(X), 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_objective_cases())
def test_objective_value_matches_evaluate_batch(case):
    form, X = case
    obj, n = spheremin._Objective(form), form.n
    want = forms.evaluate_batch(form, X[:, :n] + 1j * X[:, n:])
    tol = 1e-12 * float(form.coefficient_l1()) * np.linalg.norm(X, axis=1) ** (2 * form.m)
    assert np.all(np.abs(obj.value(X, len(X)) - want) <= tol)
    assert np.array_equal(obj.value_grad(X, len(X))[0], obj.value(X, len(X)))
    assert np.array_equal(obj.value(X, 0), -obj.value(X, len(X)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_objective_cases(max_rows=8), st.data())
def test_objective_rows_depend_on_their_row_alone(case, data):
    """Each row's value and gradient bits, on f (rows [:cut]) and on -f, whether the row is evaluated alone,
    in any subset of the batch or in the whole batch; a zero row makes every product an exact zero."""
    form, X = case
    if data.draw(st.booleans()):
        X[data.draw(st.integers(0, len(X) - 1))] = 0.0
    obj, cut = spheremin._Objective(form), data.draw(st.integers(0, len(X)))
    whole = _bits(obj.value(X, cut), *obj.value_grad(X, cut))
    for size in range(1, len(X) + 1):
        for rows in map(list, itertools.combinations(range(len(X)), size)):
            sub_cut = int(np.searchsorted(rows, cut))
            for got, want in zip(_bits(obj.value(X[rows], sub_cut), *obj.value_grad(X[rows], sub_cut)), whole):
                assert np.array_equal(got, want[rows]), rows
    # -f's rows are f's rows under the exactly negated coefficients, +0.0 where a sum cancels exactly
    minus = spheremin._Objective(form)
    minus.C = minus.C[::-1]
    assert all(map(np.array_equal, _bits(obj.value(X, 0), *obj.value_grad(X, 0)),
                   _bits(minus.value(X, len(X)), *minus.value_grad(X, len(X)))))


def _per_term_objective(form, X):
    """Reference _Objective on f: each term's z^a, z̄^b and ∂̄_k factor lists gathered and reduced on their own,
    za times each ∂̄_k product in that operand order, and a one-row X run as two copies of its row;
    returns the value and the gradient at the rows of X."""
    rows = len(X)
    X = np.concatenate([X, X]) if rows == 1 else X
    n, K, width = form.n, len(form.coeffs), form.m + 1
    A, B = (np.array([key[s] for key in form.coeffs], dtype=np.int64).reshape(K, n) for s in (0, 1))
    C, at = np.array([complex(c) for c in form.coeffs.values()]), np.arange(n) * width
    z = X[:, :n] + 1j * X[:, n:]
    table = np.concatenate([z, np.conj(z)], axis=1)[:, :, None] ** np.arange(width)
    deriv = np.zeros_like(table[:, n:])
    deriv[:, :, 1:] = np.arange(1, width) * table[:, n:, :-1]
    table = np.concatenate([table, deriv], axis=1).reshape(len(X), -1)
    za_zb = np.multiply.reduce(table.take(np.concatenate([A + at, B + at + n * width]), axis=1), axis=2)
    za, zb = za_zb[:, :K], za_zb[:, K:]
    dindex = np.broadcast_to(B + at + n * width, (n, K, n)).copy()
    dindex[np.arange(n), :, np.arange(n)] = (B + at + 2 * n * width).T
    g = np.empty((n, len(X)), dtype=complex)
    for k in range(n):
        dbar = np.multiply(za[:, None, :], np.multiply.reduce(table.take(dindex[k : k + 1], axis=1), axis=3))
        g[k : k + 1] = dbar.transpose(1, 0, 2) @ C
    value, grad = (za * zb @ C).real, np.concatenate([2.0 * g.real.T, 2.0 * g.imag.T], axis=1)
    return value[:rows], grad[:rows]


def _assert_objective_matches_per_term_bit_for_bit(form, X):
    value, grad = _per_term_objective(form, X)
    obj = spheremin._Objective(form)
    bits = _bits(value, grad, obj.value(X, len(X)), *obj.value_grad(X, len(X)))
    assert np.array_equal(bits[2], bits[0]) and np.array_equal(bits[3], bits[0])
    assert np.array_equal(bits[4], bits[1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_objective_cases())
def test_objective_matches_per_term_products_bit_for_bit(case):
    _assert_objective_matches_per_term_bit_for_bit(*case)


def _dense_forms():
    """Seeded dense forms, n 2-5, up to 225 terms: the golden's kernel_table-n5 and random hermitian ones."""
    (dense,) = [c["form"] for c in _descent_cases() if c["id"] == "kernel_table-n5"]
    out = {"kernel_table-n5": formats.form_from_dict(dense)}
    for n, m in ((2, 3), (3, 2), (3, 3), (4, 2), (5, 2)):
        rng = random.Random(f"dense-objective-{n}-{m}")
        out[f"random-n{n}-m{m}"] = random_hermitian_form(rng, n, m, max_terms=mi.dim_homogeneous(n, m) ** 2 // 2)
    return out


@pytest.mark.parametrize("name", list(_dense_forms()))
def test_objective_matches_per_term_products_on_dense_forms(name):
    form = _dense_forms()[name]
    # the descent's start points (exact zeros at the axes) and Halton points, in batches of 1, 76 and
    # 200; at 200 the 225-term gradient runs a block of one k after a block of four
    z = np.concatenate([spheremin._starting_points(form.n), spheremin.unit_sphere_samples(form.n, 200)])
    X = np.concatenate([z.real, z.imag], axis=1)
    assert len(form.coeffs) <= 225
    for rows in (1, 76, 200):
        _assert_objective_matches_per_term_bit_for_bit(form, X[:rows])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_objective_cases())
def test_objective_gradient_matches_central_differences(case):
    form, X = case
    obj, h = spheremin._Objective(form), 1e-5
    grad = obj.value_grad(X, len(X))[1]
    assert grad.shape == X.shape
    # truncation h^2/6 |f'''| <= 4e-9 sum |c| |x|^(2m) for m <= 3; rounding 1e-16 sum |c| |x|^(2m) / h
    tol = 1e-7 * (1.0 + float(form.coefficient_l1()) * 1.5 ** (2 * form.m))
    for i in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[i] = h
        central = (obj.value(X + e, len(X)) - obj.value(X - e, len(X))) / (2 * h)
        assert np.all(np.abs(grad[:, i] - central) <= tol), i


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 8), st.data())
def test_normalize_rows_refuses_a_zero_row(rows, d, data):
    X = np.random.default_rng(rows * d).standard_normal((rows, d))
    assert np.allclose(np.linalg.norm(spheremin._normalize_rows(X), axis=1), 1.0)
    X[data.draw(st.integers(0, rows - 1))] = data.draw(st.sampled_from([0.0, -0.0]))
    with pytest.raises(ValueError, match="cannot project the origin"):
        spheremin._normalize_rows(X)
