"""Exact PSD kernel output pinned against recorded files.

tests/golden/kernel_sample_forms.json holds, for every form in sample_forms/
at N = 0..3 and at its minimal shift, what the exact kernel
`multiplier._ldlt` returns: the pivot order (basis positions), the pivots as
exact rationals and the rank, or the witness and its value <Mv, v>.
tests/golden/kernel_random.json holds the same at N = 0..2 for seeded random
hermitian forms whose coefficients have denominators 1, 2, 3, 4, 5, 7 and 12;
the form documents are stored in the file, so the test does not depend on the
generator.  Pivot order and pivots together determine the L factor, so these
files pin the whole factorization.  A change that alters them must say why and
re-record them with

    PYTHONPATH=src:tests python tests/test_kernel_golden.py
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hsos import formats, forms, multiindex as mi, multiplier as mult
from hsos.exact import qc

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DENOMINATORS = (1, 2, 3, 4, 5, 7, 12)
SEEDS = range(45)


def kernel_record(matrix: mult.MultiplierMatrix) -> dict:
    try:
        processed, pivots = mult._ldlt(matrix)
    except mult.NotPsdError as exc:
        witness = {str(i): [str(w.re), str(w.im)] for i, w in enumerate(exc.witness) if not w.is_zero}
        return {"psd": False, "witness_value": str(exc.witness_value), "witness": witness}
    return {
        "psd": True,
        "rank": len(pivots),
        "order": [k for k, _ in processed],
        "pivots": [str(d) for d in pivots],
    }


def _coefficient(rng: random.Random, size: int) -> Fraction:
    return Fraction(rng.randint(-size, size), rng.choice(DENOMINATORS))


def random_kernel_form(seed: int) -> forms.HermitianForm:
    """Seeded n 2-4, m 1-2 forms of three kinds: sparse hermitian (mostly not
    PSD, zero diagonals), t ||z||^(2m) plus hermitian terms (PSD at some N),
    and sums of squares (PSD with zero pivots)."""
    rng = random.Random(f"kernel-golden-{seed}")
    n = rng.choice((2, 3)) if seed % 5 else 4
    m = rng.choice((1, 2)) if n < 4 else 1
    basis = mi.enumerate_degree(n, m)
    triples = []
    kind = seed % 3
    if kind == 2:
        for _ in range(rng.randint(1, 3)):
            vec = {a: qc(_coefficient(rng, 3), _coefficient(rng, 3)) for a in rng.sample(basis, min(len(basis), 3))}
            triples += [(a, b, ca * cb.conj()) for a, ca in vec.items() for b, cb in vec.items()]
        return forms.HermitianForm.from_terms(n, m, triples)
    if kind == 1:
        t = Fraction(rng.randint(1, 4), rng.choice(DENOMINATORS))
        triples += [(a, a, qc(t * Fraction(mi.factorial(m), mi.index_factorial(a)))) for a in basis]
    for _ in range(rng.randint(1, 6)):
        a, b = rng.choice(basis), rng.choice(basis)
        if a == b:
            triples.append((a, a, qc(_coefficient(rng, 4))))
        else:
            c = qc(_coefficient(rng, 4), _coefficient(rng, 4))
            triples += [(a, b, c), (b, a, c.conj())]
    return forms.HermitianForm.from_terms(n, m, triples)


def sample_cases():
    for path in sorted((ROOT / "sample_forms").glob("*.json")):
        minimal = json.loads((GOLDEN / f"squares_{path.stem}.json").read_text())["N"]
        for N in sorted({0, 1, 2, 3, minimal}):
            yield path.stem, N


def record() -> None:
    sample = []
    for name, N in sample_cases():
        form = formats.load_form(ROOT / "sample_forms" / f"{name}.json")
        sample.append({"form": name, "N": N, **kernel_record(mult.multiplier_matrix(form, N))})
    (GOLDEN / "kernel_sample_forms.json").write_text(formats.dumps_stable({"cases": sample}) + "\n")
    rand = []
    for seed in SEEDS:
        form = random_kernel_form(seed)
        shifts = [kernel_record(mult.multiplier_matrix(form, N)) for N in range(3)]
        rand.append({"seed": seed, "form": formats.form_to_dict(form), "shifts": shifts})
    (GOLDEN / "kernel_random.json").write_text(formats.dumps_stable({"cases": rand}) + "\n")


def _golden(name):
    return json.loads((GOLDEN / name).read_text())["cases"]


@pytest.mark.parametrize("name, N", list(sample_cases()))
def test_kernel_matches_golden_on_sample_forms(name, N):
    (case,) = [c for c in _golden("kernel_sample_forms.json") if (c["form"], c["N"]) == (name, N)]
    form = formats.load_form(ROOT / "sample_forms" / f"{name}.json")
    expected = {k: v for k, v in case.items() if k not in ("form", "N")}
    assert kernel_record(mult.multiplier_matrix(form, N)) == expected


def test_kernel_golden_covers_sample_forms_and_denominators():
    assert {(c["form"], c["N"]) for c in _golden("kernel_sample_forms.json")} == set(sample_cases())
    cases = _golden("kernel_random.json")
    assert [c["seed"] for c in cases] == list(SEEDS)
    denominators = {Fraction(t[part]).denominator for c in cases for t in c["form"]["terms"] for part in ("re", "im")}
    assert {3, 5, 7, 12} <= denominators
    records = [(c["form"], N, r) for c in cases for N, r in enumerate(c["shifts"])]
    assert {r["psd"] for _, _, r in records} == {True, False}
    assert any(r["psd"] and r["rank"] < mi.dim_homogeneous(f["n"], f["m"] + N) for f, N, r in records)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_golden_on_random_forms(seed):
    (case,) = [c for c in _golden("kernel_random.json") if c["seed"] == seed]
    form = formats.form_from_dict(case["form"])
    assert [kernel_record(mult.multiplier_matrix(form, N)) for N in range(3)] == case["shifts"]


if __name__ == "__main__":
    record()
    sys.exit(0)
