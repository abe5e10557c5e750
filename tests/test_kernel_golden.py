"""Exact PSD kernel and sphere descent output pinned against recorded files.

tests/golden/kernel_sample_forms.json holds, for every form in sample_forms/
at N = 0..3 and at its minimal shift, what the exact kernel
`multiplier._ldlt` returns: the pivot order (basis positions), the pivots as
exact rationals and the rank, or the witness and its value <Mv, v>.
tests/golden/kernel_random.json holds the same at N = 0..2 for seeded random
hermitian forms whose coefficients have denominators 1, 2, 3, 4, 5, 7 and 12;
the form documents are stored in the file, so the test does not depend on the
generator.  Pivot order and pivots together determine the L factor, so these
files pin the whole factorization.  The kernel refutes on the most negative
diagonal first; otherwise it eliminates the connected blocks one at a time,
the block with the largest diagonal first (ties by index).  Within a block it
pivots in minimum-degree order: a negative diagonal first, then the positive
diagonal whose row has the fewest off-diagonal entries left (ties by the
largest diagonal, then the index), zero diagonals last; it was chosen for its
fill-in, which the largest-diagonal rule made almost dense.

tests/golden/sphere_descent.json pins the sphere descent bit for bit: for the
sample forms, the distinct forms of the invariants benchmark at seeds 1-3
(n 2-4, diagonal and not) and perfbench/kernel_table's dense n = 5 form (225
terms), the float.hex of the minimum and minimizer of the
uncertified descents on f and on -f, their converged flags and start counts,
and of Λ♯.  The form documents are stored in the file; test_spheremin
compares against it.  A change that alters these files must say why and
re-record them with

    PYTHONPATH=src:tests python tests/test_kernel_golden.py
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hsos import formats, forms, multiindex as mi, multiplier as mult, spheremin
from hsos.exact import qc

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DENOMINATORS = (1, 2, 3, 4, 5, 7, 12)
SEEDS = range(45)
DESCENT_GOLDEN = GOLDEN / "sphere_descent.json"
DESCENT_SEEDS = (1, 2, 3)


def kernel_record(matrix: mult.MultiplierMatrix) -> dict:
    try:
        processed, pivots = mult._ldlt(matrix)
    except mult.NotPsdError as exc:
        witness = {str(i): [str(w.re), str(w.im)] for i, w in enumerate(exc.witness) if not w.is_zero}
        return {"psd": False, "witness_value": str(exc.witness_value), "witness": witness}
    return {
        "psd": True,
        "rank": len(pivots),
        "order": [k for k, _, _ in processed],
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
    basis = list(mi.iter_degree(n, m))
    triples = []
    kind = seed % 3
    if kind == 2:
        for _ in range(rng.randint(1, 3)):
            vec = {a: qc(_coefficient(rng, 3), _coefficient(rng, 3)) for a in rng.sample(basis, min(len(basis), 3))}
            triples += [(a, b, ca * cb.conj()) for a, ca in vec.items() for b, cb in vec.items()]
        return forms.HermitianForm.from_terms(n, m, triples)
    if kind == 1:
        t = Fraction(rng.randint(1, 4), rng.choice(DENOMINATORS))
        triples += [(a, a, qc(t * Fraction(math.factorial(m), mi.index_factorial(a)))) for a in basis]
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
    descents = [{"id": name, "form": doc, **descent_record(formats.form_from_dict(doc))} for name, doc in descent_corpus()]
    DESCENT_GOLDEN.write_text(formats.dumps_stable({"cases": descents}) + "\n")


def descent_corpus() -> list[tuple[str, dict]]:
    """(id, form document): the sample forms, each invariants form of DESCENT_SEEDS once, and one dense form."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import invariants_jobs
    from kernel_table import test_form

    corpus = [(p.stem, formats.form_to_dict(formats.load_form(p))) for p in sorted((ROOT / "sample_forms").glob("*.json"))]
    for seed in DESCENT_SEEDS:
        for job in invariants_jobs(seed):
            doc = formats.form_to_dict(formats.form_from_dict(job["form"]))
            if all(doc != seen for _, seen in corpus):
                corpus.append((f"invariants-{seed}/{job['id']}", doc))
    # n 5, m 2, 225 terms, the smallest form found on which a gradient split per k moves bits: from
    # 256 KiB numpy reuses a temporary operand of * for its result and swaps the complex operands
    dense = formats.form_from_dict(test_form(random.Random("kernel-0-66"), 5))
    corpus.append(("kernel_table-n5", formats.form_to_dict(dense)))
    return corpus


def descent_record(form: forms.HermitianForm) -> dict:
    """The uncertified descents on f and on -f, and Λ♯, as exact float.hex strings."""

    def exact(result):
        return {
            "value": result.value.hex(),
            "minimizer": [[z.real.hex(), z.imag.hex()] for z in result.minimizer],
            "converged": result.converged,
            "starts": result.starts,
        }

    low, high = (spheremin._descent(form, side) for side in (0, 1))
    return {"min_f": exact(low), "min_minus_f": exact(high), "lambda_sharp": spheremin._sharp(low, high).value.hex()}


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
