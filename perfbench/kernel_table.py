"""Regenerate the ROADMAP Baseline kernel table: exact LDL* against float eigh.

    python3 perfbench/kernel_table.py

Each row is ||z||^4 plus a term (+-1/16 +- i/16) z^a zbar^b and its conjugate
for every pair a < b of degree-2 monomials, signs drawn from SEED, assembled
by hsos at the shift that gives the row's dimension.  The exact column times
`multiplier.is_psd` (the rational LDL*), the float column `numpy.linalg.eigh`
of the same matrix; both verdicts are printed so that a disagreement shows.
With every pair present the rows cost what the ROADMAP Baseline measured: on
a 2-core x86-64 virtual machine dims 66, 84 and 165 take 3.6, 12.0 and 134 s
exact, against 2.8, 10.2 and 136 s in the Baseline.  This runs outside the
timed workloads because of the dim-165 row.
"""

import random
import sys
import time
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import form_doc  # noqa: E402
from reference import monomials  # noqa: E402

SEED = 0
# dim -> (n, m, N)
ROWS = {66: (3, 2, 8), 84: (4, 2, 4), 165: (4, 2, 6)}


def test_form(rng: random.Random, n: int) -> dict:
    """||z||^4 + a hermitian pair (+-1/16 +- i/16) z^a zbar^b for every a < b."""
    basis = monomials(n, 2)
    terms = [
        {"alpha": list(mu), "beta": list(mu), "re": str(factorial(2) // prod(factorial(x) for x in mu)), "im": "0"}
        for mu in basis
    ]
    for a, b in ((a, b) for a in basis for b in basis if a < b):
        re = Fraction(rng.choice((-1, 1)), 16)
        im = Fraction(rng.choice((-1, 1)), 16)
        terms.append({"alpha": list(a), "beta": list(b), "re": str(re), "im": str(im)})
        terms.append({"alpha": list(b), "beta": list(a), "re": str(re), "im": str(-im)})
    return form_doc(n, 2, terms)


def main() -> int:
    from hsos import formats, multiplier

    print("| n | m | N | dim | exact LDL* | verdict | float `eigh` | min eig |")
    print("|---|---|---|-----|------------|---------|--------------|---------|")
    for dim, (n, m, N) in ROWS.items():
        form = formats.form_from_dict(test_form(random.Random(f"kernel-{SEED}-{dim}"), n))
        matrix = multiplier.multiplier_matrix(form, N)
        t = time.perf_counter()
        verdict = multiplier.is_psd(matrix)
        exact_s = time.perf_counter() - t
        dense = matrix.to_dense()
        t = time.perf_counter()
        eigvals = np.linalg.eigh(dense)[0]
        float_s = time.perf_counter() - t
        print(f"| {n} | {m} | {N} | {matrix.dim} | {exact_s:.2f} s | {'PSD' if verdict.is_psd else 'not PSD'} "
              f"| {float_s:.4f} s | {eigvals[0]:.3g} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
