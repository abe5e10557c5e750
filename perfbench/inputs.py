"""Seeded input generation for the benchmark workloads.

Every input is a JSON-ready form document built from the workload seed alone,
so the same seed gives byte-identical inputs; hsos receives only these
documents (through formats.form_from_dict, or as files for the CLI).

The benchmark compares runs made with different seeds, so a seed must not
change how much work a job is.  The exact PSD kernel's cost depends on the
final matrix dimension, on how many shifts the scan visits, on the sparsity
pattern and on the coefficient sizes.  The ladder therefore fixes the first
two by calibrating each Polya-type member with the float reference until its
minimal shift is the target N, takes positions and magnitudes of the
off-diagonal terms from a fixed stream, and lets the seed choose their signs
(and with them c, set to the middle of the interval that gives the target N).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from reference import ShiftedMatrices, diagonal_entries_exact, min_eig, monomials, scaled_min_eig

# Calibration margin on the smallest eigenvalue relative to the Frobenius norm:
# the float verdict at N and N-1 must be this far from zero on both sides.
MARGIN = 1e-7


def unit(n: int, i: int, k: int) -> tuple[int, ...]:
    return tuple(k if j == i else 0 for j in range(n))


def _term(alpha, beta, re: Fraction, im: Fraction = Fraction(0)) -> dict:
    return {"alpha": list(alpha), "beta": list(beta), "re": str(re), "im": str(im)}


def form_doc(n: int, m: int, terms: list[dict]) -> dict:
    return {"format_version": 1, "n": n, "m": m, "terms": terms}


def off_diagonal_terms(rng: random.Random, n: int, m: int, count: int) -> list[dict]:
    """`count` hermitian pairs c z^a zbar^b + conj(c) z^b zbar^a with |re|, |im| in [1/64, 1/16].

    Positions and magnitudes come from a fixed stream and only the signs from
    the seed: seeded positions or sizes changed the exact kernel's work up to
    twenty-fold from seed to seed.
    """
    basis = monomials(n, m)
    pairs = [(a, b) for a in basis for b in basis if a < b]
    fixed = random.Random(f"pattern-{n}-{m}-{count}")
    terms = []
    for a, b in fixed.sample(pairs, min(count, len(pairs))):
        re = Fraction(rng.choice((-1, 1)) * fixed.randint(1, 4), 64)
        im = Fraction(rng.choice((-1, 1)) * fixed.randint(1, 4), 64)
        terms.append(_term(a, b, re, im))
        terms.append(_term(b, a, re, -im))
    return terms


def polya_terms(n: int, c: Fraction) -> list[dict]:
    """sum |z_i|^4 - c sum_{i<j} |z_i|^2 |z_j|^2."""
    terms = [_term(unit(n, i, 2), unit(n, i, 2), Fraction(1)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = tuple(int(k in (i, j)) for k in range(n))
            terms.append(_term(e, e, -c))
    return terms


def _threshold(n: int, N: int, extra: list[dict], hi: float) -> float:
    """Largest c keeping the shift-N matrix of the Polya form plus `extra` PSD (float)."""
    mats = ShiftedMatrices(n, 2, N)
    A0 = mats.matrix(form_doc(n, 2, polya_terms(n, Fraction(0)) + extra))
    A1 = mats.matrix(form_doc(n, 2, polya_terms(n, Fraction(1)) + extra))
    G = A0 - A1  # the matrix of sum |z_i|^2 |z_j|^2, PSD, so min eig falls with c
    lo = 0.0
    if min_eig(A0) <= 0:
        return lo  # squarefree monomials have a zero diagonal at small shifts
    for _ in range(40):
        mid = (lo + hi) / 2
        if min_eig(A0 - mid * G) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def _separates(doc: dict, N: int, diagonal: bool) -> bool:
    """Is the shift-N matrix PSD and the shift-(N-1) matrix not?

    Diagonal forms are decided exactly from their diagonal; the others by the
    float spectrum with MARGIN on both sides.
    """
    if diagonal:
        return min(diagonal_entries_exact(doc, N)) >= 0 and (N == 0 or min(diagonal_entries_exact(doc, N - 1)) < 0)
    return scaled_min_eig(doc, N) > MARGIN and (N == 0 or scaled_min_eig(doc, N - 1) < -MARGIN)


def calibrated_polya(rng: random.Random, n: int, N: int, off_diagonal: int) -> dict:
    """Polya-type form with seeded off-diagonal terms whose minimal shift is exactly N."""
    extra = off_diagonal_terms(rng, n, 2, off_diagonal)
    hi = 2.0 / (n - 1) + 0.5
    lo_c = _threshold(n, N - 1, extra, hi) if N > 0 else 0.0
    hi_c = _threshold(n, N, extra, hi)
    for denominator in (256, 1024, 4096, 16384):
        c = Fraction(round((lo_c + 0.5 * (hi_c - lo_c)) * denominator), denominator)
        doc = form_doc(n, 2, polya_terms(n, c) + extra)
        if _separates(doc, N, diagonal=not extra):
            return doc
    raise ValueError(f"no rational c separates shifts {N - 1} and {N} for n = {n}")


def nonpositive_polya(rng: random.Random, n: int, off_diagonal: int) -> dict:
    """Polya-type form with c above the positivity limit 2/(n-1): never a sum of squares."""
    c = Fraction(2, n - 1) + Fraction(rng.randint(8, 16), 64)
    return form_doc(n, 2, polya_terms(n, c) + off_diagonal_terms(rng, n, 2, off_diagonal))


def diagonal_polya(n: int, c: Fraction) -> dict:
    return form_doc(n, 2, polya_terms(n, c))


def polya_lambda(n: int, c: Fraction) -> float:
    """Closed-form sphere minimum of the diagonal Polya form: (1 + c/2)/n - c/2."""
    return float((1 + c / 2) / n - c / 2)


# Scan ladder: (n, minimal N, off-diagonal pairs).  Final dimensions 19, 28,
# 36, 45 and 84; the diagonal member (no seeded part) reaches dimension 300
# and skips the LDL*, and the non-positive member is rejected at every shift
# up to its n_max, which exercises the witness path.  With the
# non-positive member the scan runs seven jobs: three cheap, (3, 5) in the
# middle and three expensive, so the median job is the same member whatever
# the seed.
LADDER = ((2, 16, 2), (3, 4, 3), (3, 5, 3), (3, 6, 3), (4, 4, 4))
DIAGONAL = (3, 21)
NONPOSITIVE = (3, 3, 6)  # (n, off-diagonal pairs, n_max)


def scan_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"scan-{seed}")
    jobs = []
    for n, N, k in LADDER:
        jobs.append({"id": f"polya-n{n}-N{N}", "form": calibrated_polya(rng, n, N, k), "n_max": N + 2, "expect_N": N})
    n, N = DIAGONAL
    jobs.append({"id": f"diagonal-n{n}-N{N}", "form": calibrated_polya(rng, n, N, 0), "n_max": N + 2, "expect_N": N})
    n, k, n_max = NONPOSITIVE
    jobs.append({"id": f"nonpositive-n{n}", "form": nonpositive_polya(rng, n, k), "n_max": n_max, "expect_N": None})
    return jobs


def certify_jobs(seed: int) -> list[dict]:
    """The n = 2 and n = 3 scan-ladder members (the diagonal one too) at their minimal shift."""
    return [
        {"id": job["id"], "form": job["form"], "N": job["expect_N"]}
        for job in scan_jobs(seed)
        if job["form"]["n"] <= 3 and job["expect_N"] is not None
    ]


def power_sum(rng: random.Random, n: int, m: int, off_diagonal: int) -> dict:
    """sum |z_i|^(2m) plus seeded off-diagonal terms; positive for the sizes used."""
    terms = [_term(unit(n, i, m), unit(n, i, m), Fraction(1)) for i in range(n)]
    return form_doc(n, m, terms + off_diagonal_terms(rng, n, m, off_diagonal))


# Invariants corpus: (id, n, m, kind, parameter), cheapest first.  Diagonal
# Polya members have the closed-form sphere minimum (1 + c/2)/n - c/2; the rest
# are checked against a sphere sample.  n <= 3 members take the certified grid,
# n = 4 members only PGD.  Two cheap members, power-n2-m4 in the middle and two
# expensive ones, so the median job is the same member whatever the seed.
# The optimizer's work depends on where its fixed starting points sit in the
# landscape: seeded signs, or a seeded permutation and phase rotation of the
# variables, changed a member's cost by up to half, and a band of 1/2 in c by
# a quarter.  So the non-diagonal members come from a fixed stream and the
# seed moves only the diagonal members' c, inside a narrow band (c/64 in the
# given range).
INVARIANTS = (
    ("polya-diag-n2", 2, 2, "diagonal", (40, 44)),
    ("polya-diag-n3", 3, 2, "diagonal", (28, 32)),
    ("power-n2-m4", 2, 4, "power", 4),
    ("polya-n4", 4, 2, "polya", 4),
    ("power-n3-m3", 3, 3, "power", 6),
)


def invariants_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"invariants-{seed}")
    jobs = []
    for name, n, m, kind, param in INVARIANTS:
        job = {"id": name, "diagonal": kind == "diagonal"}
        fixed = random.Random(f"invariants-{name}")
        if kind == "diagonal":
            c = Fraction(rng.randint(*param), 64)
            job["form"] = diagonal_polya(n, c)
            job["lambda"] = polya_lambda(n, c)
        elif kind == "polya":
            terms = polya_terms(n, Fraction(fixed.randint(8, 16), 64)) + off_diagonal_terms(fixed, n, m, param)
            job["form"] = form_doc(n, m, terms)
        else:
            job["form"] = power_sum(fixed, n, m, param)
        jobs.append(job)
    return jobs


# cli_cold: the fc_c family shipped in sample_forms/ (n = 2, m = 2, three
# terms, so every member costs the same) with its minimal shifts.
CLI_FORMS = {"fc_1_2": 1, "fc_1": 1, "fc_3_2": 5, "fc_7_4": 13}


# One cold `hsos --json` process per entry, in this order.  `verify` re-reads
# the certificate that `certify` wrote just before it.
CLI_PLAN = (
    ("analyze", "{form}.json"),
    ("search", "{form}.json", "--n-max", "20"),
    ("certify", "{form}.json", "{N}", "--out", "cert.json"),
    ("verify", "cert.json"),
    ("bounds", "{form}.json", "--n-max", "20"),
    ("audit", "--suite", "tails"),
    ("audit", "--suite", "radial"),
    ("audit", "--suite", "localization"),
    ("audit", "--suite", "basic", "--form", "{form}.json"),
    ("audit", "--suite", "laplacian", "--form", "{form}.json"),
    ("audit", "--suite", "all", "--form", "{form}.json"),
    ("audit", "--suite", "tails", "--rho", "2000", "--delta", "0.9"),
)


def cli_job(template: tuple, form: str) -> dict:
    argv = [a.format(form=form, N=CLI_FORMS[form]) for a in template]
    key = " ".join(argv) + (f" ({form})" if template[0] == "verify" else "")
    return {"id": key, "argv": argv}


def cli_jobs(seed: int) -> list[dict]:
    """The seed picks which fc form each form-taking command reads."""
    rng = random.Random(f"cli-{seed}")
    jobs = []
    for template in CLI_PLAN:
        if template[0] != "verify":
            form = rng.choice(sorted(CLI_FORMS))
        jobs.append(cli_job(template, form))
    return jobs


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)
