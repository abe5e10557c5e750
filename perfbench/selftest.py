"""Self-test of the benchmark's input generation and output checks.

    python3 perfbench/selftest.py

1. The same seed gives byte-identical inputs, also in a fresh interpreter with
   another hash seed; another seed gives other inputs.
2. Deliberately corrupted outputs are counted as failed: a wrong minimal N, a
   certificate with one weight changed, a sphere minimum above a sampled value,
   a CLI document containing Infinity (unusable output) and a CLI document with
   the wrong exit code (a wrong verdict).  The uncorrupted outputs pass.
Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

GENERATORS = {
    "scan": inputs.scan_jobs,
    "certify": inputs.certify_jobs,
    "invariants": inputs.invariants_jobs,
    "cli_cold": inputs.cli_jobs,
}


def digest(seed: int) -> dict[str, str]:
    return {name: hashlib.sha256(inputs.canonical(gen(seed)).encode()).hexdigest() for name, gen in GENERATORS.items()}


def expect(label: str, got, want, failures: list) -> None:
    ok = got == want
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {got!r}" + ("" if ok else f", expected {want!r}"))
    if not ok:
        failures.append(label)


def verdicts(workload, job_id, output) -> list[str]:
    return [v for v, _ in workload.check([(job_id, output, None)])]


def main() -> int:
    warnings.simplefilter("ignore")
    failures: list[str] = []

    here = digest(7)
    code = f"import sys, json; sys.path.insert(0, {str(HERE)!r}); import selftest; print(json.dumps(selftest.digest(7)))"
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONHASHSEED="12345"),
                           capture_output=True, text=True, check=True)
    expect("same seed, fresh interpreter: identical inputs", json.loads(child.stdout) == here, True, failures)
    other = digest(8)
    expect("another seed: different inputs", [other[k] != here[k] for k in ("scan", "certify", "invariants")],
           [True, True, True], failures)

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)

        scan = workloads.Scan(work)
        scan.setup(7)
        job_id, spec = next(iter(scan.specs.items()))
        right = scan.run(spec)
        expect("scan: true minimal N", verdicts(scan, job_id, right), ["ok"], failures)
        expect("scan: minimal N off by one", verdicts(scan, job_id, right + 1), ["wrong"], failures)

        certify = workloads.Certify(work)
        certify.setup(7)
        job_id, spec = next(iter(certify.specs.items()))
        output = certify.run(spec)
        expect("certify: true certificate", verdicts(certify, job_id, output), ["ok"], failures)
        doc = json.loads(output.text)
        weight = doc["squares"][0]["weight"]
        doc["squares"][0]["weight"] = str(Fraction(weight) * 2)
        bad = copy.copy(output)
        bad.text = json.dumps(doc)
        expect("certify: one weight doubled", verdicts(certify, job_id, bad), ["wrong"], failures)

        inv = workloads.Invariants(work)
        inv.setup(7)
        job_id, spec = next(iter(inv.specs.items()))
        output = inv.run(spec)
        expect("invariants: true invariants", verdicts(inv, job_id, output), ["ok"], failures)
        bad = dict(output, **{"lambda": output["lambda"] + 0.5, "lambda_lower": output["lambda"] + 0.5})
        expect("invariants: sphere minimum raised by 1/2", verdicts(inv, job_id, bad), ["wrong"], failures)

        golden = json.loads(workloads.GOLDEN.read_text())
        key = "audit --suite tails"
        text = json.dumps(golden[key]["doc"])
        expect("cli: golden document", workloads.check_cli_document(golden[key], key, 0, text)[0], "ok", failures)
        bad = text.replace('"lhs": ', '"lhs": Infinity, "_": ', 1)
        expect("cli: document containing Infinity", workloads.check_cli_document(golden[key], key, 0, bad)[0],
               "failed", failures)
        expect("cli: wrong exit code", workloads.check_cli_document(golden[key], key, 1, text)[0], "wrong",
               failures)

    print("selftest:", "all cases behave" if not failures else f"{len(failures)} case(s) misbehave")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
