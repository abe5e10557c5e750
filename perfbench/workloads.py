"""The four benchmark workloads: seeded inputs, a fixed job list, output checks.

A workload builds its inputs from the seed in `setup` (which also imports the
program and warms it up), exposes `jobs` as (id, callable) pairs that the
runner runs closed-loop, and judges every recorded output in `check` against
`reference`, which shares no code with hsos.  `check` returns one verdict per
output: "ok", "failed" (the program raised, or its output is unusable, such as
non-standard JSON) or "wrong" (a usable output that disagrees with the
reference).  Both of the latter count as failed jobs; only "wrong" makes the
run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden_cli.json"

# A float spectrum contradicts an exact PSD verdict only outside this band,
# relative to the matrix's Frobenius norm.
BAND = 1e-9
# A hsos CLI child that runs longer than this many CPU seconds is killed.
CHILD_CPU_LIMIT_S = 120


class Workload:
    name = ""
    pass_s = 1.0  # wall time of one pass over the job list at the seed commit
    in_process = True  # the jobs run in the runner's process

    def __init__(self, work: Path):
        self.work = work

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def jobs(self, traced: bool = False) -> list:
        """(job id, callable) pairs; `traced` asks for jobs the tracer can see into."""
        return [(job_id, lambda spec=spec: self.run(spec)) for job_id, spec in self.specs.items()]

    def check(self, results: list) -> list[tuple[str, str]]:
        """(verdict, note) for each (job_id, output, error) in `results`."""
        cache: dict = {}
        out = []
        for job_id, output, error in results:
            if error is not None:
                out.append(("failed", f"{job_id}: {error}"))
                continue
            key = (job_id, self.output_key(output))
            if key not in cache:
                cache[key] = self.check_one(job_id, output)
            out.append(cache[key])
        return out

    def output_key(self, output):
        """Equal keys mean equal outputs, so the reference check runs once per distinct output."""
        return repr(output)

    def check_one(self, job_id: str, output) -> tuple[str, str]:
        raise NotImplementedError

    def peak_rss_mb(self, results: list) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Scan(Workload):
    """multiplier.minimal_sos_N over the calibrated Polya ladder."""

    name = "scan"
    pass_s = 2.8

    def setup(self, seed: int) -> None:
        from hsos import formats, multiplier

        self.formats, self.multiplier = formats, multiplier
        self.specs = {spec["id"]: spec for spec in inputs.scan_jobs(seed)}
        first = next(iter(self.specs.values()))
        self.run(first)  # first call imports spheremin (and scipy.stats) for the positivity probe

    def run(self, spec: dict):
        form = self.formats.form_from_dict(spec["form"])
        return self.multiplier.minimal_sos_N(form, spec["n_max"])

    def check_one(self, job_id: str, output) -> tuple[str, str]:
        spec = self.specs[job_id]
        doc = spec["form"]
        if output != spec["expect_N"]:
            return "wrong", f"{job_id}: minimal N {output}, expected {spec['expect_N']}"
        if output is None:
            if reference.scaled_min_eig(doc, spec["n_max"]) > BAND:
                return "wrong", f"{job_id}: float spectrum is PSD at n_max but the scan found no shift"
            n = doc["n"]
            theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
            grids = np.meshgrid(*([theta] * (n - 1)), indexing="ij")
            phases = np.stack([np.zeros(grids[0].size)] + [g.ravel() for g in grids], axis=1)
            if reference.form_values(doc, np.exp(1j * phases) / math.sqrt(n)).min() >= 0:
                return "wrong", f"{job_id}: no negative value found for a form the scan rejected"
            return "ok", ""
        if reference.scaled_min_eig(doc, output) < -BAND:
            return "wrong", f"{job_id}: float spectrum contradicts PSD at N = {output}"
        if output > 0 and reference.scaled_min_eig(doc, output - 1) > BAND:
            return "wrong", f"{job_id}: float spectrum is PSD at N - 1 = {output - 1}"
        return "ok", ""


class CertOutput:
    def __init__(self, cert, loaded, form, loaded_form, status, text):
        self.cert, self.loaded, self.form, self.loaded_form = cert, loaded, form, loaded_form
        self.status, self.text = status, text


class Certify(Workload):
    """sos_decompose, save/load_certificate and a standalone verify_certificate."""

    name = "certify"
    pass_s = 5.0
    POINTS = 3

    def setup(self, seed: int) -> None:
        from hsos import formats, multiplier

        self.formats, self.multiplier = formats, multiplier
        self.specs = {spec["id"]: spec for spec in inputs.certify_jobs(seed)}
        rng = random.Random(f"certify-points-{seed}")
        self.points = {
            job_id: reference.gaussian_rational_points(rng, spec["form"]["n"], self.POINTS)
            for job_id, spec in self.specs.items()
        }
        self.run(next(iter(self.specs.values())))

    def run(self, spec: dict) -> CertOutput:
        path = self.work / f"{spec['id']}.cert.json"
        form = self.formats.form_from_dict(spec["form"])
        cert = self.multiplier.sos_decompose(form, spec["N"])
        self.formats.save_certificate(cert, path, form=form)
        loaded, loaded_form = self.formats.load_certificate(path)
        status, _ = self.multiplier.verify_certificate(loaded_form, loaded)
        return CertOutput(cert, loaded, form, loaded_form, status, path.read_text())

    def output_key(self, output: CertOutput):
        same = output.loaded == output.cert and output.loaded_form == output.form
        return (output.status, output.cert.verified, same, hashlib.sha256(output.text.encode()).hexdigest())

    def check_one(self, job_id: str, output: CertOutput) -> tuple[str, str]:
        spec = self.specs[job_id]
        if output.cert.verified != "exact-pass" or output.status != "exact-pass":
            return "wrong", f"{job_id}: status {output.cert.verified}/{output.status}, expected exact-pass"
        if output.loaded != output.cert or output.loaded_form != output.form:
            return "wrong", f"{job_id}: certificate changed in the JSON round trip"
        try:
            doc = reference.strict_json(output.text)
        except ValueError as exc:
            return "failed", f"{job_id}: certificate file is not JSON: {exc}"
        if doc["N"] != spec["N"] or doc["mode"] != "exact":
            return "wrong", f"{job_id}: certificate for N = {doc['N']} ({doc['mode']})"
        if any(Fraction(sq["weight"]) <= 0 for sq in doc["squares"]):
            return "wrong", f"{job_id}: non-positive weight"
        if not reference.certificate_identity_holds(doc, spec["form"], self.points[job_id]):
            return "wrong", f"{job_id}: sum of weighted squares differs from ||z||^(2N) f"
        return "ok", ""


class Invariants(Workload):
    """lambda_min, lambda_sharp, Lambda^2, Lambda-tilde and the four bound formulas."""

    name = "invariants"
    pass_s = 8.4
    SAMPLE = 20_000

    def setup(self, seed: int) -> None:
        from hsos import bounds, formats, forms

        self.bounds, self.formats, self.forms = bounds, formats, forms
        self.specs = {spec["id"]: spec for spec in inputs.invariants_jobs(seed)}
        self.rng_seed = seed
        self.run(next(iter(self.specs.values())))

    def run(self, spec: dict) -> dict:
        forms, bounds = self.forms, self.bounds
        form = self.formats.form_from_dict(spec["form"])
        lam = forms.lambda_min(form)
        sharp = forms.lambda_sharp(form)
        big_sq = forms.big_lambda_sq(form)
        tilde = forms.lambda_tilde(form)
        big = math.sqrt(big_sq)
        out = {
            "lambda": lam.value,
            "lambda_lower": lam.certified_lower_bound,
            "lambda_uncertainty": lam.uncertainty,
            "sharp": sharp.value,
            "big_lambda_sq": big_sq,
            "lambda_tilde": tilde,
            "certified_N": bounds.certified_N(form, 1, lam.value, big),
            "to_yeung_N": bounds.to_yeung_N(form, lam.value, sharp.value),
            "nie_schweighofer_N": bounds.nie_schweighofer_N(form, 1.0, lam.value),
        }
        if spec["diagonal"]:
            out["powers_resnick_N"] = bounds.powers_resnick_N(form, lam.value)
        return out

    def check_one(self, job_id: str, out: dict) -> tuple[str, str]:
        spec = self.specs[job_id]
        doc = spec["form"]
        n, m = doc["n"], doc["m"]
        lam, sharp = out["lambda"], out["sharp"]
        tol = 1e-9 * reference.coefficient_l1(doc)
        rng = np.random.default_rng([self.rng_seed, zlib.crc32(job_id.encode())])
        values = reference.form_values(doc, reference.sphere_sample(rng, n, self.SAMPLE))
        if not out["lambda_lower"] <= lam <= values.min() + tol:
            return "wrong", f"{job_id}: lambda {lam} (lower {out['lambda_lower']}) vs sample min {values.min()}"
        if "lambda" in spec:
            exact = spec["lambda"]
            if abs(lam - exact) > out["lambda_uncertainty"] + tol or out["lambda_lower"] > exact + tol:
                return "wrong", f"{job_id}: lambda {lam} +- {out['lambda_uncertainty']} vs closed form {exact}"
        if sharp < np.abs(values).max() - tol:
            return "wrong", f"{job_id}: Lambda-sharp {sharp} below sample max {np.abs(values).max()}"
        if out["big_lambda_sq"] != reference.weighted_frobenius_sq(doc):
            return "wrong", f"{job_id}: Lambda^2 {out['big_lambda_sq']} differs from the reference"
        if out["lambda_tilde"] != reference.diagonal_max(doc):
            return "wrong", f"{job_id}: Lambda-tilde {out['lambda_tilde']} differs from the reference"
        want = reference.bound_values(n, m, lam, sharp, float(out["big_lambda_sq"]), float(out["lambda_tilde"]))
        for name, value in want.items():
            if name in out and out[name] != value:
                return "wrong", f"{job_id}: {name} = {out[name]}, reference {value}"
        return "ok", ""


class CliCold(Workload):
    """One fresh `python -m hsos.cli --json ...` process per job, one at a time."""

    name = "cli_cold"
    pass_s = 21.0
    in_process = False  # its untimed, traced jobs call cli.main in process

    def setup(self, seed: int) -> None:
        for name in inputs.CLI_FORMS:
            (self.work / f"{name}.json").write_bytes((ROOT / "sample_forms" / f"{name}.json").read_bytes())
        self.specs = {spec["id"]: spec for spec in inputs.cli_jobs(seed)}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawn(["--help"])  # warm the page cache (and the bytecode cache, where Python writes one)

    def spawn(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one CLI child; returns (exit code, stdout, peak RSS in MB)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "hsos.cli", "--json", *argv],
            cwd=self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            preexec_fn=_limit_child_cpu,
        )
        with proc.stdout:
            text = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, text, usage.ru_maxrss / 1024.0

    def jobs(self, traced: bool = False) -> list:
        if traced:  # in process, so the wrappers see cli.main and the layers below it
            from hsos import cli

            def run(argv):
                buf = io.StringIO()
                with contextlib.chdir(self.work), contextlib.redirect_stdout(buf):
                    code = cli.main(["--json", *argv])
                return code, buf.getvalue(), 0.0

        else:
            run = self.spawn
        return [(job_id, lambda argv=spec["argv"]: run(argv)) for job_id, spec in self.specs.items()]

    def output_key(self, output):
        return output[:2]

    def check(self, results: list) -> list[tuple[str, str]]:
        self.golden = json.loads(GOLDEN.read_text())
        return super().check(results)

    def check_one(self, job_id: str, output) -> tuple[str, str]:
        return check_cli_document(self.golden.get(job_id), job_id, output[0], output[1])

    def peak_rss_mb(self, results: list) -> float:
        return max((out[2] for _, out, err in results if err is None), default=0.0)


def check_cli_document(golden, job_id: str, code: int, text: str) -> tuple[str, str]:
    """Strict RFC 8259 JSON, then equality with the golden document, then the exit code.

    Output that is not strict JSON is unusable ("failed").  A usable document
    that differs from the golden copy, or comes with another exit code, is
    "wrong": in hsos the exit code is the verdict (a rejected certificate, no
    shift found, a failed audit check).
    """
    if golden is None:
        return "failed", f"{job_id}: no golden document recorded"
    try:
        doc = reference.strict_json(text)
    except ValueError as exc:
        return "failed", f"{job_id}: output is not strict JSON ({exc})"
    # No golden document means the output at the time of recording was not
    # strict JSON; then strict JSON and the exit code are all that is checked.
    if golden["doc"] is not None and not reference.same_document(doc, golden["doc"]):
        return "wrong", f"{job_id}: document differs from the golden copy"
    if code != golden["exit"]:
        return "wrong", f"{job_id}: exit code {code}, expected {golden['exit']}"
    return "ok", ""


def _limit_child_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


WORKLOADS = {w.name: w for w in (Scan, Certify, Invariants, CliCold)}
