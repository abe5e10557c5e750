"""`--json` documents and exact certificates on the shipped sample forms.

The files under tests/golden/ hold, for every form in sample_forms/ and
compared byte for byte, the documents of `hsos --json analyze FORM` and
`hsos --json bounds FORM --n-max 20`, and at the minimal shift N of
squares_FORM.json the documents of

    search_FORM.json         hsos --json search FORM --n-max 20
    certify_FORM.json        hsos --json certify FORM N --out certificate_FORM.json
    certificate_FORM.json    the certificate file that --out writes
    verify_FORM.json         hsos --json verify certificate_FORM.json
    certify_below_FORM.json  hsos --json certify FORM N-1 (not PSD; only for N > 0)

with the exit codes of EXACT_RUNS.  squares_FORM.json holds N with the
`squares` of the exact certificate at N, compared as a set.  A change that
alters one of them must say why and re-record it, from tests/golden/, e.g.

    PYTHONPATH=../../src python -m hsos.cli --json analyze ../../sample_forms/fc_1.json > analyze_fc_1.json
    PYTHONPATH=../../src python -m hsos.cli --json certify ../../sample_forms/fc_1.json 1 \
        --out certificate_fc_1.json > certify_fc_1.json

The audit documents and exit codes of perfbench/golden_cli.json, which the
benchmark's cli_cold workload checks, are replayed here too; that file is
re-recorded only by perfbench/record_golden.py.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from hsos import cli, formats, multiplier as mult

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FORMS = sorted(p.stem for p in (ROOT / "sample_forms").glob("*.json"))
COMMANDS = {"analyze": [], "bounds": ["--n-max", "20"]}


def minimal_N(form: str) -> int:
    return json.loads((GOLDEN / f"squares_{form}.json").read_text())["N"]


def exact_runs(form: str) -> dict[str, tuple[list[str], int]]:
    """Golden name -> (argv, exit code), in the order they run; verify reads the certificate that certify wrote."""
    path, N = str(ROOT / "sample_forms" / f"{form}.json"), minimal_N(form)
    runs = {
        "search": (["search", path, "--n-max", "20"], 0),
        "certify": (["certify", path, str(N), "--out", f"certificate_{form}.json"], 0),
        "verify": (["verify", f"certificate_{form}.json"], 0),
    }
    if N > 0:
        runs["certify_below"] = (["certify", path, str(N - 1)], 1)
    return runs


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("form", FORMS)
def test_json_document_matches_golden(capsys, command, form):
    path = str(ROOT / "sample_forms" / f"{form}.json")
    code = cli.main(["--json", command, path, *COMMANDS[command]])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{command}_{form}.json").read_text()


@pytest.mark.parametrize("form", FORMS)
def test_exact_documents_and_certificate_file_match_golden(capsys, monkeypatch, tmp_path, form):
    monkeypatch.chdir(tmp_path)
    for name, (argv, expected_code) in exact_runs(form).items():
        code = cli.main(["--json", *argv])
        assert (name, capsys.readouterr().out) == (name, (GOLDEN / f"{name}_{form}.json").read_text())
        assert (name, code) == (name, expected_code)
    certificate = f"certificate_{form}.json"
    assert (tmp_path / certificate).read_text() == (GOLDEN / certificate).read_text()


@pytest.mark.parametrize("form", FORMS)
def test_certificate_squares_match_golden(form, tmp_path):
    golden = json.loads((GOLDEN / f"squares_{form}.json").read_text())
    f = formats.load_form(ROOT / "sample_forms" / f"{form}.json")
    assert mult.minimal_sos_N(f, golden["N"]) == golden["N"]
    cert = mult.sos_decompose(f, golden["N"])
    assert cert.verified == "exact-pass"

    def canonical(squares):
        return sorted(json.dumps(sq, sort_keys=True) for sq in squares)

    formats.save_certificate(cert, tmp_path / "cert.json", form=f)
    assert canonical(json.loads((tmp_path / "cert.json").read_text())["squares"]) == canonical(golden["squares"])


def _benchmark_reference():
    """perfbench/reference.py, which imports no hsos: its strict JSON parser and document comparison."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the audit documents of perfbench/golden_cli.json, replayed in process on the shipped forms and checked as
# the benchmark checks them: strict JSON, floats within 1e-9 relative, every other value and the exit code exact
CLI_GOLDEN = json.loads((ROOT / "perfbench" / "golden_cli.json").read_text())
REFERENCE = _benchmark_reference()


@pytest.mark.parametrize("command", [key for key in CLI_GOLDEN if key.startswith("audit ")])
def test_audit_documents_match_the_benchmark_golden(capsys, monkeypatch, command):
    monkeypatch.chdir(ROOT / "sample_forms")
    code = cli.main(["--json", *command.split()])
    doc = REFERENCE.strict_json(capsys.readouterr().out)
    want = CLI_GOLDEN[command]
    assert code == want["exit"]
    assert want["doc"] is None or REFERENCE.same_document(doc, want["doc"])
