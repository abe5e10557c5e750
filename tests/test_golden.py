"""`--json` documents and exact certificates on the shipped sample forms.

The files under tests/golden/ hold the documents of `hsos --json analyze FORM`
and `hsos --json bounds FORM --n-max 20` for every form in sample_forms/,
compared byte for byte, and in squares_FORM.json the minimal shift N with the
`squares` of the exact certificate at N, compared as a set.  A change that
alters one of them must say why and re-record it, e.g.

    PYTHONPATH=src python -m hsos.cli --json analyze sample_forms/fc_1.json > tests/golden/analyze_fc_1.json
    PYTHONPATH=src python -m hsos.cli certify sample_forms/fc_1.json 1 --out cert.json

(the second writes a certificate whose N and squares make up squares_fc_1.json).
"""

import json
from pathlib import Path

import pytest

from hsos import cli, formats, multiplier as mult

ROOT = Path(__file__).resolve().parent.parent
FORMS = sorted(p.stem for p in (ROOT / "sample_forms").glob("*.json"))
COMMANDS = {"analyze": [], "bounds": ["--n-max", "20"]}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("form", FORMS)
def test_json_document_matches_golden(capsys, command, form):
    path = str(ROOT / "sample_forms" / f"{form}.json")
    code = cli.main(["--json", command, path, *COMMANDS[command]])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / f"{command}_{form}.json").read_text()


@pytest.mark.parametrize("form", FORMS)
def test_certificate_squares_match_golden(form):
    golden = json.loads((ROOT / "tests" / "golden" / f"squares_{form}.json").read_text())
    f = formats.load_form(ROOT / "sample_forms" / f"{form}.json")
    assert mult.minimal_sos_N(f, golden["N"]) == golden["N"]
    cert = mult.sos_decompose(f, golden["N"])
    assert cert.verified == "exact-pass"

    def canonical(squares):
        return sorted(json.dumps(sq, sort_keys=True) for sq in squares)

    assert canonical(formats.certificate_to_dict(cert)["squares"]) == canonical(golden["squares"])
