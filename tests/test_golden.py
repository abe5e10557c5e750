"""`--json` documents on the shipped sample forms, byte for byte.

The files under tests/golden/ hold the documents of `hsos --json analyze FORM`
and `hsos --json bounds FORM --n-max 20` for every form in sample_forms/.  A
change that alters one of them must say why and re-record it, e.g.

    PYTHONPATH=src python -m hsos.cli --json analyze sample_forms/fc_1.json > tests/golden/analyze_fc_1.json
"""

from pathlib import Path

import pytest

from hsos import cli

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
