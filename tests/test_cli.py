import json
import time
from pathlib import Path

import pytest

from hsos import cli, formats, forms

SAMPLES = Path(__file__).resolve().parent.parent / "sample_forms"


@pytest.fixture
def fc1_path(tmp_path):
    path = tmp_path / "fc1.json"
    formats.save_form(forms.fc_form(1), path)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze(capsys, fc1_path):
    code, out, _ = run(capsys, ["analyze", fc1_path])
    assert code == 0
    assert "lambda" in out and "0.25" in out and "1.5" in out


def test_analyze_json_fields(capsys, fc1_path):
    code, out, _ = run(capsys, ["--json", "analyze", fc1_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["m"] == 2 and doc["diagonal"] is True
    assert abs(doc["lambda"] - 0.25) < 1e-9
    assert doc["big_lambda_sq"] == "9/4"
    assert doc["format_version"] == 1


def test_analyze_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "m": 2, "terms": [{"alpha": [2,0], "beta": [2,0], "re": "1/0"}]}')
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "1/0" in err


def test_analyze_huge_decimal_exponent_is_input_error(capsys, tmp_path):
    bad = tmp_path / "huge.json"
    bad.write_text('{"n": 2, "m": 2, "terms": [{"alpha": [2,0], "beta": [2,0], "re": "1e10000000"}]}')
    start = time.perf_counter()
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 2 and "exponent" in err
    assert time.perf_counter() - start < 1.0


def test_analyze_non_hermitian(capsys, tmp_path):
    bad = tmp_path / "nonherm.json"
    bad.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 2,
                "terms": [
                    {"alpha": [2, 0], "beta": [0, 2], "re": "0", "im": "1"},
                    {"alpha": [0, 2], "beta": [2, 0], "re": "0", "im": "1"},
                ],
            }
        )
    )
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "conjugate" in err and "(2, 0)" in err


def test_certify_roundtrip(capsys, fc1_path, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, ["certify", fc1_path, "1", "--out", cert_path])
    assert code == 0 and "exact-pass" in out
    code, out, _ = run(capsys, ["verify", cert_path])
    assert code == 0 and "exact-pass" in out


def test_certify_not_psd(capsys, fc1_path):
    code, out, _ = run(capsys, ["certify", fc1_path, "0"])
    assert code == 1
    assert "witness support [(1, '1')], value -1" in out
    for mode in ("exact", "float"):
        code, out, _ = run(capsys, ["--json", "certify", fc1_path, "0", "--mode", mode])
        assert code == 1
        assert json.loads(out) == {
            "N": 0, "command": "certify", "format_version": 1, "psd": False, "witness_value": "-1"
        }


def test_certify_not_psd_non_diagonal_witness(capsys, tmp_path):
    # |z1|^4 + |z2|^4 + 3 (z1^2 z̄2^2 + z2^2 z̄1^2): Gram block [[1, 3], [3, 1]] at N = 0
    form = forms.HermitianForm.from_terms(
        2, 2, [((2, 0), (2, 0), 1), ((0, 2), (0, 2), 1), ((2, 0), (0, 2), 3), ((0, 2), (2, 0), 3)]
    )
    path = tmp_path / "indefinite.json"
    formats.save_form(form, path)
    code, out, _ = run(capsys, ["--json", "certify", str(path), "0"])
    assert code == 1
    assert json.loads(out)["witness_value"] == "-8"


def test_certify_size_cap(capsys, fc1_path):
    code, _, err = run(capsys, ["--size-cap", "3", "certify", fc1_path, "5"])
    assert code == 3
    assert "cap" in err


def test_verify_tampered(capsys, fc1_path, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify", fc1_path, "1", "--out", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    doc["squares"][0]["coefficients"][0]["re"] = "17"
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 1 and "fail" in out


@pytest.mark.parametrize(
    "mode, field, value",
    [("exact", "squares", 7), ("exact", "coefficients", 7), ("float", "weight", "abc")],
)
def test_verify_malformed_certificate_is_input_error(capsys, fc1_path, tmp_path, mode, field, value):
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify", fc1_path, "1", "--mode", mode, "--out", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    (doc if field == "squares" else doc["squares"][0])[field] = value
    cert_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", str(cert_path)])
    assert code == 2 and "input error" in err


def _set(path, value):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _form_path(value):
    def mutate(doc):
        del doc["form"]
        doc["form_path"] = value
    return mutate


@pytest.mark.parametrize(
    "mode, mutate",
    [
        ("exact", _form_path(5)),
        ("float", _set(("squares", 0, "weight"), float("nan"))),
        ("float", _set(("squares", 0, "weight"), 10**400)),
        ("float", _set(("squares", 0, "coefficients", 0, "re"), float("inf"))),
        ("float", _set(("squares", 0, "coefficients", 0, "im"), -float("inf"))),
    ],
    ids=["form_path-5", "weight-NaN", "weight-1e400", "re-Infinity", "im--Infinity"],
)
def test_verify_certificate_with_bad_scalar_is_input_error(capsys, fc1_path, tmp_path, mode, mutate):
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify", fc1_path, "1", "--mode", mode, "--out", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    mutate(doc)
    cert_path.write_text(json.dumps(doc))  # NaN and Infinity tokens, which json.loads reads back
    code, _, err = run(capsys, ["verify", str(cert_path)])
    assert code == 2 and "input error" in err


def test_search(capsys, fc1_path):
    code, out, _ = run(capsys, ["search", fc1_path, "--n-max", "10"])
    assert code == 0 and "minimal N = 1" in out


def test_search_not_found(capsys, tmp_path):
    path = tmp_path / "fc2.json"
    formats.save_form(forms.fc_form(2), path)
    code, out, _ = run(capsys, ["search", str(path), "--n-max", "2"])
    assert code == 1 and "no PSD" in out


def test_bounds_table(capsys, fc1_path):
    code, out, _ = run(capsys, ["bounds", fc1_path])
    assert code == 0
    for token in ("empirical minimal", "Powers-Resnick", "To-Yeung", "Nie-Schweighofer"):
        assert token in out
    doc_code, json_out, _ = run(capsys, ["--json", "bounds", fc1_path])
    doc = json.loads(json_out)
    assert doc["empirical_minimal_N"] == 1
    assert doc["powers_resnick_N"] == 3
    assert doc["to_yeung_N"] == 66
    assert doc["certified_N"] == 128


def test_bounds_json_deterministic(capsys, fc1_path):
    _, out1, _ = run(capsys, ["--json", "bounds", fc1_path])
    _, out2, _ = run(capsys, ["--json", "bounds", fc1_path])
    assert out1 == out2


def test_audit_tails(capsys):
    code, out, _ = run(capsys, ["audit", "--suite", "tails", "--rho", "50", "--delta", "0.2"])
    assert code == 0
    assert "[PASS] tail-J" in out


def test_audit_radial(capsys):
    code, out, _ = run(capsys, ["audit", "--suite", "radial", "--M", "10", "--n", "3"])
    assert code == 0 and "radial-I1" in out


def test_audit_localization(capsys):
    code, out, _ = run(
        capsys,
        ["audit", "--suite", "localization", "--N", "320", "--samples", "50000"],
    )
    assert code == 0
    assert "sigma-window" in out and "localization-E" in out and "localization-mc" in out


def test_audit_samples_option_is_honoured(capsys, fc1_path):
    def samples(argv, check):
        code, out, _ = run(capsys, ["--json", "audit", *argv])
        assert code == 0
        return [r["parameters"]["samples"] for r in json.loads(out)["reports"] if r["check"] == check]

    assert samples(["--suite", "localization", "--samples", "10000"], "localization-mc") == [10_000]
    assert samples(["--suite", "localization"], "localization-mc") == [200_000]
    assert samples(["--suite", "laplacian", "--form", fc1_path], "laplacian-power-j0") == [10_000]
    assert samples(["--suite", "laplacian", "--form", fc1_path, "--samples", "500"], "laplacian-power-j0") == [500]


def test_audit_json_is_strict_when_values_overflow(capsys):
    code, out, _ = run(capsys, ["--json", "audit", "--suite", "tails", "--rho", "2000", "--delta", "0.9"])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out, parse_constant=reject)
    tail = next(r for r in doc["reports"] if r["check"] == "tail-J")
    assert tail["ratio"] is None


def test_audit_laplacian_requires_form(capsys):
    code, _, err = run(capsys, ["audit", "--suite", "laplacian"])
    assert code == 2 and "--form" in err


def test_audit_basic_scan(capsys, fc1_path):
    code, out, _ = run(capsys, ["audit", "--suite", "basic", "--form", fc1_path])
    assert code == 0
    assert "empirical-h0" in out and "implied N" in out


def test_audit_basic_single_h(capsys, fc1_path):
    code, out, _ = run(
        capsys, ["audit", "--suite", "basic", "--form", fc1_path, "--h", "0.0009765625"]
    )
    assert code == 0 and "basic-rhs" in out


def test_shipped_samples_parse_and_validate():
    for path in SAMPLES.glob("*.json"):
        form = formats.load_form(path)
        assert forms.validate(form) == []


def test_shipped_fc1_sample(capsys):
    sample = SAMPLES / "fc_1.json"
    code, out, _ = run(capsys, ["search", str(sample), "--n-max", "5"])
    assert code == 0 and "minimal N = 1" in out
