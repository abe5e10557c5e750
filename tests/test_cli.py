import argparse
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hsos import audit, cli, formats, forms, multiplier as mult, spheremin

from conftest import FLOAT_CERTIFICATE, save_form

SAMPLES = Path(__file__).resolve().parent.parent / "sample_forms"
FC1 = str(SAMPLES / "fc_1.json")


@pytest.fixture
def fc1_path(tmp_path):
    path = tmp_path / "fc1.json"
    save_form(forms.fc_form(1), path)
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


def test_analyze_that_does_not_converge_exits_numerical(capsys, fc1_path, monkeypatch):
    descents = spheremin._descents
    monkeypatch.setattr(spheremin, "_descents", lambda form: [replace(r, converged=False) for r in descents(form)])
    code, out, err = run(capsys, ["--json", "analyze", fc1_path])
    assert (code, err) == (cli.EXIT_NUMERICAL, "")
    assert json.loads(out)["converged"] is False


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


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["--json", command, str(deep)])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("input error:")


def test_certify_unprintable_rational_is_input_error_before_assembly(capsys, monkeypatch, tmp_path):
    # 10^4300 has 4301 digits, more than Python's int-string limit lets a writer print
    def assemble(*args, **kwargs):
        raise AssertionError("assembled a form that should not have loaded")

    monkeypatch.setattr(cli.mult, "multiplier_matrix", assemble)
    monkeypatch.setattr(cli.mult, "sos_decompose", assemble)
    for value in ("1e4300", "1e-4300"):
        bad = tmp_path / "big.json"
        bad.write_text('{"n": 2, "m": 2, "terms": [{"alpha": [2,0], "beta": [2,0], "re": "%s"}]}' % value)
        code, out, err = run(capsys, ["--json", "certify", str(bad), "0", "--out", str(tmp_path / "c.json")])
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and value in err and "4300 digits" in err
    assert not (tmp_path / "c.json").exists()


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
    code, out, _ = run(capsys, ["--json", "certify", fc1_path, "0"])
    assert code == 1
    assert json.loads(out) == {"N": 0, "command": "certify", "format_version": 1, "psd": False, "witness_value": "-1"}


def test_certify_not_psd_non_diagonal_witness(capsys, tmp_path):
    # |z1|^4 + |z2|^4 + 3 (z1^2 z̄2^2 + z2^2 z̄1^2): Gram block [[1, 3], [3, 1]] at N = 0
    form = forms.HermitianForm.from_terms(
        2, 2, [((2, 0), (2, 0), 1), ((0, 2), (0, 2), 1), ((2, 0), (0, 2), 3), ((0, 2), (2, 0), 3)]
    )
    path = tmp_path / "indefinite.json"
    save_form(form, path)
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
    [("exact", "squares", 7), ("exact", "coefficients", 7), ("exact", "weight", "abc"), ("float", "weight", "abc"),
     ("exact", "verification", {"status": ["x"], "junk": 1, "residual": "abc"})],
)
def test_verify_malformed_certificate_is_input_error(capsys, fc1_path, tmp_path, mode, field, value):
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify", fc1_path, "1", "--out", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    doc["mode"] = mode  # a file that still says "float" is refused whatever its squares hold
    (doc if field in ("squares", "verification") else doc["squares"][0])[field] = value
    cert_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", str(cert_path)])
    assert code == 2 and "input error" in err


def test_verify_boolean_integer_is_input_error(capsys, fc1_path, tmp_path):
    # Python reads JSON true as 1, so this file once verified with exit 0 and printed "N": true
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify", fc1_path, "1", "--out", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    doc["N"] = doc["format_version"] = True
    cert_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["--json", "verify", str(cert_path)])
    assert code == 2 and out == "" and err == "input error: unsupported format_version True (at certificate)\n"


def test_verify_rejects_certificate_of_another_shape(capsys, tmp_path):
    # one square |z1^2|^2 at (n, m, N) = (2, 2, 0) has the matrix of the embedded |z1|^2 (m = 1); the form fixes
    # the shape, so the header that disagrees with it is an input error, not a failed proof
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(
        json.dumps(
            {
                "n": 2, "m": 2, "N": 0, "mode": "exact",
                "squares": [{"weight": "1", "coefficients": [{"index": [2, 0], "re": "1"}]}],
                "form": {"n": 2, "m": 1, "terms": [{"alpha": [1, 0], "beta": [1, 0], "re": "1"}]},
            }
        )
    )
    code, out, err = run(capsys, ["--json", "verify", str(cert_path)])
    assert (code, out) == (2, "")
    assert err == "input error: (n, m) = (2, 2) is not the embedded form's (2, 1) (at certificate)\n"


def test_verify_refuses_a_certificate_without_its_form(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify", FC1, "1", "--out", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    del doc["form"]
    cert_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["--json", "verify", str(cert_path)])
    assert (code, out, err) == (2, "", "input error: missing field(s) ['form'] (at certificate)\n")
    with pytest.raises(formats.ParseError, match=re.escape("missing field(s) ['form']")):
        formats.certificate_from_dict(doc)


def test_certify_out_in_missing_directory_is_input_error_before_factoring(capsys, monkeypatch, tmp_path):
    def factor(*args, **kwargs):
        raise AssertionError("factored before the output path was checked")

    monkeypatch.setattr(cli.mult, "sos_decompose", factor)
    code, out, err = run(capsys, ["certify", FC1, "1", "--out", str(tmp_path / "missing" / "c.json")])
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "missing" in err and len(err.splitlines()) == 1


def test_unwritable_out_is_input_error(capsys, tmp_path):
    # the directory exists, so the write itself fails: an OSError that main maps to exit 2
    code, _, err = run(capsys, ["certify", FC1, "1", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("input error:") and len(err.splitlines()) == 1


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


def _number(path, token):
    """The bare JSON number `token` where a rational string is required, written in place of a marker."""
    return _set(path, f"<number {token}>")


def _unit_squares_and_term(alpha):
    """Unit squares on the whole degree-3 basis, and |z^alpha|^2 added to the embedded fc_1 form (m = 2).

    A degree-5 alpha's base-4 codes alias onto the basis entries (2, 1) and (1, 2), so an unvalidated
    form makes the matrix the identity, which these squares reproduce; a degree-3 alpha has no code.
    """
    def mutate(doc):
        doc["squares"] = [{"weight": "1", "coefficients": [{"index": [3 - k, k], "re": "1"}]} for k in range(4)]
        doc["form"]["terms"].append({"alpha": alpha, "beta": alpha, "re": "1"})
    return mutate


@pytest.mark.parametrize(
    "mutate, error",
    [
        # form_path, which named the form file in earlier versions, is an unknown field with or without a form
        (_form_path(5), "input error"),
        (_set(("form_path",), str(SAMPLES / "fc_1.json")), "input error"),
        (_set(("form_path",), 5), "input error"),
        (_number(("squares", 0, "weight"), "NaN"), "input error"),
        (_number(("squares", 0, "weight"), "1e400"), "input error"),
        (_number(("squares", 0, "coefficients", 0, "re"), "Infinity"), "input error"),
        (_number(("squares", 0, "coefficients", 0, "im"), "-Infinity"), "input error"),
        (_unit_squares_and_term([0, 5]), "invalid form"),
        (_unit_squares_and_term([3, 0]), "invalid form"),
    ],
    ids=["unknown-form_path-5", "unknown-form_path-beside-form", "unknown-form_path-5-beside-form", "weight-NaN", "weight-1e400", "re-Infinity", "im--Infinity",
         "form-term-of-degree-5", "form-term-of-degree-3"],
)
def test_verify_certificate_with_bad_scalar_is_input_error(capsys, fc1_path, tmp_path, mutate, error):
    cert_path = tmp_path / "cert.json"
    run(capsys, ["certify", fc1_path, "1", "--out", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    mutate(doc)
    cert_path.write_text(re.sub(r'"<number (\S+)>"', r"\1", json.dumps(doc)))  # tokens json.loads reads as floats
    code, out, err = run(capsys, ["verify", str(cert_path)])
    assert (code, out) == (2, "") and err.startswith(f"{error}:") and len(err.splitlines()) == 1


def test_float_certificate_and_float_mode_are_input_errors(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(FLOAT_CERTIFICATE))
    code, _, err = run(capsys, ["verify", str(cert_path)])
    assert code == 2 and err == "input error: mode must be 'exact', got 'float' (at certificate)\n"
    with pytest.raises(SystemExit) as info:
        cli.main(["certify", FC1, "1", "--mode", "float"])
    assert info.value.code == 2 and "unrecognized arguments: --mode float" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["certify", FC1, "-1"], 2),
        (["bounds", FC1, "--C", "nan"], 2),
        (["bounds", FC1, "--C", "inf"], 2),
        (["bounds", FC1, "--C", "1e400"], 2),  # overflows to inf
        (["bounds", FC1, "--C", "-1"], 2),
        (["audit", "--suite", "radial", "--M", "-1"], 2),
        (["audit", "--suite", "tails", "--rho", "-1"], 2),
        (["audit", "--suite", "radial", "--h", "0"], 2),
        (["audit", "--suite", "localization", "--N", "0"], 2),
        (["audit", "--suite", "localization", "--N", "-5"], 2),
        (["audit", "--suite", "localization", "--N", "0", "--h", "0.1", "--samples", "1000"], 1),  # h is not derived
        (["audit", "--suite", "localization", "--h", "-1"], 2),
        (["audit", "--suite", "localization", "--epsilon", "0", "--samples", "1000"], 1),  # outside the window
        (["search", FC1, "--n-max", "-1"], 2),
        (["bounds", FC1, "--n-max", "-1"], 2),
        (["audit", "--suite", "localization", "--samples", "0"], 2),
        (["audit", "--suite", "laplacian", "--form", FC1, "--samples", "0"], 2),
        (["--size-cap", "0", "search", FC1, "--n-max", "3"], 2),
        (["--size-cap", "-5", "search", FC1, "--n-max", "3"], 2),
        (["--size-cap", "0", "certify", FC1, "1"], 2),
        (["audit", "--suite", "basic", "--form", FC1, "--h", "0"], 2),
        (["audit", "--suite", "localization", "--h", "-1", "--epsilon", "0.3"], 2),
        (["audit", "--suite", "radial", "--h", "nan"], 2),
        # radial reads no --h; localization does, so these reach h's range and finiteness checks
        (["audit", "--suite", "localization", "--h", "0"], 2),
        (["audit", "--suite", "localization", "--h", "nan"], 2),
        (["audit", "--suite", "localization", "--epsilon", "nan"], 2),
        (["audit", "--suite", "tails", "--delta", "inf"], 2),
        (["audit", "--suite", "localization", "--samples", "1"], 2),  # a standard error needs two samples
        (["audit", "--suite", "laplacian", "--form", FC1, "--samples", "1"], 0),  # a maximum does not
        (["audit", "--suite", "localization", "--m", "-1"], 2),
        (["audit", "--suite", "localization", "--h", "0.01", "--N", "-4"], 2),
        (["audit", "--suite", "localization", "--n", "0"], 2),
        (["audit", "--suite", "basic", "--form", FC1, "--h", "0.001", "--N", "-3"], 2),
        (["bounds", FC1, "--C", "1e-10"], 2),  # below the 1e-9 resolution, not C = 0
        (["bounds", FC1, "--C", "0"], 2),  # a degenerate constant, refused by bound_report
        # a negative float in exponent form, or -inf, is a value, not an unknown option
        (["audit", "--suite", "localization", "--h", "-1e-3"], 2),
        (["bounds", FC1, "--C", "-1e-3"], 2),
        (["audit", "--suite", "tails", "--rho", "-1e-3"], 2),
        (["audit", "--suite", "tails", "--delta", "-1E-3"], 2),
        (["audit", "--suite", "localization", "--epsilon", "-inf"], 2),
        # without --h the basic suite scans for h0, which reads neither --N nor --epsilon
        (["audit", "--suite", "basic", "--form", FC1, "--N", "5"], 2),
        (["audit", "--suite", "basic", "--form", FC1, "--epsilon", "0.5"], 2),
    ],
    ids=[
        "certify-N-1", "C-nan", "C-inf", "C-1e400", "C-1", "radial-M-1", "tails-rho-1",
        "radial-h0", "localization-N0", "localization-N-5", "localization-N0-h", "localization-h-1", "localization-eps0",
        "search-n-max-1", "bounds-n-max-1", "localization-samples0", "laplacian-samples0",
        "size-cap0", "size-cap-5", "certify-size-cap0", "basic-h0",
        "localization-h-1-eps", "radial-h-nan", "localization-h0", "localization-h-nan", "localization-eps-nan", "tails-delta-inf",
        "localization-samples1", "laplacian-samples1", "localization-m-1", "localization-N-4",
        "localization-n0", "basic-N-3", "C-1e-10", "C-0",
        "localization-h-1e-3", "C-negative-1e-3", "tails-rho-1e-3", "tails-delta-1E-3", "localization-eps-inf",
        "basic-N-without-h", "basic-eps-without-h",
    ],
)
def test_invalid_arguments_reach_the_validators(monkeypatch, capsys, argv, expected):
    descents = []
    descend = spheremin._pgd_batch
    monkeypatch.setattr(spheremin, "_pgd_batch", lambda *a: descents.append(a) or descend(*a))
    code, _, err = run(capsys, argv)
    assert code == expected
    if expected == 2:  # one line, no traceback, and no sphere pass before the argument is rejected
        assert err.startswith("invalid argument: ") and err.count("\n") == 1
        assert descents == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", FC1, "--C", "nan"], "--C must be finite, got nan"),
        (["bounds", FC1, "--C", "1e400"], "--C must be finite, got inf"),
        # without --h, h = 1/N is derived: the error names --N, not h or a division by zero
        (["audit", "--suite", "localization", "--N", "0"], "--N must be at least 1 when --h is not given, got 0"),
        (["audit", "--suite", "localization", "--N", "-5"], "--N must be at least 1 when --h is not given, got -5"),
        (["audit", "--suite", "all", "--N", "0"], "--N must be at least 1 when --h is not given, got 0"),
    ],
    ids=["C-nan", "C-1e400", "localization-N0", "localization-N-5", "all-N0"],
)
def test_invalid_arguments_name_the_option_the_user_set(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"invalid argument: {message}\n")


def test_a_radial_quadrature_that_does_not_converge_prints_one_stderr_line():
    # scipy's IntegrationWarning would print several lines to stderr before hsos's own
    argv = ["-m", "hsos.cli", "--json", "audit", "--suite", "radial", "--M", "1000000000"]
    env = dict(os.environ, PYTHONPATH=str(SAMPLES.parent / "src"))
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr.startswith("numerical non-convergence: radial quadrature error") and out.stderr.count("\n") == 1


def test_argparse_reads_the_negative_number_matcher_the_parsers_set():
    # build_parser sets argparse's private `_negative_number_matcher`; fail here if argparse renames it or
    # stops reading it, rather than `--h -1e-3` quietly falling back to "expected one argument"
    parser = argparse.ArgumentParser()
    assert hasattr(parser, "_negative_number_matcher")
    parser._negative_number_matcher = cli._NEGATIVE_NUMBER
    parser.add_argument("--x", type=float)
    assert parser.parse_args(["--x", "-1e-3"]).x == -1e-3
    top = cli.build_parser()
    assert top._negative_number_matcher is cli._NEGATIVE_NUMBER
    (subcommands,) = top._subparsers._group_actions
    assert all(p._negative_number_matcher is cli._NEGATIVE_NUMBER for p in subcommands.choices.values())


def test_negative_epsilon_in_exponent_form_is_read_as_its_decimal_form(capsys):
    # ε <= 0 fails the σ-window (exit 1) rather than being an invalid argument, as ε = 0 does
    argv = ["audit", "--suite", "localization", "--samples", "1000", "--epsilon"]
    assert run(capsys, argv + ["-1e-3"]) == run(capsys, argv + ["-0.001"])
    assert run(capsys, argv + ["-1e-3"])[0] == 1


def _scipy_modules_after(argvs):
    """The scipy modules loaded by one fresh process that runs each `hsos --json` argv in turn."""
    code = (
        "import json, sys; from hsos import cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(['--json', *argv]) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SAMPLES.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_exact_commands_load_no_scipy(tmp_path):
    cert = str(tmp_path / "cert.json")
    assert _scipy_modules_after([["search", FC1], ["certify", FC1, "1", "--out", cert], ["verify", cert]]) == []


def test_only_the_radial_audit_loads_scipy():
    numeric = [
        ["analyze", FC1],
        ["bounds", FC1],
        ["audit", "--suite", "basic", "--form", FC1],
        ["audit", "--suite", "laplacian", "--form", FC1],
        ["audit", "--suite", "localization"],
        ["audit", "--suite", "tails"],
        ["audit", "--suite", "tails", "--rho", "2000", "--delta", "0.9"],
    ]
    assert _scipy_modules_after(numeric) == []
    # audit.radial_I1's adaptive quadrature is the one remaining scipy call site
    assert "scipy.integrate" in _scipy_modules_after([["audit", "--suite", "radial"]])


def test_search(capsys, fc1_path):
    code, out, _ = run(capsys, ["search", fc1_path, "--n-max", "10"])
    assert code == 0 and "minimal N = 1" in out


def test_search_not_found(capsys, tmp_path):
    path = tmp_path / "fc2.json"
    save_form(forms.fc_form(2), path)
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


def test_bounds_cross_check_that_fails_exits_negative(capsys):
    # C = 1/1000 puts the semiclassical bound at 1, below fc(7/4)'s empirical minimal shift 13
    code, out, _ = run(capsys, ["bounds", str(SAMPLES / "fc_7_4.json"), "--n-max", "20", "--C", "0.001"])
    assert code == 1
    assert out.splitlines()[-1] == "cross-checks: FAILED: ['empirical_le_certified']"


def test_bounds_table_shows_an_overflowing_bound(capsys, tmp_path):
    path = tmp_path / "fc31_16.json"
    save_form(forms.fc_form(Fraction(31, 16)), path)
    code, out, _ = run(capsys, ["bounds", str(path), "--n-max", "0"])
    assert code == 0
    (row,) = [line for line in out.splitlines() if line.startswith("Nie-Schweighofer")]
    assert row.split() == ["Nie-Schweighofer", "overflow"]


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


def test_audit_localization_outside_the_window(capsys):
    # sigma_k = 0.2 (7 + k + 1) >= 1.6: each localization-E report fails with the window's notes
    code, out, _ = run(capsys, ["audit", "--suite", "localization", "--N", "5", "--samples", "1000"])
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL] localization-E:")]
    assert failed == [
        "[FAIL] localization-E: lhs=nan rhs=nan ratio=nan window violated: sigma window fails at "
        f"(h=0.2, M=7, k={k}): sigma_k={sigma}, eps=0.5848035476425733"
        for k, sigma in enumerate(["1.6000", "1.8000", "2.0000"])
    ]


# the audit options each suite reads; --suite all reads every one
SUITE_READS = {
    "laplacian": {"form", "samples"},
    "radial": {"M", "n"},
    "tails": {"rho", "delta"},
    "localization": {"h", "epsilon", "N", "k", "m", "n", "samples"},
    "basic": {"form", "h", "epsilon", "N"},
}


def test_audit_suites_refuse_every_option_they_do_not_read(monkeypatch, capsys):
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {a.dest for a in sub.choices["audit"]._actions if a.option_strings} - {"help", "suite"}
    assert set().union(*SUITE_READS.values()) == options  # a new audit option must be given its suites
    descents = []
    descend = spheremin._pgd_batch
    monkeypatch.setattr(spheremin, "_pgd_batch", lambda *a: descents.append(a) or descend(*a))
    for suite, reads in SUITE_READS.items():
        for name in sorted(options - reads):
            argv = ["audit", "--suite", suite, f"--{name}", FC1 if name == "form" else "5"]
            code, out, err = run(capsys, argv + (["--form", FC1] if "form" in reads else []))
            assert (code, out, err) == (2, "", f"invalid argument: --suite {suite} does not read --{name}\n"), argv
    assert descents == []


# for each audit option, the value a suite is run with and another; the suites run small
FC3_2 = str(SAMPLES / "fc_3_2.json")
SUITE_BASE = {
    "laplacian": {"form": FC1, "samples": "200"},
    "radial": {"M": "1", "n": "1"},
    "tails": {"rho": "5", "delta": "0.1"},
    "localization": {"samples": "1000"},
    "basic": {"form": FC1, "h": "0.01"},  # with --h, basic also reads --N and --epsilon
}
OTHER_VALUE = {
    "form": FC3_2, "samples": "300", "M": "2", "n": "3", "rho": "10", "delta": "0.3",
    "h": "0.005", "epsilon": "0.4", "N": "50", "k": "1", "m": "3",
}


def test_every_option_an_audit_suite_reads_changes_its_output(capsys):
    def audit_run(suite, options):
        argv = ["--json", "audit", "--suite", suite, *(a for name, v in options.items() for a in (f"--{name}", v))]
        code, out, err = run(capsys, argv)
        assert err == "", argv
        return code, json.loads(out) if out else None

    assert cli._SUITE_OPTIONS.keys() == SUITE_BASE.keys()
    for suite, reads in cli._SUITE_OPTIONS.items():
        base = SUITE_BASE[suite]
        assert base.keys() <= set(reads)
        first = audit_run(suite, base)
        for name in reads:
            assert audit_run(suite, {**base, name: OTHER_VALUE[name]}) != first, (suite, name)


def test_seed_is_a_usage_error(capsys):
    for argv in (["--seed", "3", "search", FC1], ["search", FC1, "--seed", "3"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2 and "hsos: error:" in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv", [["analyze", FC1], ["audit", "--suite", "tails"]], ids=["analyze", "audit"])
def test_size_cap_is_refused_where_no_matrix_is_assembled(capsys, argv):
    code, out, err = run(capsys, ["--size-cap", "1", *argv])
    assert (code, out, err) == (2, "", f"invalid argument: {argv[0]} does not read --size-cap\n")


def test_out_of_memory_is_a_resource_cap(capsys, monkeypatch):
    def exhaust(path):
        raise MemoryError

    monkeypatch.setattr(formats, "load_form", exhaust)
    code, out, err = run(capsys, ["--json", "analyze", FC1])
    assert (code, out, err) == (3, "", "resource cap: out of memory\n")


def test_audit_samples_option_is_honoured(capsys, monkeypatch, fc1_path):
    def samples(argv, check):
        code, out, _ = run(capsys, ["--json", "audit", *argv])
        assert code == 0
        return [r["parameters"]["samples"] for r in json.loads(out)["reports"] if r["check"] == check]

    assert samples(["--suite", "localization", "--samples", "10000"], "localization-mc") == [10_000]
    assert samples(["--suite", "localization"], "localization-mc") == [200_000]
    assert samples(["--suite", "laplacian", "--form", fc1_path], "laplacian-power-j0") == [10_000]
    assert samples(["--suite", "laplacian", "--form", fc1_path, "--samples", "500"], "laplacian-power-j0") == [500]

    # both suites draw at most 2 000 000 points; the stand-in sampler keeps the laplacian run small
    monkeypatch.setattr(audit, "unit_sphere_chunks", lambda n, count: spheremin.unit_sphere_chunks(n, 100))
    assert samples(["--suite", "laplacian", "--form", fc1_path, "--samples", "3000000"], "laplacian-power-j0") == [2_000_000]


def test_audit_json_is_strict_when_values_overflow(capsys):
    code, out, _ = run(capsys, ["--json", "audit", "--suite", "tails", "--rho", "2000", "--delta", "0.9"])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out, parse_constant=reject)
    tail = next(r for r in doc["reports"] if r["check"] == "tail-J")
    assert tail["ratio"] is None


def test_audit_tails_that_do_not_converge_exit_numerical(capsys):
    # ρ beyond 2^53: the incomplete gamma series cannot converge
    code, out, err = run(capsys, ["audit", "--suite", "tails", "--rho", "1e17", "--delta", "1e-9"])
    assert code == cli.EXIT_NUMERICAL and out == ""
    assert err.startswith("numerical non-convergence: ") and err.count("\n") == 1


def test_radial_quadrature_that_does_not_converge_exits_numerical(capsys, monkeypatch):
    from scipy import integrate

    monkeypatch.setattr(integrate, "quad", lambda f, a, b, **kwargs: (1.0, 1e-3))  # error estimate above 1e-8
    code, out, err = run(capsys, ["audit", "--suite", "radial", "--M", "0", "--n", "1"])
    assert code == cli.EXIT_NUMERICAL and out == ""
    assert err.startswith("numerical non-convergence: ") and err.count("\n") == 1


def test_audit_laplacian_requires_form(capsys):
    code, _, err = run(capsys, ["audit", "--suite", "laplacian"])
    assert code == 2 and "--form" in err


def test_audit_basic_scan(capsys, fc1_path):
    code, out, _ = run(capsys, ["audit", "--suite", "basic", "--form", fc1_path])
    assert code == 0
    assert "empirical-h0" in out and "implied N" in out


def test_audit_basic_scan_without_a_positive_lambda_is_a_failed_check(capsys, tmp_path):
    # fc_3 has λ = -1/4: the h0 scan stops before its grid
    path = tmp_path / "fc3.json"
    save_form(forms.fc_form(3), path)
    code, out, err = run(capsys, ["audit", "--suite", "basic", "--form", str(path)])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[FAIL] empirical-h0: lhs=nan rhs=0.000000e+00 ratio=nan "
        "no positive RHS (lambda <= 0: leading term cannot be positive)",
        "0/1 checks passed",
    ]


def test_audit_basic_single_h(capsys, fc1_path):
    code, out, _ = run(
        capsys, ["audit", "--suite", "basic", "--form", fc1_path, "--h", "0.0009765625"]
    )
    assert code == 0 and "basic-rhs" in out


_OFF_WINDOW = ["--h", "0.003125", "--epsilon", "0.01", "--samples", "1000"]  # 4(sigma_k - 1) > eps at every k


def test_audit_basic_outside_the_window_is_a_failed_check(capsys):
    # the basic suite reads no --samples
    code, out, err = run(capsys, ["audit", "--suite", "basic", "--form", FC1, *_OFF_WINDOW[:4]])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[FAIL] basic-rhs: lhs=nan rhs=nan ratio=nan window violated: sigma window fails at "
        "(h=0.003125, M=322, k=0): sigma_k=1.0094, eps=0.01",
        "0/1 checks passed",
    ]


def test_audit_all_outside_the_window_prints_every_suite(capsys):
    code, out, err = run(capsys, ["--json", "audit", "--suite", "all", "--form", FC1, *_OFF_WINDOW])
    assert (code, err) == (1, "")
    reports = json.loads(out)["reports"]
    checks = {r["check"] for r in reports}
    for check in ("laplacian-power-j0", "radial-I1", "tail-J", "sigma-window", "localization-E", "localization-mc"):
        assert check in checks
    (basic,) = [r for r in reports if r["check"] == "basic-rhs"]
    assert not basic["pass"] and basic["lhs"] is None and basic["notes"].startswith("window violated: ")


@pytest.mark.parametrize("fault", ["truncated", "missing", "duplicate-index"])
def test_unreadable_inputs_are_input_errors(capsys, tmp_path, fault):
    path = tmp_path / "input.json"
    if fault == "truncated":
        path.write_text('{"n": 2, "m": 2, "terms": [')
        argv, message = ["analyze", str(path)], f"invalid JSON in {path}: line 1 col 28"
    elif fault == "missing":
        argv, message = ["analyze", str(path)], f"cannot read {path}: "
    else:  # a square that lists the index (3, 0) twice
        formats.save_certificate(mult.sos_decompose(forms.fc_form(1), 1), path, form=forms.fc_form(1))
        doc = json.loads(path.read_text())
        coefficients = doc["squares"][0]["coefficients"]
        assert coefficients[0]["index"] == [3, 0]
        coefficients.append(dict(coefficients[0]))
        path.write_text(json.dumps(doc))
        argv, message = ["verify", str(path)], "duplicate index (3, 0) (at squares[0].coefficients[1])"
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"input error: {message}")


def test_shipped_samples_parse_and_validate():
    for path in SAMPLES.glob("*.json"):
        form = formats.load_form(path)  # built, so checked: real of bidegree (m, m)
        assert formats.form_from_dict(formats.form_to_dict(form)) == form


_INVALID_FORMS = {
    "non-hermitian": [{"alpha": [2, 0], "beta": [2, 0], "re": "1"}, {"alpha": [2, 0], "beta": [0, 2], "re": "1"}],
    "wrong-degree": [{"alpha": [2, 0], "beta": [2, 0], "re": "1"}, {"alpha": [0, 5], "beta": [0, 5], "re": "1"}],
}


@pytest.mark.parametrize("kind", sorted(_INVALID_FORMS))
@pytest.mark.parametrize("argv", [
    ["analyze", "{form}"],
    ["search", "{form}"],
    ["certify", "{form}", "1"],
    ["bounds", "{form}"],
    ["audit", "--suite", "basic", "--form", "{form}"],
    ["audit", "--suite", "laplacian", "--form", "{form}"],
    ["audit", "--suite", "radial", "--form", "{form}"],
    ["verify", "{cert}"],
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("{")))
def test_every_form_reading_command_refuses_an_invalid_form(capsys, tmp_path, kind, argv):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "m": 2, "terms": _INVALID_FORMS[kind]}))
    cert = tmp_path / "cert.json"  # a valid certificate of fc_1 with the invalid form embedded in its place
    formats.save_certificate(mult.sos_decompose(forms.fc_form(1), 1), cert, form=forms.fc_form(1))
    cert.write_text(json.dumps({**json.loads(cert.read_text()), "form": json.loads(form.read_text())}))
    code, out, err = run(capsys, [a.format(form=form, cert=cert) for a in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("invalid form: ")


def test_shipped_fc1_sample(capsys):
    sample = SAMPLES / "fc_1.json"
    code, out, _ = run(capsys, ["search", str(sample), "--n-max", "5"])
    assert code == 0 and "minimal N = 1" in out
