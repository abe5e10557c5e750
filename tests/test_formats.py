from fractions import Fraction

import pytest

from hsos import formats, forms, multiplier as mult
from hsos.exact import qc

from conftest import ridge_form


def test_parse_rational():
    assert formats.parse_rational("3/7") == Fraction(3, 7)
    assert formats.parse_rational("-2") == -2
    assert formats.parse_rational(5) == 5
    assert formats.parse_rational("0.5") == Fraction(1, 2)
    assert formats.parse_rational("1.25e2") == 125


def test_parse_rational_rejects():
    with pytest.raises(formats.ParseError):
        formats.parse_rational("1/0")
    with pytest.raises(formats.ParseError):
        formats.parse_rational("abc")
    with pytest.raises(formats.ParseError):
        formats.parse_rational(0.5)


def test_form_roundtrip_identity():
    f = ridge_form()
    doc = formats.form_to_dict(f)
    g = formats.form_from_dict(doc)
    assert g.coeffs == f.coeffs and (g.n, g.m) == (f.n, f.m)
    assert formats.form_to_dict(g) == doc  # canonical term order is stable


def test_form_roundtrip_through_file(tmp_path):
    f = forms.fc_form(Fraction(3, 2))
    path = tmp_path / "f.json"
    formats.save_form(f, path)
    assert formats.load_form(path).coeffs == f.coeffs
    # byte-stable on rewrite
    text = path.read_text()
    formats.save_form(formats.load_form(path), path)
    assert path.read_text() == text


def test_form_complex_coefficients_roundtrip():
    f = forms.HermitianForm.from_terms(
        2,
        1,
        [((1, 0), (0, 1), qc(Fraction(1, 3), Fraction(-2, 7))),
         ((0, 1), (1, 0), qc(Fraction(1, 3), Fraction(2, 7)))],
    )
    assert formats.form_from_dict(formats.form_to_dict(f)).coeffs == f.coeffs


def test_form_rejects_unknown_field():
    doc = formats.form_to_dict(forms.fc_form(1))
    doc["extra"] = 1
    with pytest.raises(formats.ParseError, match="unknown"):
        formats.form_from_dict(doc)
    doc2 = formats.form_to_dict(forms.fc_form(1))
    doc2["terms"][0]["weight"] = "1"
    with pytest.raises(formats.ParseError, match="unknown"):
        formats.form_from_dict(doc2)


def test_form_rejects_duplicate_keys():
    doc = formats.form_to_dict(forms.fc_form(1))
    doc["terms"].append(dict(doc["terms"][0]))
    with pytest.raises(formats.ParseError, match="duplicate"):
        formats.form_from_dict(doc)


def test_form_rejects_bad_indices():
    doc = {
        "n": 2,
        "m": 1,
        "terms": [{"alpha": [1], "beta": [0, 1], "re": "1"}],
    }
    with pytest.raises(formats.ParseError, match="length"):
        formats.form_from_dict(doc)


def test_non_hermitian_parses_but_fails_validation():
    doc = {
        "n": 2,
        "m": 2,
        "terms": [{"alpha": [2, 0], "beta": [0, 2], "re": "0", "im": "1"},
                  {"alpha": [0, 2], "beta": [2, 0], "re": "0", "im": "1"}],
    }
    f = formats.form_from_dict(doc)
    problems = forms.validate(f)
    assert any(isinstance(p, forms.SymmetryViolation) for p in problems)


def test_certificate_roundtrip_exact(tmp_path):
    f = forms.fc_form(1)
    cert = mult.sos_decompose(f, 1)
    path = tmp_path / "cert.json"
    formats.save_certificate(cert, path, form=f)
    loaded, embedded = formats.load_certificate(path)
    assert embedded is not None and embedded.coeffs == f.coeffs
    assert loaded.N == 1 and loaded.mode == "exact"
    assert mult.verify_certificate(embedded, loaded) == ("exact-pass", 0.0)
    # bit-exact: squares agree coefficientwise
    assert len(loaded.squares) == len(cert.squares)
    for a, b in zip(loaded.squares, cert.squares):
        assert a.weight == b.weight and a.coefficients == b.coefficients


def test_certificate_roundtrip_float(tmp_path):
    f = forms.fc_form(1)
    cert = mult.sos_decompose(f, 1, mode="float")
    path = tmp_path / "cert.json"
    formats.save_certificate(cert, path, form=f)
    loaded, embedded = formats.load_certificate(path)
    status, residual = mult.verify_certificate(embedded, loaded)
    assert status == "float-pass" and residual <= 1e-10
    for a, b in zip(loaded.squares, cert.squares):
        assert a.weight == b.weight and a.coefficients == b.coefficients


def test_certificate_rejects_wrong_degree():
    doc = {
        "n": 2,
        "m": 2,
        "N": 1,
        "mode": "exact",
        "squares": [
            {"weight": "1", "coefficients": [{"index": [1, 0], "re": "1", "im": "0"}]}
        ],
    }
    with pytest.raises(formats.ParseError, match="degree"):
        formats.certificate_from_dict(doc)


def test_certificate_rejects_nonpositive_weight():
    doc = {
        "n": 2,
        "m": 2,
        "N": 0,
        "mode": "exact",
        "squares": [
            {"weight": "0", "coefficients": [{"index": [2, 0], "re": "1", "im": "0"}]}
        ],
    }
    with pytest.raises(formats.ParseError, match="positive"):
        formats.certificate_from_dict(doc)


def test_stable_dump_is_deterministic():
    f = ridge_form()
    assert formats.dumps_stable(formats.form_to_dict(f)) == formats.dumps_stable(
        formats.form_to_dict(ridge_form())
    )


def test_stable_dump_rejects_non_finite_numbers():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            formats.dumps_stable({"x": bad})
