import cmath
import copy
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hsos import formats, forms, multiplier as mult
from hsos.exact import qc

from conftest import random_hermitian_form, ridge_form


def test_parse_rational():
    assert formats.parse_rational("3/7") == Fraction(3, 7)
    assert formats.parse_rational("-2") == -2
    assert formats.parse_rational(5) == 5
    assert formats.parse_rational("0.5") == Fraction(1, 2)
    assert formats.parse_rational("1.25e2") == 125
    assert formats.parse_rational("1e4300") == 10**4300
    assert formats.parse_rational("1E-4300") == Fraction(1, 10**4300)


def test_parse_rational_rejects():
    with pytest.raises(formats.ParseError):
        formats.parse_rational("1/0")
    with pytest.raises(formats.ParseError):
        formats.parse_rational("abc")
    with pytest.raises(formats.ParseError):
        formats.parse_rational(0.5)
    for huge in ("1e4301", "2.5E-4301", "1e10000000"):
        with pytest.raises(formats.ParseError, match="exponent"):
            formats.parse_rational(huge)


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


# ---------------------------------------------------------------------------
# parser fuzz: malformed documents raise only ParseError or FormError
# ---------------------------------------------------------------------------

_SAMPLE_FORM = Path(__file__).resolve().parent.parent / "sample_forms" / "fc_1.json"


def _valid_documents() -> list[tuple[str, dict]]:
    fc1 = forms.fc_form(1)
    ridge = ridge_form()
    by_path = formats.certificate_to_dict(mult.sos_decompose(fc1, 1))
    by_path["form_path"] = str(_SAMPLE_FORM)
    return [
        ("form", formats.form_to_dict(fc1)),
        ("form", formats.form_to_dict(forms.add_forms(ridge, random_hermitian_form(random.Random(3), 2, 2)))),
        ("certificate", formats.certificate_to_dict(mult.sos_decompose(ridge, 0), ridge)),
        ("certificate", formats.certificate_to_dict(mult.sos_decompose(fc1, 1, mode="float"), fc1)),
        ("certificate", by_path),
    ]


_DOCUMENTS = _valid_documents()
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "1/0", "nan", "Infinity", "abc", "2", "\x00", "-1"]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["x", "n", "re"]), st.integers(0, 2), max_size=2),
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    """A valid form or certificate with 1-3 edits: a value replaced by junk, a key or
    list element removed, or an unknown key added."""
    kind, doc = draw(st.sampled_from(_DOCUMENTS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_JUNK) if draw(st.booleans()) else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JUNK)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["unexpected"] = draw(_JUNK)
        if not isinstance(doc, (dict, list)):
            break
    return kind, doc


def _parse(kind, doc):
    return (formats.form_from_dict if kind == "form" else formats.certificate_from_dict)(doc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mutated_documents())
@example(("certificate", {**_DOCUMENTS[4][1], "form_path": 5}))
@example(("certificate", {**_DOCUMENTS[4][1], "form_path": "\x00"}))
@example(("certificate", {**_DOCUMENTS[3][1], "squares": [{**_DOCUMENTS[3][1]["squares"][0], "weight": float("nan")}]}))
def test_malformed_documents_raise_only_input_errors(case):
    kind, doc = case
    try:
        parsed = _parse(kind, doc)
    except (formats.ParseError, forms.FormError):
        return
    if kind == "certificate" and parsed[0].mode == "float":  # what parses is usable: finite numbers
        for sq in parsed[0].squares:
            assert 0 < sq.weight < math.inf
            assert all(cmath.isfinite(c) for c in sq.coefficients.values())


def test_bad_form_path_and_non_finite_weight_are_parse_errors():
    float_doc = _DOCUMENTS[3][1]
    bad = [{**_DOCUMENTS[4][1], "form_path": value} for value in (5, None, ["a"], "\x00")]
    bad += [{**float_doc, "squares": [{**float_doc["squares"][0], "weight": w}]} for w in (float("nan"), float("inf"), 10**400)]
    for doc in bad:
        with pytest.raises(formats.ParseError):
            formats.certificate_from_dict(doc)
