import copy
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hsos import formats, forms, multiindex as mi, multiplier as mult
from hsos.exact import qc

from conftest import FLOAT_CERTIFICATE, add_forms, random_hermitian_form, ridge_form, save_form

_SAMPLES = sorted((Path(__file__).resolve().parent.parent / "sample_forms").glob("*.json"))


def test_parse_rational():
    assert formats.parse_rational("3/7") == Fraction(3, 7)
    assert formats.parse_rational("-2") == -2
    assert formats.parse_rational(5) == 5
    assert formats.parse_rational("0.5") == Fraction(1, 2)
    assert formats.parse_rational("1.25e2") == 125
    assert formats.parse_rational("1e4299") == 10**4299
    assert formats.parse_rational("1E-4299") == Fraction(1, 10**4299)
    assert formats.parse_rational("-" + "9" * 4300 + "e0") == 1 - 10**4300  # 4300 digits, the most a writer prints


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


@pytest.mark.parametrize("text, value", [
    ("1_000", None),  # int() and Fraction() read underscores on Python 3.11 on, not on 3.10
    ("\u0661/\u0662", None),  # Arabic-Indic digits, which int() reads as 1/2
    ("3/06", Fraction(1, 2)),
    ("-0", 0),
    ("+3", 3),
    (" 3/6 ", Fraction(1, 2)),
    (".5", None),  # a decimal starts with a digit
    ("1/0", None),
    ("1e4301", None),
    ("-2.50E-1", Fraction(-1, 4)),
    ("7.", 7),
    ("1/-2", None),
    ("1/2e3", None),
    ("", None),
    ("1e4300", None),  # 4301 digits, more than Python's int-string limit lets a writer print
    ("1e-4300", None),
    ("-1e4300", None),
    ("100e4298", None),
    ("1e4299", Fraction(10**4299)),
    ("10e-4300", Fraction(1, 10**4299)),  # the bound holds in lowest terms
])
def test_rational_grammar(text, value):
    if value is None:
        with pytest.raises(formats.ParseError, match="malformed rational"):
            formats.parse_rational(text)
    else:
        assert formats.parse_rational(text) == value


def test_form_roundtrip_identity():
    f = ridge_form()
    doc = formats.form_to_dict(f)
    g = formats.form_from_dict(doc)
    assert g.coeffs == f.coeffs and (g.n, g.m) == (f.n, f.m)
    assert formats.form_to_dict(g) == doc  # canonical term order is stable


def test_form_roundtrip_through_file(tmp_path):
    f = forms.fc_form(Fraction(3, 2))
    path = tmp_path / "f.json"
    save_form(f, path)
    assert formats.load_form(path).coeffs == f.coeffs
    # byte-stable on rewrite
    text = path.read_text()
    save_form(formats.load_form(path), path)
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


def _form_by_from_terms(doc: dict) -> forms.HermitianForm:
    """The form HermitianForm.from_terms builds from a form document's terms."""
    value = formats.parse_rational
    return forms.HermitianForm.from_terms(doc["n"], doc["m"], [
        (term["alpha"], term["beta"], qc(value(term["re"]), value(term.get("im", "0")))) for term in doc["terms"]])


_term_values = st.one_of(st.integers(-3, 3), st.sampled_from(["0", "-0", "0/5", "1/2", "3/06", "0.5", "-1.25e1", "+2"]))


@st.composite
def _form_documents(draw):
    """Form documents with distinct keys in any order, zero coefficients, and "im" given or left out.

    Half of them give each term's conjugate as well, so the form is hermitian; the rest mostly are not.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    basis = list(mi.iter_degree(n, m))
    hermitian, terms = draw(st.booleans()), {}
    for a, b in draw(st.lists(st.tuples(st.sampled_from(basis), st.sampled_from(basis)), unique=True, max_size=8)):
        if hermitian and (b, a) in terms:
            continue
        term = {"alpha": list(a), "beta": list(b), "re": draw(_term_values)}
        if draw(st.booleans()) and not (hermitian and a == b):
            term["im"] = draw(_term_values)
        terms[(a, b)] = term
        if hermitian and a != b:
            terms[(b, a)] = {**term, "alpha": list(b), "beta": list(a)}
            if "im" in term:
                terms[(b, a)]["im"] = str(-formats.parse_rational(term["im"]))
    return {"n": n, "m": m, "terms": list(terms.values())}


def _built(build, doc: dict):
    """The form build makes of doc, or the type and message of the FormError it raises."""
    try:
        return build(doc)
    except forms.FormError as exc:
        return type(exc), str(exc)


def _assert_read_as_by_from_terms(doc: dict) -> None:
    form, reference = _built(formats.form_from_dict, doc), _built(_form_by_from_terms, doc)
    assert form == reference
    if isinstance(form, forms.HermitianForm):
        assert list(form.coeffs.items()) == list(reference.coeffs.items())  # term order, zeros left out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_form_documents())
def test_form_reader_builds_the_from_terms_form(doc):
    _assert_read_as_by_from_terms(doc)


@pytest.mark.parametrize("path", _SAMPLES, ids=lambda p: p.stem)
def test_form_reader_builds_the_from_terms_form_on_sample_forms(path):
    _assert_read_as_by_from_terms(json.loads(path.read_text()))


def test_non_hermitian_parses_but_fails_validation():
    # every term is well formed, so the reader gets as far as building the form, which refuses it
    doc = {
        "n": 2,
        "m": 2,
        "terms": [{"alpha": [2, 0], "beta": [0, 2], "re": "0", "im": "1"},
                  {"alpha": [0, 2], "beta": [2, 0], "re": "0", "im": "1"}],
    }
    with pytest.raises(forms.SymmetryViolation) as info:
        formats.form_from_dict(doc)
    assert str(info.value) == "c[(0, 2),(2, 0)] = 0+1i is not the conjugate of c[(2, 0),(0, 2)] = 0+1i"


_weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 7))
_coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def _psd_cases(draw):
    """sum_j w_j |Q_j|^2 with Gaussian-rational Q_j, PSD from N = 0 on, and a shift N."""
    n, m, N = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    basis = list(mi.iter_degree(n, m))
    triples = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(_weights)
        q = {a: qc(draw(_coefficients), draw(_coefficients)) for a in draw(st.lists(st.sampled_from(basis), unique=True))}
        triples += [(a, b, w * ca * cb.conj()) for a, ca in q.items() for b, cb in q.items()]
    return forms.HermitianForm.from_terms(n, m, triples), N


# the one file is rewritten by every example
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_psd_cases())
@example((forms.fc_form(1), 1))
@example((ridge_form(), 1))
def test_certificate_roundtrip_exact(tmp_path, case):
    f, N = case
    cert = mult.sos_decompose(f, N)
    path = tmp_path / "cert.json"
    formats.save_certificate(cert, path, form=f)
    loaded, embedded = formats.load_certificate(path)
    assert embedded.coeffs == f.coeffs
    assert loaded.N == N
    assert loaded == cert  # bit-exact: weights and coefficients, in order, and the verification status
    assert mult.verify_certificate(embedded, loaded) == ("exact-pass", 0.0)


_parts = st.one_of(st.integers(-5, 5), st.integers(-(2**300), 2**300), st.sampled_from([0, 2**300 - 1, -(2**299)]))


@st.composite
def _written_certificates(draw):
    """Any certificate in lowest terms, with a form: empty squares, squares with no coefficient,
    zero, negative and 300-bit parts, den > 1."""
    n, m, N = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    basis = list(mi.iter_degree(n, m + N))
    squares = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {a: (draw(_parts), draw(_parts)) for a in draw(st.lists(st.sampled_from(basis), unique=True, max_size=4))}
        den = draw(st.one_of(st.integers(1, 12), st.integers(2, 2**300)))
        g = math.gcd(den, *(x for c in coeffs.values() for x in c))
        weight = Fraction(draw(st.integers(1, 2**300)), draw(st.integers(1, 2**64)))
        squares.append(mult.SosSquare(weight, den // g, {a: (re // g, im // g) for a, (re, im) in coeffs.items()}))
    status, residual = draw(st.sampled_from([("unverified", None), ("exact-pass", 0.0), ("fail", None)]))
    cert = mult.SosCertificate(n, m, N, tuple(squares), status, residual)
    return cert, random_hermitian_form(random.Random(draw(st.integers(0, 99))), n, m)


# the one file is rewritten by every example
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_written_certificates())
@example((mult.SosCertificate(1, 1, 0, ()), forms.HermitianForm.zero(1, 1)))  # "terms": []
@example((mult.SosCertificate(2, 1, 1, (mult.SosSquare(Fraction(3, 2), 1, {}),)), forms.inner_power(2, 1)))
def test_certificate_writer_matches_json_dumps_and_reloads(tmp_path, case):
    cert, form = case
    path = tmp_path / "cert.json"
    formats.save_certificate(cert, path, form=form)
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    for sq in json.loads(text)["squares"]:  # in lowest terms and in graded-lex order, as the goldens are
        assert all(entry[part] == str(Fraction(entry[part])) for entry in sq["coefficients"] for part in ("re", "im"))
        indices = [tuple(entry["index"]) for entry in sq["coefficients"]]
        canonical = list(mi.iter_degree(cert.n, cert.m + cert.N))
        assert indices == [a for a in canonical if a in indices]
    loaded, loaded_form = formats.load_certificate(path)
    assert loaded == cert
    assert (loaded_form.n, loaded_form.m, loaded_form.coeffs) == (form.n, form.m, form.coeffs)


@pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (2, 0), ("1", 0), (1.0, 0), (True, 0)])
def test_certificate_header_must_be_the_shape_of_its_form(n, m):
    # the embedded zero form of (n, m) = (1, 0) fixes the shape; a header of n = 0, once read with "index": [], is refused
    square = mult.SosSquare(Fraction(2), 3, {(0,): (1, 0)})
    doc = json.loads(formats._certificate_text(mult.SosCertificate(1, 0, 0, (square,)), forms.HermitianForm.zero(1, 0)))
    assert formats.certificate_from_dict(doc)[0].squares == (square,)
    with pytest.raises(formats.ParseError) as info:
        formats.certificate_from_dict({**doc, "n": n, "m": m})
    assert str(info.value) == f"(n, m) = ({n!r}, {m!r}) is not the embedded form's (1, 0) (at certificate)"


def test_certificate_rejects_wrong_degree():
    doc = {
        "n": 2,
        "m": 2,
        "N": 1,
        "mode": "exact",
        "squares": [
            {"weight": "1", "coefficients": [{"index": [1, 0], "re": "1", "im": "0"}]}
        ],
        "form": formats.form_to_dict(forms.fc_form(1)),
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
        "form": formats.form_to_dict(forms.fc_form(1)),
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
        for doc in ({"x": bad}, [1, [bad]], {"x": {"y": [bad]}}, {bad: 1}, bad):
            with pytest.raises(ValueError):
                formats.dumps_stable(doc)


def test_certificate_writer_rejects_non_finite_residual(tmp_path):
    square = mult.SosSquare(Fraction(1), 1, {(2, 0): (1, 0)})
    for bad in (float("nan"), float("inf"), -float("inf")):
        cert = mult.SosCertificate(2, 2, 0, (square,), "fail", bad)
        path = tmp_path / "cert.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            formats.save_certificate(cert, path, form=forms.fc_form(1))
        assert not path.exists()


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


_ROOT = Path(__file__).resolve().parent.parent


def test_stable_dump_matches_json_dumps_on_golden_documents():
    paths = sorted((_ROOT / "tests" / "golden").glob("*.json"))
    assert len(paths) > 50
    for path in paths:
        doc = json.loads(path.read_text())
        assert (path.name, formats.dumps_stable(doc)) == (path.name, _json_dumps(doc))
    cli = json.loads((_ROOT / "perfbench" / "golden_cli.json").read_text())
    for name, entry in cli.items():
        assert (name, formats.dumps_stable(entry["doc"])) == (name, _json_dumps(entry["doc"]))


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**300, -(2**64), 0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-300, 5e-324, 1e300, 0.1]),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "€", "\U0001f600", "\ud800"]),
)
_json_keys = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n", "é", "\U0001f600", ""]))
_json_docs = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_json_keys, kids, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_json_docs)
@example({"": [], "a": {}, "b": [[], {}], "c": [-0.0, 1e-300, 10**400, True, False, None]})
def test_stable_dump_matches_json_dumps_on_any_document(doc):
    assert formats.dumps_stable(doc) == _json_dumps(doc)


# ---------------------------------------------------------------------------
# parser fuzz: malformed documents raise only ParseError or FormError
# ---------------------------------------------------------------------------

_SAMPLE_FORM = Path(__file__).resolve().parent.parent / "sample_forms" / "fc_1.json"


def _certificate_document(cert, form) -> dict:
    return json.loads(formats._certificate_text(cert, form))


def _documents() -> list[tuple[str, dict]]:
    fc1 = forms.fc_form(1)
    ridge = ridge_form()
    return [
        ("form", formats.form_to_dict(fc1)),
        ("form", formats.form_to_dict(add_forms(ridge, random_hermitian_form(random.Random(3), 2, 2)))),
        ("certificate", _certificate_document(mult.sos_decompose(ridge, 0), ridge)),
        ("certificate", _certificate_document(mult.sos_decompose(fc1, 1), fc1)),
        ("float certificate", FLOAT_CERTIFICATE),
    ]


_DOCUMENTS = _documents()
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
    return (formats.form_from_dict if kind.endswith("form") else formats.certificate_from_dict)(doc)


# JSON true where an integer belongs, each in a document that loads with 1 in its place
_ONE_TERM = {"n": 1, "m": 1, "terms": [{"alpha": [1], "beta": [1], "re": "1"}]}
_ONE_SQUARE = {"n": 1, "m": 1, "N": 0, "mode": "exact", "squares": [{"weight": "1", "coefficients": [{"index": [1], "re": "1"}]}],
               "form": _ONE_TERM}
_BOOLEAN_DOCUMENTS = [
    ("boolean certificate", {**_DOCUMENTS[3][1], "N": True, "format_version": True}),
    ("boolean certificate", {**_ONE_SQUARE, "n": True}),
    ("boolean certificate", {**_ONE_SQUARE, "m": True}),
    ("boolean certificate", {**_ONE_SQUARE, "squares": [{"weight": "1", "coefficients": [{"index": [True], "re": "1"}]}]}),
    ("boolean certificate", {**_ONE_SQUARE, "squares": [{"weight": True, "coefficients": [{"index": [1], "re": "1"}]}]}),
    ("boolean form", {**_ONE_TERM, "n": True}),
    ("boolean form", {**_ONE_TERM, "format_version": True}),
    ("boolean form", {"n": 2, "m": 2, "terms": [{"alpha": [True, True], "beta": [1, 1], "re": "1"}]}),
    ("boolean form", {"n": 2, "m": 2, "terms": [{"alpha": [1, 1], "beta": [True, True], "re": "1"}]}),
    ("boolean form", {**_ONE_TERM, "terms": [{"alpha": [1], "beta": [1], "re": True}]}),
]
# an embedded form beside a form_path, a field that named the form file in earlier versions and is unknown now
_FORM_AND_FORM_PATH = [
    ("form and form_path", {**_DOCUMENTS[2][1], "form_path": str(_SAMPLE_FORM)}),
    ("form and form_path", {**_DOCUMENTS[2][1], "form_path": 5}),
]
# a verification block that is not an object, or holds an unknown key, status or a residual not null or finite
_BAD_VERIFICATIONS = [
    ("bad verification", {**_ONE_SQUARE, "verification": {"status": ["x"], "junk": 1, "residual": "abc"}}),
    ("bad verification", {**_ONE_SQUARE, "verification": {"status": "exact-pass", "junk": 1}}),
    ("bad verification", {**_ONE_SQUARE, "verification": ["exact-pass"]}),
    ("bad verification", {**_ONE_SQUARE, "verification": {"status": "passed"}}),
    ("bad verification", {**_ONE_SQUARE, "verification": {"status": ["x"]}}),
    ("bad verification", {**_ONE_SQUARE, "verification": {"residual": "abc"}}),
    ("bad verification", {**_ONE_SQUARE, "verification": {"residual": float("nan")}}),
    ("bad verification", {**_ONE_SQUARE, "verification": {"residual": float("-inf")}}),
    ("bad verification", {**_ONE_SQUARE, "verification": {"residual": False}}),
]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mutated_documents())
@example(_FORM_AND_FORM_PATH[0])
@example(_FORM_AND_FORM_PATH[1])
@example(("certificate", {**_DOCUMENTS[2][1], "squares": [{**_DOCUMENTS[2][1]["squares"][0], "weight": float("nan")}]}))
@example(_BOOLEAN_DOCUMENTS[0])
@example(_BOOLEAN_DOCUMENTS[1])
@example(_BOOLEAN_DOCUMENTS[2])
@example(_BOOLEAN_DOCUMENTS[3])
@example(_BOOLEAN_DOCUMENTS[4])
@example(_BOOLEAN_DOCUMENTS[5])
@example(_BOOLEAN_DOCUMENTS[6])
@example(_BOOLEAN_DOCUMENTS[7])
@example(_BOOLEAN_DOCUMENTS[8])
@example(_BOOLEAN_DOCUMENTS[9])
@example(_BAD_VERIFICATIONS[0])
@example(_BAD_VERIFICATIONS[1])
@example(_BAD_VERIFICATIONS[2])
@example(_BAD_VERIFICATIONS[3])
@example(_BAD_VERIFICATIONS[4])
@example(_BAD_VERIFICATIONS[5])
@example(_BAD_VERIFICATIONS[6])
@example(_BAD_VERIFICATIONS[7])
@example(_BAD_VERIFICATIONS[8])
def test_malformed_documents_raise_only_input_errors(case):
    kind, doc = case
    # a float certificate under any edit (the mode is read before the squares), a boolean, a bad
    # verification block or a form beside a form_path as given
    if kind in ("float certificate", "boolean certificate", "boolean form", "bad verification", "form and form_path"):
        with pytest.raises(formats.ParseError):
            _parse(kind, doc)
        return
    try:
        _parse(kind, doc)
    except (formats.ParseError, forms.FormError):
        pass


def test_form_path_to_a_device_is_refused_unread(monkeypatch, tmp_path):
    # a certificate embeds its form or names none: a form_path is an unknown field, and no file it names
    # is read, not a form file, a directory, nor a device such as /dev/zero, which never ends
    monkeypatch.setattr(formats, "load_form", lambda path: pytest.fail(f"{path} was read"))
    for path in (str(_SAMPLE_FORM), str(tmp_path), "/dev/zero"):
        with pytest.raises(formats.ParseError, match=re.escape("unknown field(s) ['form_path'] (at certificate)")):
            formats.certificate_from_dict({**_DOCUMENTS[3][1], "form_path": path})


def test_bad_form_path_and_non_finite_weight_are_parse_errors():
    exact_doc = _DOCUMENTS[2][1]
    bad = [{**_DOCUMENTS[3][1], "form_path": value} for value in (5, None, ["a"], "\x00")]
    bad += [{**exact_doc, "squares": [{**exact_doc["squares"][0], "weight": w}]} for w in (float("nan"), float("inf"), 1e300)]
    bad += [FLOAT_CERTIFICATE, *(doc for _, doc in _FORM_AND_FORM_PATH)]
    for doc in bad:
        with pytest.raises(formats.ParseError):
            formats.certificate_from_dict(doc)


# A coefficient's faults name it by its position; the messages are pinned byte for byte.
COEFFICIENT_FAULTS = {
    "not-an-object": (["index", 3, 0], "expected a JSON object, got list"),
    "unknown-field": ({"index": [3, 0], "re": "1", "weight": "1"}, "unknown field(s) ['weight']"),
    "missing-re": ({"index": [3, 0], "im": "0"}, "missing field(s) ['re']"),
    "index-not-integers": ({"index": [3, 0.0], "re": "1"}, "index must be a list of integers, got [3, 0.0]"),
    "index-length": ({"index": [3], "re": "1"}, "index [3] has length 1, expected 2"),
    "negative-exponent": ({"index": [4, -1], "re": "1"}, "negative exponent in [4, -1]"),
    "degree": ({"index": [2, 0], "re": "1"}, "index (2, 0) has degree 2, expected 3"),
    "duplicate": ({"index": [2, 1], "re": "3"}, "duplicate index (2, 1)"),
    "malformed-re": ({"index": [3, 0], "re": "1_0"}, "malformed rational '1_0'"),
    "float-im": ({"index": [3, 0], "re": "1", "im": 0.5}, "floating value 0.5 not allowed; use a string"),
}


@pytest.mark.parametrize("fault", COEFFICIENT_FAULTS)
def test_certificate_coefficient_fault_messages(fault):
    entry, message = COEFFICIENT_FAULTS[fault]
    coefficients = [{"index": [2, 1], "re": "1", "im": "0"}, {"index": [1, 2], "re": "-1/2"}, entry]
    doc = {
        "n": 2,
        "m": 2,
        "N": 1,
        "mode": "exact",
        "squares": [
            {"weight": "1", "coefficients": [{"index": [0, 3], "re": "1"}]},
            {"weight": "1/2", "coefficients": coefficients},
        ],
        "form": formats.form_to_dict(forms.fc_form(1)),
    }
    with pytest.raises(formats.ParseError) as info:
        formats.certificate_from_dict(doc)
    assert str(info.value) == f"{message} (at squares[1].coefficients[2])"
    assert info.value.context == "squares[1].coefficients[2]"
