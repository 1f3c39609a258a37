"""Document formats: exact rationals, round trips, validation."""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nervecert import ConvexFamily, HPolytope, ParseError, barycentric_subdivision, complex_from_facets
from nervecert import fileio, inscribed_ball, polytope_is_empty
from nervecert.fileio import (
    complex_from_doc,
    complex_to_doc,
    document_to_text,
    family_from_doc,
    family_to_doc,
    format_rational,
    parse_rational,
    sd_to_doc,
    text_to_document,
)
from test_convex import random_stack
from test_inscribed_ball import outcome


def test_rational_codec():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert [format_rational(v) for v in (Fraction(7), 7, -3, 0)] == ["7", "7", "-3", "0"]
    assert parse_rational(format_rational(Fraction(-355, 113))) == Fraction(-355, 113)


@pytest.mark.parametrize(
    "bad",
    [
        "1.5", "3/0", "1e3", "", "a/b", 1.5, None, True,
        # each names a rational, but not as format_rational spells it
        "+3", "007/0030", " 3/4", "3/4\n", "-0", "6/4", "3/1", "0/5", "-0/3",
    ],
)
def test_rational_codec_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@pytest.mark.parametrize("text", ["\u0663/\u0664", "\u0969", "\uff17", "1/\u0664"])
def test_parse_rational_takes_ascii_digits_only(text):
    # int() reads any Unicode decimal digit; a document's rationals are ASCII
    with pytest.raises(ParseError, match=re.escape(repr(text))):
        parse_rational(text)


def slow_parse_rational(value: str) -> int | Fraction:
    """The canonical grammar read a second way: an ASCII integer with no
    sign but '-', no leading zero and no "-0", over an optional coprime
    denominator of at least 2; validate, then let `Fraction` parse the
    whole string a second time.  An `int` exactly when the denominator is 1."""
    match = re.fullmatch(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?", value)
    if match is None or (
        match[2] is not None and (match[2] == "1" or gcd(int(match[1]), int(match[2])) != 1)
    ):
        raise ParseError(f"not a canonical rational string: {value!r}")
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _outcome(parse, text):
    """The message of a refusal, else the value with its type, so 2 and Fraction(2) differ."""
    try:
        value = parse(text)
    except ParseError as exc:
        return str(exc)
    return type(value), value


rational_text = st.lists(
    st.one_of(
        st.sampled_from(["+", "-", "/", "0", "00", "7", "12", ".", "e", "_", " ", "\t", "\n"]),
        st.sampled_from(["\u0663", "\uff17", "\u00a0", "\u2003", "\u00b2", "\u0f33"]),
        st.characters(),
    ),
    max_size=8,
).map("".join)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rational_text)
@example("3/-4")
@example("1.5")
@example("")
@example(" -007/0030 ")
@example("\u0663/\u0664")
@example("1/0")
@example("-0/00")
@example("+3")
@example("-0")
@example("6/4")
@example("3/1")
@example("0/5")
@example("-355/113")
def test_parse_rational_matches_the_two_pass_parser(text):
    assert _outcome(parse_rational, text) == _outcome(slow_parse_rational, text)


def test_format_rational_takes_no_float():
    with pytest.raises(TypeError):
        format_rational(0.5)


DATA = Path(__file__).parent / "data"


def test_family_from_doc_decodes_each_spelling_once(monkeypatch):
    doc = json.loads((DATA / "missing_face_d2_seed11.json").read_text())["family"]
    expected = family_from_doc(doc)
    calls = []

    def counting(value):
        calls.append(value)
        return parse_rational(value)

    monkeypatch.setattr(fileio, "parse_rational", counting)
    assert family_from_doc(doc) == expected
    assert len(calls) == len(set(calls)) == 83  # the document holds 520 rational strings
    assert family_from_doc(doc) == expected  # the memo does not outlive the call
    assert len(calls) == 2 * 83


def _one_row_family(*values) -> dict:
    return {"ambient": len(values), "bodies": [{"label": 0, "hpoly": {"A": [list(values)], "b": ["1"]}}]}


@pytest.mark.parametrize("first, bad", [("1", "+1"), ("1", "01"), ("1", " 1"), ("1", True), (1, True)])
def test_a_memoized_value_in_another_spelling_is_rejected(first, bad):
    # True == 1 and hash(True) == hash(1): a memo keyed on values would pass it
    with pytest.raises(ParseError, match=re.escape(repr(bad))):
        family_from_doc(_one_row_family(first, bad))


def test_a_json_integer_after_its_spelling_still_decodes():
    # integers decode to `int`, whether spelled or a JSON integer; only p/q is a Fraction
    F = family_from_doc(_one_row_family("1", 1, "3/2"))
    row = F.body(0).A[0]
    assert row == (1, 1, Fraction(3, 2))
    assert [type(v) for v in row] == [int, int, Fraction]


def _facts(P: HPolytope):
    """What the dictionaries read off P: reduced rows, emptiness, and the ball."""
    return P.reduced_rows, polytope_is_empty(P), outcome(inscribed_ball, P)


def _decoded_and_built(rng):
    """`random_stack` bodies built from Fractions, as a family, and that family
    decoded from its own document, where every integer is an `int`."""
    parts = random_stack(rng)
    built = ConvexFamily.of(parts[0].ambient, enumerate(parts))
    doc = family_to_doc(built)
    decoded = family_from_doc(doc)
    assert document_to_text(family_to_doc(decoded)) == document_to_text(doc)
    labels = built.labels()
    for face in [(label,) for label in labels] + [labels]:
        assert _facts(decoded.subfamily_polytope(face)) == _facts(built.subfamily_polytope(face))
    return decoded


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_a_decoded_family_reads_as_its_fraction_bodies(seed):
    _decoded_and_built(random.Random(seed))


def test_the_decoded_family_property_reaches_every_outcome():
    # The same generator, seeded: decoded rows must hold primitive integer
    # rows, integer rows with a common factor, fractional entries, zero rows
    # with b < 0 and with b >= 0, and directions that repeat.
    rng = random.Random(35)
    seen = Counter()
    for _ in range(300):
        for _, body in _decoded_and_built(rng).bodies:
            for row, bi in zip(body.A, body.b):
                if not all(type(a) is int for a in row):
                    seen["fractional entry"] += 1
                elif not any(row):
                    seen["zero row, b < 0" if bi < 0 else "zero row, b >= 0"] += 1
                else:
                    seen["primitive" if gcd(*row) == 1 else "common factor"] += 1
            rows = body.reduced_rows
            if rows is not None and len(rows) < sum(1 for row in body.A if any(row)):
                seen["repeated direction"] += 1
    for what in ("primitive", "common factor", "fractional entry", "zero row, b < 0",
                 "zero row, b >= 0", "repeated direction"):
        assert seen[what] >= 20, seen


def test_complex_round_trip():
    K = complex_from_facets([[0, 1, 2], [2, 3], [4]])
    doc = complex_to_doc(K)
    back = complex_from_doc(doc)
    assert back.faces == K.faces
    assert "vertex_labels" not in doc
    assert text_to_document(document_to_text(doc)) == doc


def test_subdivision_doc_keeps_labels():
    K = complex_from_facets([[1, 2], [2, 3]])
    sd = barycentric_subdivision(K)
    doc = sd_to_doc(sd, base_doc=complex_to_doc(K))
    back = complex_from_doc(doc)
    assert back.faces == sd.complex.faces
    assert doc["vertex_labels"] == {str(v): list(f) for v, f in sorted(sd.labels.items())}
    assert doc["base"] == complex_to_doc(K)


def test_family_round_trip_is_bit_exact():
    F = ConvexFamily.of(
        2,
        [
            (0, HPolytope.box([Fraction(1, 3), 0], [2, Fraction(7, 2)])),
            (1, HPolytope.from_rows([[1, Fraction(-2, 5)]], [Fraction(9, 4)], ambient=2)),
        ],
    )
    back = family_from_doc(family_to_doc(F))
    assert back == F
    assert family_to_doc(back) == family_to_doc(F)


def test_family_doc_accepts_boxes_and_integers():
    doc = {
        "ambient": 1,
        "bodies": [
            {"label": 0, "box": {"lo": [0], "hi": ["3/2"]}},
            {"label": 1, "hpoly": {"A": [[1]], "b": [2]}},
        ],
    }
    F = family_from_doc(doc)
    assert F.body(0).b == (Fraction(3, 2), Fraction(0))
    assert F.body(1).A == ((Fraction(1),),)


@pytest.mark.parametrize(
    "doc",
    [
        {"bodies": []},
        {"ambient": 0, "bodies": []},
        {"ambient": 1, "bodies": [{"label": 0}]},
        {"ambient": 1, "bodies": [{"label": 0, "box": {"lo": [0], "hi": [1]}, "hpoly": {"A": [], "b": []}}]},
        {"ambient": 2, "bodies": [{"label": 0, "box": {"lo": [0], "hi": [1]}}]},
        {"ambient": 1, "bodies": [{"label": 0, "hpoly": {"A": [[1, 2]], "b": [1]}}]},
        {"ambient": 1, "bodies": [{"label": 0, "box": {"lo": [0], "hi": [1]}}, {"label": 0, "box": {"lo": [0], "hi": [1]}}]},
    ],
)
def test_family_doc_validation(doc):
    with pytest.raises(ParseError):
        family_from_doc(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"facets": [[1, 1]]},
        {"facets": [[0]], "vertex_labels": {"1": [0]}},
        {"facets": "nope"},
        {"facets": [[0]], "vertex_labels": [[0]]},
        {"facets": [[0]], "vertex_labels": {"00": [0]}},
        {"facets": [[0]], "vertex_labels": {"0": ["0"]}},
        {"facets": [[0]], "vertex_labels": {"0": 0}},
    ],
)
def test_complex_doc_validation(doc):
    with pytest.raises(ParseError):
        complex_from_doc(doc)


def test_document_text_is_deterministic():
    doc = {"b": 1, "a": [3, 2], "nested": {"z": "1/2", "y": None}}
    assert document_to_text(doc) == document_to_text(dict(reversed(doc.items())))
