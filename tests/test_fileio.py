"""Document formats: exact rationals, round trips, validation."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nervecert import ConvexFamily, HPolytope, ParseError, barycentric_subdivision, complex_from_facets
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


def test_rational_codec():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-4, 2)) == "-2"
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


def slow_parse_rational(value: str) -> Fraction:
    """The canonical grammar read a second way: an ASCII integer with no
    sign but '-', no leading zero and no "-0", over an optional coprime
    denominator of at least 2; validate, then let `Fraction` parse the
    whole string a second time."""
    match = re.fullmatch(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?", value)
    if match is None or (
        match[2] is not None and (match[2] == "1" or gcd(int(match[1]), int(match[2])) != 1)
    ):
        raise ParseError(f"not a canonical rational string: {value!r}")
    return Fraction(value)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


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


def test_complex_round_trip():
    K = complex_from_facets([[0, 1, 2], [2, 3], [4]])
    doc = complex_to_doc(K)
    back, labels = complex_from_doc(doc)
    assert back.faces == K.faces
    assert labels is None
    assert text_to_document(document_to_text(doc)) == doc


def test_subdivision_doc_keeps_labels():
    K = complex_from_facets([[1, 2], [2, 3]])
    sd = barycentric_subdivision(K)
    doc = sd_to_doc(sd, base_doc=complex_to_doc(K))
    back, labels = complex_from_doc(doc)
    assert back.faces == sd.complex.faces
    assert labels == sd.labels
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
    ],
)
def test_complex_doc_validation(doc):
    with pytest.raises(ParseError):
        complex_from_doc(doc)


def test_document_text_is_deterministic():
    doc = {"b": 1, "a": [3, 2], "nested": {"z": "1/2", "y": None}}
    assert document_to_text(doc) == document_to_text(dict(reversed(doc.items())))
