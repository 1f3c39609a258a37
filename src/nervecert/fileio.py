"""JSON document formats for complexes, convex families, and certificates.

Rationals travel as exact strings ("3/2", "-1/4", "7"); plain JSON integers
are accepted on input, decimals never are.  A complex document lists facets
plus, for subdivision outputs, the vertex-label table (the face each new
vertex subdivides) and optionally the document of the complex those labels
refer to.  Documents are always dumped with sorted keys so byte output is
deterministic.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .complexes import Face, SdComplex, SimplicialComplex, complex_from_facets
from .convex import HPolytope, Point
from .errors import ParseError
from .nerve import ConvexFamily

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip())
        if not match:
            raise ParseError(f"not an exact rational string: {value!r}")
        num, den = match.groups()
        den = 1 if den is None else int(den)
        if not den:
            raise ParseError(f"zero denominator in {value!r}")
        return Fraction(int(num), den)
    raise ParseError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_point(values, what: str = "point") -> Point:
    return tuple(_rational_list(values, what))


def format_point(p) -> list[str]:
    return [format_rational(v) for v in p]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _int_field(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{what} must be an integer")
    return value


def _int_list(values, what: str) -> list[int]:
    _require(isinstance(values, list), f"{what} must be a list")
    out = []
    for v in values:
        _require(isinstance(v, int) and not isinstance(v, bool), f"{what} entries must be integers")
        out.append(v)
    return out


def _rational_list(values, what: str) -> list[Fraction]:
    _require(isinstance(values, list), f"{what} must be a list of rationals")
    return [parse_rational(v) for v in values]


# -- complexes ---------------------------------------------------------------

def complex_to_doc(
    K: SimplicialComplex,
    labels: dict[int, Face] | None = None,
    base_doc: dict | None = None,
) -> dict:
    doc: dict = {"facets": [list(f) for f in K.facets()]}
    if labels is not None:
        doc["vertex_labels"] = {str(v): list(f) for v, f in sorted(labels.items())}
    if base_doc is not None:
        doc["base"] = base_doc
    return doc


def complex_from_doc(doc) -> tuple[SimplicialComplex, dict[int, Face] | None]:
    _require(isinstance(doc, dict), "complex document must be an object")
    _require("facets" in doc, "complex document needs a 'facets' list")
    facets = doc["facets"]
    _require(isinstance(facets, list), "'facets' must be a list")
    try:
        K = complex_from_facets([_int_list(f, "facet") for f in facets])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    labels = None
    if "vertex_labels" in doc and doc["vertex_labels"] is not None:
        raw = doc["vertex_labels"]
        _require(isinstance(raw, dict), "'vertex_labels' must be an object")
        labels = {}
        for key, val in raw.items():
            try:
                v = int(key)
            except ValueError:
                raise ParseError(f"vertex label key {key!r} is not an integer") from None
            labels[v] = tuple(_int_list(val, "vertex label"))
        _require(set(labels) == set(K.vertices), "vertex_labels must cover exactly the vertices")
    return K, labels


def sd_to_doc(sdK: SdComplex, base_doc: dict | None = None) -> dict:
    return complex_to_doc(sdK.complex, sdK.labels, base_doc)


# -- families ----------------------------------------------------------------

def family_to_doc(F: ConvexFamily) -> dict:
    bodies = []
    for label, body in F.bodies:
        bodies.append(
            {
                "label": label,
                "hpoly": {
                    "A": [[format_rational(v) for v in row] for row in body.A],
                    "b": [format_rational(v) for v in body.b],
                },
            }
        )
    return {"ambient": F.ambient, "bodies": bodies}


def _body_from_doc(entry, ambient: int) -> tuple[int, HPolytope]:
    _require(isinstance(entry, dict), "body entry must be an object")
    _require("label" in entry, "body entry needs a 'label'")
    label = _int_field(entry["label"], "'label'")
    kinds = [k for k in ("box", "hpoly") if k in entry]
    _require(len(kinds) == 1, "body entry needs exactly one of 'box' or 'hpoly'")
    if kinds[0] == "box":
        box = entry["box"]
        _require(isinstance(box, dict) and "lo" in box and "hi" in box, "'box' needs 'lo' and 'hi'")
        lo = _rational_list(box["lo"], "box 'lo'")
        hi = _rational_list(box["hi"], "box 'hi'")
        _require(len(lo) == ambient and len(hi) == ambient, "box corner length must equal ambient")
        return label, HPolytope.box(lo, hi)
    hp = entry["hpoly"]
    _require(isinstance(hp, dict) and "A" in hp and "b" in hp, "'hpoly' needs 'A' and 'b'")
    _require(isinstance(hp["A"], list), "hpoly 'A' must be a list of rows")
    A = [_rational_list(row, "hpoly row") for row in hp["A"]]
    b = _rational_list(hp["b"], "hpoly 'b'")
    _require(all(len(row) == ambient for row in A), "hpoly rows must have ambient many columns")
    _require(len(A) == len(b), "hpoly 'A' and 'b' lengths disagree")
    return label, HPolytope.from_rows(A, b, ambient=ambient)


def family_from_doc(doc) -> ConvexFamily:
    _require(isinstance(doc, dict), "family document must be an object")
    _require("ambient" in doc, "family document needs 'ambient'")
    ambient = doc["ambient"]
    _require(
        isinstance(ambient, int) and not isinstance(ambient, bool) and ambient >= 1,
        "'ambient' must be a positive integer",
    )
    _require("bodies" in doc and isinstance(doc["bodies"], list), "family document needs a 'bodies' list")
    bodies = [_body_from_doc(entry, ambient) for entry in doc["bodies"]]
    try:
        return ConvexFamily.of(ambient, bodies)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- text plumbing -----------------------------------------------------------

def document_to_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def text_to_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top-level document must be an object")
    return doc


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return text_to_document(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
