"""JSON document formats for complexes, convex families, and certificates.

Rationals travel as exact strings ("3/2", "-1/4", "7"), read only in the
spelling `format_rational` writes, and integer keys only as `str` writes
them; plain JSON integers are accepted on input, decimals never are.  A
value decodes to an `int` where integral, else a `Fraction`.  Every list
of rationals (a point, a box corner, an hpoly row or its `b`) is read by
`parse_point`, which checks the length its caller states before it
decodes an entry.  Within one family document each distinct rational
string is decoded once, with the full spelling check; the documents
themselves are unchanged.  A complex document lists facets plus, for
subdivision outputs, the vertex-label table (the face each new vertex
subdivides) and optionally the document of the complex those labels refer
to.  Documents are always dumped with sorted keys so byte output is
deterministic.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .complexes import Face, SdComplex, SimplicialComplex, complex_from_facets
from .convex import HPolytope, Point
from .errors import ParseError
from .linprog import frac
from .nerve import ConvexFamily

# ASCII digits, no sign but '-', no "-0", no leading zeros, no zero denominator
_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def parse_rational(value) -> int | Fraction:
    """The value of a JSON integer or a canonical spelling: an `int` where
    integral, else a `Fraction` in lowest terms."""
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if match:
            num, den = match.groups()
            if den is None:
                return int(num)
            d = int(den)
            q = Fraction(int(num), d)
            if q.denominator == d != 1:  # lowest terms and not over 1, as format_rational writes
                return q
        raise ParseError(f"not a canonical rational string: {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"not a rational: {value!r}")


def format_rational(q: int | Fraction) -> str:
    if type(q) is int:
        return str(q)
    q = frac(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_point(p) -> list[str]:
    return [format_rational(v) for v in p]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _canonical_int(text: str, what: str) -> int:
    """A string that names an integer, spelled as `str` writes it."""
    try:
        v = int(text)
    except ValueError:
        v = None
    _require(v is not None and str(v) == text, f"{what} {text!r} is not a canonical integer")
    return v


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


class _Spellings(dict):
    """One document's decoded strings: spelling -> `parse_rational(spelling)`.

    Keyed on the string alone, never on the value, since `True == 1`.  Only
    a spelling that parsed is kept, so a bad one raises every time it is read.
    """

    def __missing__(self, spelling: str) -> int | Fraction:
        q = self[spelling] = parse_rational(spelling)
        return q


def parse_point(values, what: str, size: int, spellings=None) -> Point:
    """The rationals of the list ``values``, which must have ``size`` entries:
    `int` where integral, else `Fraction`.

    The length is always checked, before any entry is decoded.  Strings
    decode through ``spellings``, a document's memo, when one is given.
    """
    # raised by hand, not by `_require`: a message is built only on failure
    if not isinstance(values, list):
        raise ParseError(f"{what} must be a list of rationals")
    if len(values) != size:
        raise ParseError(f"{what} has {len(values)} entries, expected {size}")
    if spellings is None:
        return tuple([parse_rational(v) for v in values])
    return tuple([spellings[v] if type(v) is str else parse_rational(v) for v in values])


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


def complex_from_doc(doc) -> SimplicialComplex:
    """The complex of the document's facets; a vertex-label table is checked, not kept."""
    _require(isinstance(doc, dict), "complex document must be an object")
    _require("facets" in doc, "complex document needs a 'facets' list")
    _require(isinstance(doc["facets"], list), "'facets' must be a list")
    try:
        K = complex_from_facets([_int_list(f, "facet") for f in doc["facets"]])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raw = doc.get("vertex_labels")
    if raw is not None:
        _require(isinstance(raw, dict), "'vertex_labels' must be an object")
        keys = set()
        for key, val in raw.items():
            keys.add(_canonical_int(key, "'vertex_labels' key"))
            _int_list(val, "vertex label")
        _require(keys == set(K.vertices), "vertex_labels must cover exactly the vertices")
    return K


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


def _body_from_doc(entry, ambient: int, spellings: _Spellings) -> tuple[int, HPolytope]:
    _require(isinstance(entry, dict), "body entry must be an object")
    _require("label" in entry, "body entry needs a 'label'")
    label = _int_field(entry["label"], "'label'")
    kinds = [k for k in ("box", "hpoly") if k in entry]
    _require(len(kinds) == 1, "body entry needs exactly one of 'box' or 'hpoly'")
    if kinds[0] == "box":
        box = entry["box"]
        _require(isinstance(box, dict) and "lo" in box and "hi" in box, "'box' needs 'lo' and 'hi'")
        lo = parse_point(box["lo"], "box 'lo'", ambient, spellings)
        hi = parse_point(box["hi"], "box 'hi'", ambient, spellings)
        return label, HPolytope.box(lo, hi)
    hp = entry["hpoly"]
    _require(isinstance(hp, dict) and "A" in hp and "b" in hp, "'hpoly' needs 'A' and 'b'")
    _require(isinstance(hp["A"], list), "hpoly 'A' must be a list of rows")
    A = tuple([parse_point(row, "hpoly row", ambient, spellings) for row in hp["A"]])
    b = parse_point(hp["b"], "hpoly 'b'", len(A), spellings)
    return label, HPolytope(ambient, A, b)  # checked and exact already: no `from_rows` pass


def family_from_doc(doc) -> ConvexFamily:
    _require(isinstance(doc, dict), "family document must be an object")
    _require("ambient" in doc, "family document needs 'ambient'")
    ambient = doc["ambient"]
    _require(
        isinstance(ambient, int) and not isinstance(ambient, bool) and ambient >= 1,
        "'ambient' must be a positive integer",
    )
    _require("bodies" in doc and isinstance(doc["bodies"], list), "family document needs a 'bodies' list")
    spellings = _Spellings()
    bodies = [_body_from_doc(entry, ambient, spellings) for entry in doc["bodies"]]
    try:
        return ConvexFamily.of(ambient, bodies)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- text plumbing -----------------------------------------------------------

def document_to_text(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except RecursionError:
        raise ParseError("document nests too deeply to write") from None


def text_to_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: arrays and objects nest too deeply") from None
    _require(isinstance(doc, dict), "top-level document must be an object")
    return doc


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return text_to_document(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
