"""Machine-checkable certificate documents and their re-verification.

Every certificate embeds the data its verdict depends on, so `recheck` can
re-run the underlying exact predicate from the document alone and either
confirm or refute it.  Bit vectors are serialized as lowercase hex strings
with column (or row) j at bit j, rationals as exact strings.
"""

from __future__ import annotations

import re

from .complexes import SimplicialComplex, is_remote
from .convex import crossing, hulls_intersect, polytope_is_empty
from .errors import ParseError
from .fileio import (
    _int_field,
    _int_key,
    _int_list,
    _require,
    complex_from_doc,
    complex_to_doc,
    family_from_doc,
    family_to_doc,
    format_point,
    format_rational,
    parse_point,
    parse_rational,
)
from .nerve import ConvexFamily, NerveMatch, check_labels
from .obstruction import (
    ObstructionCertificate,
    Placement,
    coboundary_matrix,
    gf2_rank,
    intersection_cocycle,
    moment_curve_placement,
    reverse_columns,
)

NERVE_MISMATCH = "NERVE_MISMATCH"
WITNESS_VIOLATION = "WITNESS_VIOLATION"
LEMMA_VIOLATION = "LEMMA_VIOLATION"
VKF_CERTIFICATE = "VKF_CERTIFICATE"
OBSTRUCTION_REPORT = "OBSTRUCTION_REPORT"
CONSISTENCY_FAILURE = "CONSISTENCY_FAILURE"

KINDS = (
    NERVE_MISMATCH,
    WITNESS_VIOLATION,
    LEMMA_VIOLATION,
    VKF_CERTIFICATE,
    OBSTRUCTION_REPORT,
    CONSISTENCY_FAILURE,
)


# the only form _bits_to_hex writes: lowercase, no prefix, no leading zeros
_HEX_RE = re.compile(r"0|[1-9a-f][0-9a-f]*")


def _bits_to_hex(bits: int) -> str:
    return format(bits, "x")


def _hex_to_bits(text, what: str) -> int:
    _require(isinstance(text, str), f"{what} must be a hex string")
    _require(
        _HEX_RE.fullmatch(text) is not None,
        f"{what} is not a canonical hex bit vector: {text!r}",
    )
    return int(text, 16)


def _params_to_doc(placement: Placement) -> dict:
    return {str(v): format_rational(t) for v, t in placement.params}


def _params_from_doc(raw) -> dict:
    """Vertex -> parameter map; repeated values are a malformed document,
    not a placement to reseed, since `recheck` has no parameters to pass."""
    _require(isinstance(raw, dict), "'params' must be an object")
    out = {}
    values = set()
    for key, val in raw.items():
        v = _int_key(key, "'params'")  # one spelling per vertex, so none repeats
        t = parse_rational(val)
        if t in values:
            raise ParseError(
                f"'params' repeats the value {format_rational(t)}; parameters must be distinct"
            )
        out[v] = t
        values.add(t)
    return out


def _face_field(doc, key: str) -> tuple[int, ...]:
    """A face as `make_face` writes it: one or more strictly increasing labels."""
    face = tuple(_int_list(doc[key], f"'{key}'"))
    _require(
        bool(face) and all(a < b for a, b in zip(face, face[1:])),
        f"'{key}' must list one or more labels in strictly increasing order, got {list(face)}",
    )
    return face


def _pieces_to_doc(piece) -> list[list[str]]:
    return [format_point(p) for p in piece]


def _pieces_from_doc(raw, what: str, ambient: int):
    _require(isinstance(raw, list) and raw, f"{what} must be a nonempty list of points")
    piece = [parse_point(p, f"{what} point") for p in raw]
    for p in piece:
        _require(
            len(p) == ambient,
            f"'{what}' point has {len(p)} coordinates, ambient is 2d = {ambient}",
        )
    return piece


# -- builders ----------------------------------------------------------------

def nerve_mismatch_cert(match: NerveMatch, F: ConvexFamily, K: SimplicialComplex) -> dict:
    return {
        "kind": NERVE_MISMATCH,
        "direction": match.verdict,
        "witness_face": list(match.face),
        "family": family_to_doc(F),
        "complex": complex_to_doc(K),
    }


def witness_violation_cert(violation, F: ConvexFamily) -> dict:
    return {
        "kind": WITNESS_VIOLATION,
        "face": list(violation.face),
        "point": format_point(violation.point),
        "body_label": violation.label,
        "row": violation.row,
        "family": family_to_doc(F),
    }


def lemma_violation_cert(violation, K: SimplicialComplex) -> dict:
    return {
        "kind": LEMMA_VIOLATION,
        "alpha": list(violation.alpha),
        "beta": list(violation.beta),
        "piece_a": _pieces_to_doc(violation.piece_a),
        "piece_b": _pieces_to_doc(violation.piece_b),
        "nerve": complex_to_doc(K),
    }


def vkf_demo_cert(
    gamma, delta, d: int, placement: Placement, point, K: SimplicialComplex
) -> dict:
    return {
        "kind": VKF_CERTIFICATE,
        "mode": "demo",
        "gamma": list(gamma),
        "delta": list(delta),
        "d": d,
        "params": _params_to_doc(placement),
        "point": format_point(point),
        "complex": complex_to_doc(K),
    }


def obstruction_report_cert(
    K: SimplicialComplex, d: int, placement: Placement, cert: ObstructionCertificate
) -> dict:
    n_pairs = len(cert.cocycle.index)
    return {
        "kind": OBSTRUCTION_REPORT,
        "vanishes": cert.vanishes,
        "complex": complex_to_doc(K),
        "d": d,
        "params": _params_to_doc(placement),
        "cocycle": _bits_to_hex(reverse_columns(cert.cocycle.bits, n_pairs)),
        "n_pairs": n_pairs,
        "rank": cert.rank,
        "n_rows": cert.n_rows,
        "combination": None if cert.combination is None else _bits_to_hex(cert.combination),
        "witness": (
            None if cert.witness is None
            else _bits_to_hex(reverse_columns(cert.witness, n_pairs))
        ),
    }


def consistency_failure_cert(obstruction_doc: dict, detail: str) -> dict:
    return {
        "kind": CONSISTENCY_FAILURE,
        "detail": detail,
        "obstruction": obstruction_doc,
    }


# -- recheck -----------------------------------------------------------------

def _recheck_nerve_mismatch(doc) -> tuple[bool, str]:
    F = family_from_doc(doc["family"])
    K, _ = complex_from_doc(doc["complex"])
    check_labels(F, K)  # as `certificate` does
    face = _face_field(doc, "witness_face")
    direction = doc.get("direction")
    if direction not in (NerveMatch.MISSING, NerveMatch.EXTRA):
        raise ParseError(f"unknown mismatch direction {direction!r}")
    _require(
        set(face) <= set(F.labels()),
        f"'witness_face' {list(face)} names labels outside the family",
    )
    empty = polytope_is_empty(F.subfamily_polytope(face))
    if direction == NerveMatch.MISSING:
        if not K.has_face(face):
            return False, "claimed missing face is not a face of the complex"
        if not empty:
            return False, "claimed missing face has a common point after all"
    else:
        if K.has_face(face):
            return False, "claimed extra face is a face of the complex"
        if empty:
            return False, "claimed extra face has no common point after all"
    return True, "nerve mismatch witness confirmed"


def _recheck_witness_violation(doc) -> tuple[bool, str]:
    F = family_from_doc(doc["family"])
    point = parse_point(doc["point"], "'point'")
    _require(
        len(point) == F.ambient,
        f"'point' has {len(point)} coordinates, ambient is {F.ambient}",
    )
    face = _face_field(doc, "face")
    _require(
        set(face) <= set(F.labels()), f"'face' {list(face)} names labels outside the family"
    )
    label = _int_field(doc["body_label"], "'body_label'")
    _require(label in F.labels(), f"'body_label' {label} names no body of the family")
    _require(label in face, f"'body_label' {label} is not a member of 'face' {list(face)}")
    body = F.body(label)
    row = _int_field(doc["row"], "'row'")
    _require(0 <= row < body.n_rows, f"'row' {row} is out of range")
    lhs = sum(a * x for a, x in zip(body.A[row], point))
    if lhs > body.b[row]:
        return True, "witness point violates the named constraint row"
    return False, "witness point satisfies the named constraint row"


def _recheck_lemma_violation(doc) -> tuple[bool, str]:
    K, _ = complex_from_doc(doc["nerve"])
    alpha = _face_field(doc, "alpha")
    beta = _face_field(doc, "beta")
    # the nerve is sd L for a d-complex L, and the family lives in R^2d
    _require(K.dim >= 1, f"'nerve' has dimension {K.dim}, expected at least 1")
    piece_a = _pieces_from_doc(doc["piece_a"], "piece_a", 2 * K.dim)
    piece_b = _pieces_from_doc(doc["piece_b"], "piece_b", 2 * K.dim)
    for what, face, piece in (("piece_a", alpha, piece_a), ("piece_b", beta, piece_b)):
        _require(
            len(piece) == len(face),
            f"'{what}' has {len(piece)} points, a chain of its face has {len(face)}",
        )
    if not is_remote(K, alpha, beta):
        return False, "named pair is not remote in the nerve"
    if not hulls_intersect(piece_a, piece_b):
        return False, "named pieces do not intersect"
    return True, "remote pair with intersecting image pieces confirmed"


def _recheck_vkf(doc) -> tuple[bool, str]:
    mode = doc.get("mode")
    if mode != "demo":
        raise ParseError(f"unknown VKF certificate mode {mode!r}")
    gamma = _face_field(doc, "gamma")
    delta = _face_field(doc, "delta")
    d = _int_field(doc["d"], "'d'")
    _require(d >= 1, "'d' must be a positive integer")
    if set(gamma) & set(delta):
        return False, "simplices share a vertex"
    if len(gamma) != d + 1 or len(delta) != d + 1:
        return False, "simplices do not have dimension d"
    K, _ = complex_from_doc(doc["complex"])
    if not (K.has_face(gamma) and K.has_face(delta)):
        return False, "pair is not a pair of complex faces"
    placement = moment_curve_placement(K, d, _params_from_doc(doc["params"]))
    point = parse_point(doc["point"], "'point'")
    _require(
        len(point) == 2 * d,
        f"'point' has {len(point)} coordinates, ambient is 2d = {2 * d}",
    )
    result = crossing(
        [placement.point(v) for v in gamma],
        [placement.point(v) for v in delta],
    )
    if result.parity != 1:
        return False, "pair does not cross under the placement"
    if result.point != point:
        return False, "intersection point disagrees"
    return True, "crossing pair with exact intersection point confirmed"


def _recheck_obstruction(doc) -> tuple[bool, str]:
    K, _ = complex_from_doc(doc["complex"])
    d = _int_field(doc["d"], "'d'")
    _require(d >= 1, "'d' must be a positive integer")
    n_pairs = _int_field(doc["n_pairs"], "'n_pairs'")
    n_rows = _int_field(doc["n_rows"], "'n_rows'")
    rank = _int_field(doc["rank"], "'rank'")
    vanishes = doc["vanishes"]
    _require(isinstance(vanishes, bool), "'vanishes' must be a boolean")
    stated_cocycle = _hex_to_bits(doc["cocycle"], "'cocycle'")
    # the verdict's proof field; the other one must be null
    used, unused, size, what = (
        ("combination", "witness", n_rows, "n_rows") if vanishes
        else ("witness", "combination", n_pairs, "n_pairs")
    )
    _require(
        doc.get(unused) is None,
        f"'{unused}' must be null when 'vanishes' is {str(vanishes).lower()}",
    )
    proof = _hex_to_bits(doc.get(used), f"'{used}'")
    placement = moment_curve_placement(K, d, _params_from_doc(doc["params"]))
    cocycle = intersection_cocycle(K, d, placement)
    if len(cocycle.index) != n_pairs:
        return False, "pair index size disagrees"
    if reverse_columns(cocycle.bits, n_pairs) != stated_cocycle:
        return False, "recomputed cocycle disagrees"
    M = coboundary_matrix(K, d)
    if M.n_rows != n_rows:
        return False, "coboundary row count disagrees"
    if proof >> size:
        raise ParseError(f"'{used}' has a bit at or above {what} = {size}")
    if vanishes:
        combination, witness = proof, None
    else:
        combination, witness = None, reverse_columns(proof, n_pairs)
    cert = ObstructionCertificate(vanishes, cocycle, rank, n_rows, combination, witness)
    if not cert.verify(M):
        return False, "certificate fails against the rebuilt system"
    if gf2_rank(M) != rank:
        return False, "stated rank disagrees with the rebuilt system"
    return True, "obstruction verdict confirmed"


def _recheck_consistency_failure(doc) -> tuple[bool, str]:
    inner = doc.get("obstruction")
    _require(isinstance(inner, dict), "consistency failure needs the embedded obstruction")
    if inner.get("vanishes") is not False:
        return False, "embedded obstruction is not a nonvanishing certificate"
    ok, detail = _recheck_obstruction(inner)
    if not ok:
        return False, f"embedded obstruction failed: {detail}"
    return True, "embedded nonvanishing certificate confirmed"


_RECHECKERS = {
    NERVE_MISMATCH: _recheck_nerve_mismatch,
    WITNESS_VIOLATION: _recheck_witness_violation,
    LEMMA_VIOLATION: _recheck_lemma_violation,
    VKF_CERTIFICATE: _recheck_vkf,
    OBSTRUCTION_REPORT: _recheck_obstruction,
    CONSISTENCY_FAILURE: _recheck_consistency_failure,
}


def recheck_certificate(doc) -> tuple[bool, str]:
    """Re-run the exact predicate behind a certificate document."""
    _require(isinstance(doc, dict), "certificate must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _RECHECKERS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    try:
        return _RECHECKERS[kind](doc)
    except KeyError as exc:
        raise ParseError(f"certificate is missing field {exc}") from exc
