"""Machine-checkable certificates, the calls that make each one, and recheck.

`run_pipeline`, `obstruction_report` and `vkf_demo` make every certificate
the CLI writes.  Each embeds the data its verdict depends on, so `recheck` can
re-run the underlying exact predicate from the document alone and either
confirm or refute it.  A `NERVE_MISMATCH` or `WITNESS_VIOLATION` carries only
the bodies its recheck reads (the witness face's, or the one named body),
plus `family_sha256`, the sha256 of the whole family document as
`document_to_text` writes it, which ties the certificate to its family file.
Bit vectors are serialized as lowercase hex strings with column (or row) j at
bit j, rationals as exact strings.
"""

from __future__ import annotations

import re
from itertools import combinations

from .complexes import SimplicialComplex, barycentric_subdivision, is_remote
from .convex import crossing, hulls_intersect, polytope_is_empty
from .errors import NerveMismatchError, ParseError
from .fileio import (
    _canonical_int,
    _int_field,
    _int_list,
    _require,
    complex_from_doc,
    complex_to_doc,
    document_to_text,
    family_from_doc,
    family_to_doc,
    format_point,
    format_rational,
    parse_point,
    parse_rational,
)
from .nerve import ConvexFamily, NerveMatch
from .obstruction import (
    ObstructionCertificate,
    Placement,
    check_placement_dim,
    coboundary_matrix,
    gf2_rank,
    intersection_cocycle,
    moment_curve_placement,
    obstruction_vanishes,
)
from .witness import (
    assemble_witness_map,
    verify_remote_disjointness,
    verify_witness_membership,
    witness_points,
)

NERVE_MISMATCH = "NERVE_MISMATCH"
WITNESS_VIOLATION = "WITNESS_VIOLATION"
LEMMA_VIOLATION = "LEMMA_VIOLATION"
VKF_CERTIFICATE = "VKF_CERTIFICATE"
OBSTRUCTION_REPORT = "OBSTRUCTION_REPORT"
CONSISTENCY_FAILURE = "CONSISTENCY_FAILURE"


# the only form _bits_to_hex writes: lowercase, no prefix, no leading zeros
_HEX_RE = re.compile(r"0|[1-9a-f][0-9a-f]*")
_SHA256_RE = re.compile(r"[0-9a-f]{64}")


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
        v = _canonical_int(key, "'params' key")  # one spelling per vertex, so none repeats
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


def _family_evidence(F: ConvexFamily, labels) -> dict:
    """The ``bodies`` of the given labels and the whole family's ``family_sha256``,
    from one `family_to_doc` of F."""
    import hashlib  # loads OpenSSL, about 3.5 MB: only these two kinds hash

    doc = family_to_doc(F)
    wanted = set(labels)
    return {
        "bodies": {
            "ambient": doc["ambient"],
            "bodies": [entry for entry in doc["bodies"] if entry["label"] in wanted],
        },
        "family_sha256": hashlib.sha256(document_to_text(doc).encode()).hexdigest(),
    }


def _bodies_field(doc) -> ConvexFamily:
    """The embedded ``bodies``, once ``family_sha256`` is seen to be a
    sha256: 64 lowercase hex digits."""
    F = family_from_doc(doc["bodies"])
    sha = doc["family_sha256"]
    _require(
        isinstance(sha, str) and _SHA256_RE.fullmatch(sha) is not None,
        f"'family_sha256' must be 64 lowercase hex digits, got {sha!r}",
    )
    return F


def _pieces_to_doc(piece) -> list[list[str]]:
    return [format_point(p) for p in piece]


def _pieces_from_doc(raw, what: str, ambient: int):
    _require(isinstance(raw, list) and raw, f"{what} must be a nonempty list of points")
    return [parse_point(p, f"'{what}' point", ambient) for p in raw]


# -- builders ----------------------------------------------------------------

def nerve_mismatch_cert(match: NerveMatch, F: ConvexFamily, K: SimplicialComplex) -> dict:
    return {
        "kind": NERVE_MISMATCH,
        "direction": match.verdict,
        "witness_face": list(match.face),
        **_family_evidence(F, match.face),
        "complex": complex_to_doc(K),
    }


def witness_violation_cert(violation, F: ConvexFamily) -> dict:
    return {
        "kind": WITNESS_VIOLATION,
        "face": list(violation.face),
        "point": format_point(violation.point),
        "body_label": violation.label,
        "row": violation.row,
        "labels": list(F.labels()),
        **_family_evidence(F, [violation.label]),
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


def obstruction_report(K, d: int, params=None) -> tuple[ObstructionCertificate, dict]:
    """Place K on the moment curve, decide its obstruction; (verdict, report)."""
    placement = moment_curve_placement(K, d, params)
    cert = obstruction_vanishes(K, d, placement)
    return cert, {
        "kind": OBSTRUCTION_REPORT,
        "vanishes": cert.vanishes,
        "complex": complex_to_doc(K),
        "d": d,
        "params": _params_to_doc(placement),
        "cocycle": _bits_to_hex(cert.cocycle.bits),
        "n_pairs": len(cert.cocycle.index),
        "rank": cert.rank,
        "n_rows": cert.n_rows,
        "combination": None if cert.combination is None else _bits_to_hex(cert.combination),
        "witness": None if cert.witness is None else _bits_to_hex(cert.witness),
    }


def _crossing_point(placement: Placement, gamma, delta):
    """Where the placed d-faces gamma and delta cross, or None."""
    return crossing([placement.point(v) for v in gamma], [placement.point(v) for v in delta])


def _first_crossing_pair(faces: list, placement: Placement):
    """The first crossing pair, in `disjoint_simplex_pairs` order, of the
    sorted ``faces``: every d-face on the 2d+3 placed vertices.  None only
    if `Placement.crossing_parity` denies the pair this rule finds.

    No pair is listed.  The first face is the least that has an
    interleaving partner (each of its partners comes after it, or that
    partner would be less), and the second is its least partner.  In
    parameter order gamma holds d+1 of the 2d+3 ranks; dropping one of the
    d+2 others leaves an alternating sequence iff no two of gamma's ranks
    are adjacent and they do not hold both ends.  The partners are the
    others but one, and the least drops the largest label it can.
    """
    rank = placement.ranks
    last = len(rank) - 1
    for gamma in faces:
        r = sorted([rank[v] for v in gamma])
        if r[-1] - r[0] < last and all(b - a > 1 for a, b in zip(r, r[1:])):
            others = [v for v in sorted(rank) if v not in gamma]
            partners = (tuple(w for w in others if w != v) for v in reversed(others))
            delta = next((h for h in partners if placement.crossing_parity(gamma, h)), None)
            return None if delta is None else (gamma, delta)
    return None


def vkf_demo(d: int, params=None) -> tuple[str, dict]:
    """(summary line, certificate) of the first crossing pair of d-faces of the
    d-skeleton on 1..2d+3, placed on the moment curve, at its exact point."""
    if d < 1:
        raise ParseError("d must be at least 1")
    # combinations yields every d-face, all maximal, in canonical order
    faces = list(combinations(range(1, 2 * d + 4), d + 1))
    K = SimplicialComplex(tuple(faces))
    placement = moment_curve_placement(K, d, params)
    pair = _first_crossing_pair(faces, placement)
    if pair is None:  # unreachable: the total crossing parity of this complex is odd
        raise AssertionError("no crossing pair found; the parity invariant is broken")
    gamma, delta = pair
    point = _crossing_point(placement, gamma, delta)
    if point is None:
        raise AssertionError(f"interleaving pair {list(gamma)}, {list(delta)} does not cross")
    doc = {
        "kind": VKF_CERTIFICATE,
        "mode": "demo",
        "gamma": list(gamma),
        "delta": list(delta),
        "d": d,
        "params": _params_to_doc(placement),
        "point": format_point(point),
        "complex": complex_to_doc(K),
    }
    at = ", ".join(doc["point"])
    return f"VKF_CERTIFICATE: {list(gamma)} and {list(delta)} cross at ({at})", doc


def consistency_failure_cert(obstruction_doc: dict) -> dict:
    return {
        "kind": CONSISTENCY_FAILURE,
        "detail": (
            "pipeline ran clean on a source with nonvanishing obstruction; "
            "this indicates a library fault, not a property of the input"
        ),
        "obstruction": obstruction_doc,
    }


# -- pipeline ----------------------------------------------------------------

def run_pipeline(F: ConvexFamily, L: SimplicialComplex, d: int, corruption=None):
    """Check family F in R^2d against sd L; return (summary line, certificate).

    The nerve is checked against sd L face by face while the canonical
    witness points are computed, each checked once against its face's
    system; that membership proves the remote-face lemma, and the
    obstruction verdict of L follows.  Only the point of the ``corruption``
    hook, ``(face, point, stage)``, is audited: at stage ``"witness"`` a
    violation is reported, at ``"lemma"`` the point replaces p(face) and goes
    to the hull-test audit.  Input that cannot make the claim raises
    `ParseError`; `VKF_CERTIFICATE` comes only from `vkf-demo`.
    """
    if d < 1:
        raise ParseError("d must be at least 1")
    if L.dim != d:
        raise ParseError(f"source complex has dimension {L.dim}, expected {d}")
    if F.ambient != 2 * d:
        raise ParseError(f"family ambient is {F.ambient}, expected 2d = {2 * d}")
    # sd L has a vertex per face of L, at least the 2^(d+1) - 1 faces of one
    # d-face: fewer bodies are refused before L's closure is built
    n, least = len(F.bodies), 2 ** (d + 1) - 1
    if least > n:
        raise ParseError(f"family has {n} bodies, sd L has at least {least} vertices")
    if len(L.faces) != n:
        raise ParseError(f"family has {n} bodies, sd L has {len(L.faces)} vertices")
    K = barycentric_subdivision(L).complex
    face, pt, stage = corruption or (None, None, None)
    if face is not None and face not in K.faces:
        raise ParseError(f"corruption face {face} is not a face of the subdivision")

    try:  # the nerve check inside witness_points is the only one
        points = witness_points(F, K)
    except NerveMismatchError as exc:
        m = exc.match
        return f"NERVE_MISMATCH: {m.verdict} {list(m.face)}", nerve_mismatch_cert(m, F, K)
    # each computed point passed its centre's check, so only the hook's is audited
    v = None if face is None else verify_witness_membership(F, {face: pt}).violation
    if v is not None:
        if stage != "lemma":
            line = f"WITNESS_VIOLATION: p({list(v.face)}) breaks row {v.row} of body {v.label}"
            return line, witness_violation_cert(v, F)
        # membership proves the lemma; the audit only names a hook's violating pair
        points[face] = pt
        v = verify_remote_disjointness(assemble_witness_map(K, points, F.ambient)).violation
        if v is not None:
            line = (
                f"LEMMA_VIOLATION: remote pair {list(v.alpha)}, {list(v.beta)} "
                "has intersecting images"
            )
            return line, lemma_violation_cert(v, K)

    obs, obs_doc = obstruction_report(L, d)
    if obs.vanishes:
        return "OBSTRUCTION_REPORT: clean run, source obstruction vanishes", obs_doc
    line = "CONSISTENCY_FAILURE: clean run contradicts the nonvanishing obstruction"
    return line, consistency_failure_cert(obs_doc)


# -- recheck -----------------------------------------------------------------

def _recheck_nerve_mismatch(doc) -> tuple[bool, str]:
    F = _bodies_field(doc)
    K = complex_from_doc(doc["complex"])
    face = _face_field(doc, "witness_face")
    direction = doc.get("direction")
    if direction not in (NerveMatch.MISSING, NerveMatch.EXTRA):
        raise ParseError(f"unknown mismatch direction {direction!r}")
    # `certificate` requires the family's labels to be the complex's vertices
    outside = sorted(set(face) - K.vertices)
    _require(
        not outside,
        f"'witness_face' {list(face)} names labels outside the family "
        f"(the complex's vertices): {outside}",
    )
    _require(
        F.labels() == face,
        f"'bodies' holds the bodies {list(F.labels())}, "
        f"expected those of 'witness_face' {list(face)}",
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
    F = _bodies_field(doc)
    point = parse_point(doc["point"], "'point'", F.ambient)
    face = _face_field(doc, "face")
    labels = _face_field(doc, "labels")
    _require(set(face) <= set(labels), f"'face' {list(face)} names labels outside the family")
    label = _int_field(doc["body_label"], "'body_label'")
    _require(label in labels, f"'body_label' {label} names no body of the family")
    _require(label in face, f"'body_label' {label} is not a member of 'face' {list(face)}")
    _require(
        F.labels() == (label,),
        f"'bodies' holds the bodies {list(F.labels())}, "
        f"expected only that of 'body_label' {label}",
    )
    body = F.body(label)
    row = _int_field(doc["row"], "'row'")
    _require(0 <= row < body.n_rows, f"'row' {row} is out of range")
    lhs = sum(a * x for a, x in zip(body.A[row], point))
    if lhs > body.b[row]:
        return True, "witness point violates the named constraint row"
    return False, "witness point satisfies the named constraint row"


def _recheck_lemma_violation(doc) -> tuple[bool, str]:
    K = complex_from_doc(doc["nerve"])
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
    K = complex_from_doc(doc["complex"])
    check_placement_dim(K.dim, d)
    if set(gamma) & set(delta):
        return False, "simplices share a vertex"
    if len(gamma) != d + 1 or len(delta) != d + 1:
        return False, "simplices do not have dimension d"
    if not (K.has_face(gamma) and K.has_face(delta)):
        return False, "pair is not a pair of complex faces"
    placement = moment_curve_placement(K, d, _params_from_doc(doc["params"]))
    point = parse_point(doc["point"], "'point'", 2 * d)
    found = _crossing_point(placement, gamma, delta)
    if found is None:
        return False, f"pair {list(gamma)}, {list(delta)} does not cross under the placement"
    if found != point:
        at = ", ".join(format_point(found))
        return False, f"intersection point disagrees: the pair crosses at ({at})"
    return True, "crossing pair with exact intersection point confirmed"


def _recheck_obstruction(doc) -> tuple[bool, str]:
    d = _int_field(doc["d"], "'d'")
    K = complex_from_doc(doc["complex"])
    check_placement_dim(K.dim, d)
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
    if cocycle.bits != stated_cocycle:
        return False, "recomputed cocycle disagrees"
    M = coboundary_matrix(K, d)
    if M.n_rows != n_rows:
        return False, "coboundary row count disagrees"
    if proof >> size:
        raise ParseError(f"'{used}' has a bit at or above {what} = {size}")
    combination, witness = (proof, None) if vanishes else (None, proof)
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
