"""Command-line surface: builders, nerve computation, obstruction verdicts,
and the end-to-end certificate pipeline.

Exit codes are a stable contract: 0 ok/vanishes, 1 parse or validation
error, 2 mismatch-class certificates, 3 nonvanishing or contradiction
certificates, 4 genericity failure, 5 consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations

from .certificates import (
    CONSISTENCY_FAILURE,
    LEMMA_VIOLATION,
    NERVE_MISMATCH,
    OBSTRUCTION_REPORT,
    VKF_CERTIFICATE,
    WITNESS_VIOLATION,
    consistency_failure_cert,
    lemma_violation_cert,
    nerve_mismatch_cert,
    obstruction_report_cert,
    recheck_certificate,
    vkf_demo_cert,
    vkf_pipeline_cert,
    witness_violation_cert,
)
from .complexes import (
    barycentric_subdivision,
    complex_from_facets,
    disjoint_simplex_pairs,
    skeleton_complex,
)
# hulls_intersect stays bound here: bench/test_bench.py checks that the layer
# trace wraps and restores this binding.
from .convex import crossing, hulls_intersect  # noqa: F401
from .errors import GenericityError, NerveCertError, NerveMismatchError, ParseError
from .fileio import (
    complex_from_doc,
    complex_to_doc,
    document_to_text,
    family_from_doc,
    load_document,
    parse_point,
    parse_rational,
    sd_to_doc,
)
from .nerve import nerve_exhaustive, nerve_helly
from .obstruction import moment_curve_placement, obstruction_vanishes
from .witness import (
    assemble_witness_map,
    corrupt_witness,
    first_meeting_pieces,
    image_of_source_simplex,
    verify_remote_disjointness,
    verify_witness_membership,
    witness_points,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_MISMATCH = 2
EXIT_CONTRADICTION = 3
EXIT_GENERICITY = 4
EXIT_CONSISTENCY = 5

_CERT_EXIT = {
    NERVE_MISMATCH: EXIT_MISMATCH,
    WITNESS_VIOLATION: EXIT_MISMATCH,
    LEMMA_VIOLATION: EXIT_MISMATCH,
    VKF_CERTIFICATE: EXIT_CONTRADICTION,
    CONSISTENCY_FAILURE: EXIT_CONSISTENCY,
}


def _emit(doc: dict, out: str | None) -> None:
    text = document_to_text(doc)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_params(text: str | None):
    if text is None:
        return None
    return [parse_rational(part.strip()) for part in text.split(",")]


def _parse_corruption(text: str, ambient: int):
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError("corruption spec must look like 'v1,v2:c1,c2'")
    try:
        face = tuple(sorted(int(v) for v in head.split(",")))
    except ValueError:
        raise ParseError(f"bad corruption face in {text!r}") from None
    point = parse_point([part.strip() for part in tail.split(",")])
    if len(point) != ambient:
        raise ParseError(
            f"corruption point has {len(point)} coordinates, ambient is {ambient}"
        )
    return face, point


def cmd_build(args) -> int:
    if args.kind == "skeleton":
        if len(args.args) != 2:
            raise ParseError("usage: build skeleton N K")
        try:
            n, k = (int(v) for v in args.args)
        except ValueError:
            raise ParseError("skeleton arguments must be integers") from None
        try:
            K = skeleton_complex(n, k)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        print(f"skeleton({n},{k}): f-vector {K.f_vector()}")
        _emit(complex_to_doc(K), args.out)
        return EXIT_OK
    if args.kind in ("sd", "sd2"):
        if len(args.args) != 1:
            raise ParseError(f"usage: build {args.kind} COMPLEX_FILE")
        doc = load_document(args.args[0])
        K, _ = complex_from_doc(doc)
        sd1 = barycentric_subdivision(K)
        if args.kind == "sd":
            print(f"sd: f-vector {sd1.complex.f_vector()}")
            _emit(sd_to_doc(sd1, base_doc=doc), args.out)
            return EXIT_OK
        sd2 = barycentric_subdivision(sd1.complex)
        print(f"sd2: f-vector {sd2.complex.f_vector()}")
        _emit(sd_to_doc(sd2, base_doc=sd_to_doc(sd1, base_doc=doc)), args.out)
        return EXIT_OK
    raise ParseError(f"unknown build kind {args.kind!r}")


def cmd_nerve(args) -> int:
    F = family_from_doc(load_document(args.family))
    engine = nerve_helly if args.mode == "helly" else nerve_exhaustive
    N = engine(F)
    print(f"nerve ({args.mode}): f-vector {N.f_vector()}")
    _emit(complex_to_doc(N), args.out)
    return EXIT_OK


def cmd_vk(args) -> int:
    K, _ = complex_from_doc(load_document(args.complex))
    placement = moment_curve_placement(K, args.d, _parse_params(args.params))
    cert = obstruction_vanishes(K, args.d, placement)
    doc = obstruction_report_cert(K, args.d, placement, cert)
    if cert.vanishes:
        print(f"vanishes: cocycle of weight {cert.cocycle.weight} is a coboundary")
    else:
        print(
            f"nonvanishing: cocycle of weight {cert.cocycle.weight} "
            f"outside the rank-{cert.rank} row space"
        )
    _emit(doc, args.out)
    return EXIT_OK if cert.vanishes else EXIT_CONTRADICTION


def cmd_certificate(args) -> int:
    F = family_from_doc(load_document(args.family))
    L, _ = complex_from_doc(load_document(args.complex))
    d = args.d
    if d < 1:
        raise ParseError("d must be at least 1")
    if L.dim != d:
        raise ParseError(f"source complex has dimension {L.dim}, expected {d}")
    if F.ambient != 2 * d:
        raise ParseError(f"family ambient is {F.ambient}, expected 2d = {2 * d}")
    corruption = None
    if args.corrupt_witness:
        corruption = _parse_corruption(args.corrupt_witness, F.ambient)

    sdL = barycentric_subdivision(L)
    K = sdL.complex

    try:  # the nerve check inside witness_points is the only one
        points = witness_points(F, K)
    except NerveMismatchError as exc:
        match = exc.match
        doc = nerve_mismatch_cert(match, F, K)
        print(f"NERVE_MISMATCH: {match.verdict} {list(match.face)}")
        _emit(doc, args.out)
        return _CERT_EXIT[NERVE_MISMATCH]
    if corruption and args.corrupt_stage == "witness":
        face, pt = corruption
        if face not in K.faces:
            raise ParseError(f"corruption face {face} is not a face of the subdivision")
        points[face] = pt
    membership = verify_witness_membership(F, points)
    if not membership.ok:
        doc = witness_violation_cert(membership.violation, F)
        v = membership.violation
        print(f"WITNESS_VIOLATION: p({list(v.face)}) breaks row {v.row} of body {v.label}")
        _emit(doc, args.out)
        return _CERT_EXIT[WITNESS_VIOLATION]

    g = assemble_witness_map(K, points, F.ambient)
    if corruption and args.corrupt_stage == "lemma":
        face, pt = corruption
        if face not in K.faces:
            raise ParseError(f"corruption face {face} is not a face of the subdivision")
        g = corrupt_witness(g, face, pt)
    disjointness = verify_remote_disjointness(g)
    if not disjointness.ok:
        v = disjointness.violation
        doc = lemma_violation_cert(v, K)
        print(f"LEMMA_VIOLATION: remote pair {list(v.alpha)}, {list(v.beta)} has intersecting images")
        _emit(doc, args.out)
        return _CERT_EXIT[LEMMA_VIOLATION]

    images = {}
    for gamma, delta in disjoint_simplex_pairs(L, d):
        if gamma not in images:
            images[gamma] = image_of_source_simplex(g, sdL, gamma).pieces
        if delta not in images:
            images[delta] = image_of_source_simplex(g, sdL, delta).pieces
        meeting = first_meeting_pieces(images[gamma], images[delta])
        if meeting is not None:
            doc = vkf_pipeline_cert(gamma, delta, *meeting, L, d)
            print(
                f"VKF_CERTIFICATE: images of disjoint {list(gamma)}, "
                f"{list(delta)} intersect"
            )
            _emit(doc, args.out)
            return _CERT_EXIT[VKF_CERTIFICATE]

    placement = moment_curve_placement(L, d)
    obs = obstruction_vanishes(L, d, placement)
    obs_doc = obstruction_report_cert(L, d, placement, obs)
    if obs.vanishes:
        print("OBSTRUCTION_REPORT: clean run, source obstruction vanishes")
        _emit(obs_doc, args.out)
        return EXIT_OK
    doc = consistency_failure_cert(
        obs_doc,
        "pipeline ran clean on a source with nonvanishing obstruction; "
        "this indicates a library fault, not a property of the input",
    )
    print("CONSISTENCY_FAILURE: clean run contradicts the nonvanishing obstruction")
    _emit(doc, args.out)
    return _CERT_EXIT[CONSISTENCY_FAILURE]


def cmd_vkf_demo(args) -> int:
    d = args.d
    if d < 1:
        raise ParseError("d must be at least 1")
    n_vertices = 2 * d + 3
    verts = range(1, n_vertices + 1)
    K = complex_from_facets(list(combinations(verts, d + 1)))
    placement = moment_curve_placement(K, d, _parse_params(args.params))
    pair = next(
        (p for p in disjoint_simplex_pairs(K, d) if placement.crossing_parity(*p)),
        None,
    )
    if pair is None:  # unreachable: the total crossing parity of this complex is odd
        raise AssertionError("no crossing pair found; the parity invariant is broken")
    gamma, delta = pair
    # one exact solve, for the intersection point the certificate names
    result = crossing(
        [placement.point(v) for v in gamma], [placement.point(v) for v in delta]
    )
    if result.parity != 1:
        raise AssertionError(f"interleaving pair {list(gamma)}, {list(delta)} does not cross")
    doc = vkf_demo_cert(gamma, delta, d, placement, result.point, K)
    print(
        f"VKF_CERTIFICATE: {list(gamma)} and {list(delta)} cross at "
        f"({', '.join(doc['point'])})"
    )
    _emit(doc, args.out)
    return _CERT_EXIT[VKF_CERTIFICATE]


def cmd_recheck(args) -> int:
    doc = load_document(args.certificate)
    ok, detail = recheck_certificate(doc)
    if ok:
        print(f"confirmed: {detail}")
        return EXIT_OK
    print(f"REFUTED: {detail}")
    return EXIT_CONSISTENCY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nervecert",
        description=(
            "Exact nerves of convex families, barycentric subdivision, and "
            "mod-2 embeddability obstruction certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a complex: skeleton N K | sd FILE | sd2 FILE")
    p.add_argument("kind", choices=["skeleton", "sd", "sd2"])
    p.add_argument("args", nargs="*")
    p.add_argument("-o", "--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("nerve", help="compute the nerve of a convex family")
    p.add_argument("family")
    p.add_argument("--mode", choices=["helly", "exhaustive"], default="helly")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("vk", help="mod-2 obstruction verdict for a complex")
    p.add_argument("complex")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--params", help="comma-separated distinct rationals, one per vertex")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_vk)

    p = sub.add_parser(
        "certificate",
        help="replay the representability pipeline on a family and source complex",
    )
    p.add_argument("family")
    p.add_argument("complex", help="source complex L; the family must represent sd L")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--corrupt-witness", help="testing hook: 'v1,v2:c1,c2' replaces p({v1,v2})")
    p.add_argument("--corrupt-stage", choices=["witness", "lemma"], default="lemma")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser(
        "vkf-demo",
        help="exhibit a crossing disjoint d-simplex pair on the moment curve",
    )
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--params", help="comma-separated distinct rationals, one per vertex")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_vkf_demo)

    p = sub.add_parser("recheck", help="re-verify a certificate document")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_recheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        print("hint: pass --params with fresh distinct rationals", file=sys.stderr)
        return EXIT_GENERICITY
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NerveCertError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
