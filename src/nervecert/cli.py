"""Command-line surface: builders, nerve computation, obstruction verdicts,
and the end-to-end certificate pipeline.

The pipeline checks the nerve against sd L face by face while it computes
the canonical witness points, then runs the one membership audit, which
proves the remote-face lemma, and the obstruction verdict.  The
`--corrupt-witness` hook places its point before that audit; the stage
decides whether a violation is reported (`witness`) or goes to the
hull-test audit (`lemma`).  `VKF_CERTIFICATE` comes only from `vkf-demo`.

Exit codes are a stable contract, kept by `_finish`: 0 ok/vanishes, 1 usage,
parse or validation error, 2 mismatch-class certificates, 3 nonvanishing or
contradiction certificates, 4 genericity failure, 5 consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
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
from .nerve import nerve_helly
from .obstruction import moment_curve_placement, obstruction_vanishes
from .witness import (
    assemble_witness_map,
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


def _finish(line: str, doc: dict, out: str | None) -> int:
    """Print the summary line, write the document, return the exit code it implies."""
    print(line)
    text = document_to_text(doc)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    if doc.get("kind") == OBSTRUCTION_REPORT:
        return EXIT_OK if doc["vanishes"] else EXIT_CONTRADICTION
    return _CERT_EXIT.get(doc.get("kind"), EXIT_OK)  # a complex has no kind


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
        return _finish(f"skeleton({n},{k}): f-vector {K.f_vector()}", complex_to_doc(K), args.out)
    if args.kind in ("sd", "sd2"):
        if len(args.args) != 1:
            raise ParseError(f"usage: build {args.kind} COMPLEX_FILE")
        doc = load_document(args.args[0])
        K, _ = complex_from_doc(doc)
        sd = barycentric_subdivision(K)
        doc = sd_to_doc(sd, base_doc=doc)
        if args.kind == "sd2":
            sd = barycentric_subdivision(sd.complex)
            doc = sd_to_doc(sd, base_doc=doc)
        return _finish(f"{args.kind}: f-vector {sd.complex.f_vector()}", doc, args.out)
    raise ParseError(f"unknown build kind {args.kind!r}")


def cmd_nerve(args) -> int:
    N = nerve_helly(family_from_doc(load_document(args.family)))
    return _finish(f"nerve: f-vector {N.f_vector()}", complex_to_doc(N), args.out)


def cmd_vk(args) -> int:
    K, _ = complex_from_doc(load_document(args.complex))
    placement = moment_curve_placement(K, args.d, _parse_params(args.params))
    cert = obstruction_vanishes(K, args.d, placement)
    weight = cert.cocycle.weight
    line = (
        f"vanishes: cocycle of weight {weight} is a coboundary" if cert.vanishes
        else f"nonvanishing: cocycle of weight {weight} outside the rank-{cert.rank} row space"
    )
    return _finish(line, obstruction_report_cert(K, args.d, placement, cert), args.out)


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
    K = barycentric_subdivision(L).complex
    face = pt = stage = None
    if args.corrupt_witness:
        face, pt = _parse_corruption(args.corrupt_witness, F.ambient)
        if face not in K.faces:
            raise ParseError(f"corruption face {face} is not a face of the subdivision")
        stage = args.corrupt_stage

    try:  # the nerve check inside witness_points is the only one
        points = witness_points(F, K)
    except NerveMismatchError as exc:
        match = exc.match
        line = f"NERVE_MISMATCH: {match.verdict} {list(match.face)}"
        return _finish(line, nerve_mismatch_cert(match, F, K), args.out)
    if stage is not None:
        points[face] = pt
    # every other point passed its centre's check, so only p(face) can fail here
    v = verify_witness_membership(F, points).violation
    if v is not None:
        if stage != "lemma":
            line = f"WITNESS_VIOLATION: p({list(v.face)}) breaks row {v.row} of body {v.label}"
            return _finish(line, witness_violation_cert(v, F), args.out)
        # membership proves the lemma; the audit only names a hook's violating pair
        v = verify_remote_disjointness(assemble_witness_map(K, points, F.ambient)).violation
        if v is not None:
            line = (
                f"LEMMA_VIOLATION: remote pair {list(v.alpha)}, {list(v.beta)} "
                "has intersecting images"
            )
            return _finish(line, lemma_violation_cert(v, K), args.out)

    placement = moment_curve_placement(L, d)
    obs = obstruction_vanishes(L, d, placement)
    obs_doc = obstruction_report_cert(L, d, placement, obs)
    if obs.vanishes:
        line = "OBSTRUCTION_REPORT: clean run, source obstruction vanishes"
        return _finish(line, obs_doc, args.out)
    doc = consistency_failure_cert(
        obs_doc,
        "pipeline ran clean on a source with nonvanishing obstruction; "
        "this indicates a library fault, not a property of the input",
    )
    line = "CONSISTENCY_FAILURE: clean run contradicts the nonvanishing obstruction"
    return _finish(line, doc, args.out)


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
    point = ", ".join(doc["point"])
    line = f"VKF_CERTIFICATE: {list(gamma)} and {list(delta)} cross at ({point})"
    return _finish(line, doc, args.out)


def cmd_recheck(args) -> int:
    doc = load_document(args.certificate)
    ok, detail = recheck_certificate(doc)
    if ok:
        print(f"confirmed: {detail}")
        return EXIT_OK
    print(f"REFUTED: {detail}")
    return EXIT_CONSISTENCY


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `ParseError`, so it exits 1 like any bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("nerve", help="compute the nerve of a convex family")
    p.add_argument("family")
    p.add_argument("-o", "--out")

    p = sub.add_parser("vk", help="mod-2 obstruction verdict for a complex")
    p.add_argument("complex")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--params", help="comma-separated distinct rationals, one per vertex")
    p.add_argument("-o", "--out")

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

    p = sub.add_parser(
        "vkf-demo",
        help="exhibit a crossing disjoint d-simplex pair on the moment curve",
    )
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--params", help="comma-separated distinct rationals, one per vertex")
    p.add_argument("-o", "--out")

    p = sub.add_parser("recheck", help="re-verify a certificate document")
    p.add_argument("certificate")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Looked up at call time, so a rebound cmd_* (a trace, a test double) runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        print("hint: pass --params with fresh distinct rationals", file=sys.stderr)
        return EXIT_GENERICITY
    except (NerveCertError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
