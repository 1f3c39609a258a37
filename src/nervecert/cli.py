"""Command-line surface: builders and nerve computation; `vk`, `vkf-demo` and
`certificate` only wrap the `certificates` calls that make their documents.

Exit codes are a stable contract, kept by `_finish`: 0 ok/vanishes, 1 usage,
parse or validation error, 2 mismatch-class certificates, 3 nonvanishing or
contradiction certificates, 4 genericity failure, 5 consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import comb

from .certificates import (
    CONSISTENCY_FAILURE,
    LEMMA_VIOLATION,
    NERVE_MISMATCH,
    OBSTRUCTION_REPORT,
    VKF_CERTIFICATE,
    WITNESS_VIOLATION,
    obstruction_report,
    recheck_certificate,
    run_pipeline,
    vkf_demo,
)
from .complexes import barycentric_subdivision, skeleton_complex, subdivided_f_vector
# hulls_intersect stays bound here: bench/test_bench.py checks that the layer
# trace wraps and restores this binding.
from .convex import hulls_intersect  # noqa: F401
from .errors import GenericityError, NerveCertError, ParseError
from .fileio import (
    _canonical_int,
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
    """Print the summary line, after writing the document to ``out`` (so a failed
    write prints no verdict) or before printing it; return the implied exit code."""
    text = document_to_text(doc)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc
    print(line)
    if not out:
        sys.stdout.write(text)
    if doc.get("kind") == OBSTRUCTION_REPORT:
        return EXIT_OK if doc["vanishes"] else EXIT_CONTRADICTION
    return _CERT_EXIT.get(doc.get("kind"), EXIT_OK)  # a complex has no kind


def _parse_params(text: str | None):
    if text is None:
        return None
    return [parse_rational(part.strip()) for part in text.split(",")]


def cmd_build(args) -> int:
    if args.kind == "skeleton":
        K = skeleton_complex(args.n, args.k)
        f = tuple(comb(args.n + 1, i + 1) for i in range(args.k + 1))
        return _finish(f"skeleton({args.n},{args.k}): f-vector {f}", complex_to_doc(K), args.out)
    doc = load_document(args.complex)
    K = complex_from_doc(doc)
    f = K.f_vector()
    for _ in range(1 if args.kind == "sd" else 2):
        sd = barycentric_subdivision(K)
        doc = sd_to_doc(sd, base_doc=doc)
        K, f = sd.complex, subdivided_f_vector(f)
    return _finish(f"{args.kind}: f-vector {f}", doc, args.out)


def cmd_nerve(args) -> int:
    N = nerve_helly(family_from_doc(load_document(args.family)))
    return _finish(f"nerve: f-vector {N.f_vector()}", complex_to_doc(N), args.out)


def cmd_vk(args) -> int:
    K = complex_from_doc(load_document(args.complex))
    cert, doc = obstruction_report(K, args.d, _parse_params(args.params))
    weight = cert.cocycle.weight
    line = (
        f"vanishes: cocycle of weight {weight} is a coboundary" if cert.vanishes
        else f"nonvanishing: cocycle of weight {weight} outside the rank-{cert.rank} row space"
    )
    return _finish(line, doc, args.out)


def cmd_certificate(args) -> int:
    F = family_from_doc(load_document(args.family))
    L = complex_from_doc(load_document(args.complex))
    corruption = None
    if args.corrupt_witness:  # testing hook 'v1,v2:c1,c2'
        head, sep, tail = args.corrupt_witness.partition(":")
        if not sep:
            raise ParseError("corruption spec must look like 'v1,v2:c1,c2'")
        face = tuple(sorted(_canonical_int(v, "corruption face label") for v in head.split(",")))
        pt = parse_point([part.strip() for part in tail.split(",")], "corruption point", F.ambient)
        corruption = face, pt, args.corrupt_stage
    return _finish(*run_pipeline(F, L, args.d, corruption), args.out)


def cmd_vkf_demo(args) -> int:
    return _finish(*vkf_demo(args.d, _parse_params(args.params)), args.out)


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
    p.add_argument("-o", "--out", help="output path (default: stdout)")
    kinds = p.add_subparsers(dest="kind", required=True)
    # -o may also follow the kind; SUPPRESS keeps a -o given before it
    q = kinds.add_parser("skeleton", help="the k-skeleton of the n-simplex")
    q.add_argument("n", type=int, metavar="N")
    q.add_argument("k", type=int, metavar="K")
    q.add_argument("-o", "--out", default=argparse.SUPPRESS)
    for kind in ("sd", "sd2"):
        q = kinds.add_parser(kind, help=f"{kind} of a complex file")
        q.add_argument("complex", metavar="FILE")
        q.add_argument("-o", "--out", default=argparse.SUPPRESS)

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
