"""Linear witness maps from a subdivided nerve back into its convex family.

Each nonempty nerve face gets an exact witness point inside the intersection
of its bodies.  `witness_points` checks a claimed nerve face by face, so the
claim is verified without enumerating the family's nerve, and the first
face where claim and family disagree is raised as the mismatch.  The check
needs only the radius stage of each face's ball; the points are finished
once the whole claim has passed.  Extending linearly over the barycentric
subdivision gives a map whose key property is the remote-face lemma:
subdivisions of remote faces have disjoint images.  The membership audit
proves it.  When p(sigma) lies in C_v for every v in sigma, each piece of
g(|sd alpha|) (the hull of the points of a maximal chain) lies in the body
of the chain's bottom vertex, and remote faces have no nerve edge between
them, so their images lie in disjoint bodies.  The map is represented only
by its vertex images; the hull-test audit `verify_remote_disjointness`
scans the pieces of every remote pair and is kept to name the two pieces
of a map that fails membership.

The map can also be pushed through a second subdivision: when the nerve is
itself the subdivision of some source complex, the maximal chains of a
source simplex are the top faces of its subdivision, and its image is the
union of the images of those tops (`complexes.maximal_chains` at both
levels).  The certificate pipeline does not test those images: pieces of
disjoint source simplices are pieces of remote faces, which membership
already proves disjoint.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .complexes import (
    Face,
    SdComplex,
    SimplicialComplex,
    canonical_faces,
    is_remote,
    maximal_chains,
)
from .convex import Point, hulls_intersect, inscribed_radius
from .errors import (
    DimensionMismatchError,
    EmptyPolytopeError,
    NerveMismatchError,
    NotAFaceError,
    SourceLabelingError,
    UnboundedPolytopeError,
)
from .nerve import (
    ConvexFamily,
    NerveMatch,
    check_labels,
    face_has_common_point,
    helly_closed,
    walk,
)


@dataclass(eq=False)
class WitnessMap:
    """A linear map on the subdivided nerve, stored as its vertex images."""

    nerve: SimplicialComplex
    witness: dict[Face, Point]
    ambient: int


@dataclass(frozen=True)
class MembershipViolation:
    face: Face
    label: int
    row: int
    point: Point


@dataclass
class MembershipReport:
    violation: MembershipViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


@dataclass(frozen=True)
class DisjointnessViolation:
    alpha: Face
    beta: Face
    piece_a: tuple[Point, ...]
    piece_b: tuple[Point, ...]


@dataclass
class DisjointnessReport:
    """Outcome of the hull-test audit of the remote-face lemma.

    ``remote_pairs`` counts the remote face pairs visited; ``piece_tests``
    counts the piece-pair hull tests made, one per pair of pieces scanned.
    """

    violation: DisjointnessViolation | None
    remote_pairs: int
    piece_tests: int

    @property
    def ok(self) -> bool:
        return self.violation is None


def witness_points(F: ConvexFamily, K: SimplicialComplex) -> dict[Face, Point]:
    """Canonical witness point for every face of K, once K is the family's nerve.

    The nerve is checked against K, not enumerated: `nerve.walk` offers
    the candidates in (size, lex) order, and its predicate decides each:

    - a candidate that is a face of K runs the radius stage of its stacked
      body system's ball (`convex.inscribed_radius`), and an empty system
      is a ``missing_face``;
    - any other candidate is a minimal non-face of K, and it is an
      ``extra_face`` when its bodies share a point: by Helly
      (`nerve.helly_closed`), else by the box test and an LP.

    Faces agree below the level being walked, so every face of K and every
    face of the nerve of that size is a candidate, and the first mismatch
    is the least by (size, lex), the one `nerve_matches` names.  It raises
    `NerveMismatchError` carrying that `NerveMatch`, and no coordinate
    stage has run by then.  Once the walk finds no mismatch, each face's
    coordinate stages run in walk order, from where its radius stage
    stopped.  An unbounded face system still proves the face nonempty, so
    the first one in walk order, radius or coordinate, is raised only then.
    The centre is checked against every row of its system, so nothing is
    audited here; callers that may corrupt points run
    `verify_witness_membership` themselves.  No body cap applies.
    """
    check_labels(F, K)
    # each face of K in walk order, with its centre call or its unbounded radius
    passed: list[tuple[Face, Callable[[], Point] | UnboundedPolytopeError]] = []

    def keep(face: Face) -> bool:
        if face not in K.faces:
            if helly_closed(F, face) or face_has_common_point(F, face):
                raise _mismatch(NerveMatch.EXTRA, face)
            return False
        try:
            passed.append((face, inscribed_radius(F.subfamily_polytope(face))[1]))
        except EmptyPolytopeError:
            raise _mismatch(NerveMatch.MISSING, face) from None
        except UnboundedPolytopeError as exc:
            passed.append((face, exc))
        return True

    walk(F, keep)
    points: dict[Face, Point] = {}
    for face, centre in passed:
        if isinstance(centre, UnboundedPolytopeError):
            raise centre
        points[face] = centre()
    return points


def _mismatch(verdict: str, face: Face) -> NerveMismatchError:
    return NerveMismatchError(
        f"family nerve disagrees with the claimed complex: {verdict} {face}",
        NerveMatch(verdict, face),
    )


def verify_witness_membership(F: ConvexFamily, witness: dict[Face, Point]) -> MembershipReport:
    """Exact membership audit: p(face) must satisfy every row of every member body."""
    for face in sorted(witness, key=lambda f: (len(f), f)):
        p = witness[face]
        for label in face:
            row = F.body(label).violated_row(p)
            if row is not None:
                return MembershipReport(MembershipViolation(face, label, row, p))
    return MembershipReport(None)


def assemble_witness_map(
    K: SimplicialComplex, witness: dict[Face, Point], ambient: int
) -> WitnessMap:
    """Wrap precomputed vertex images (no membership verification here)."""
    for face, p in witness.items():
        if face not in K.faces:
            raise NotAFaceError(f"witness key {face} is not a face of the nerve")
        if len(p) != ambient:
            raise DimensionMismatchError(
                f"witness point for {face} has {len(p)} coordinates, ambient is {ambient}"
            )
    if set(witness) != set(K.faces):
        raise ValueError("witness assignment must cover every nerve face")
    return WitnessMap(K, dict(witness), ambient)


def image_of_face(g: WitnessMap, alpha) -> tuple[tuple[Point, ...], ...]:
    """g(|sd alpha|): one hull piece per maximal chain of the subdivided face."""
    a = tuple(alpha)
    if a not in g.nerve.faces:
        raise NotAFaceError(f"{a} is not a face of the nerve")
    return tuple(
        tuple(g.witness[member] for member in chain) for chain in maximal_chains(a)
    )


def verify_remote_disjointness(g: WitnessMap) -> DisjointnessReport:
    """Audit g(|sd alpha|) n g(|sd beta|) = {} over every remote face pair.

    Pairs are visited in canonical order and their pieces in nested loop
    order.  A map whose points pass `verify_witness_membership` passes too,
    provided the nerve is the family's nerve, so a hit can only come from
    corrupted witness data; the returned violation carries the two offending
    hull pieces as the proof.
    """
    K = g.nerve
    faces = canonical_faces(K.faces)
    pieces: dict[Face, tuple[tuple[Point, ...], ...]] = {}
    remote_pairs = 0
    piece_tests = 0
    for i, alpha in enumerate(faces):
        for beta in faces[i + 1:]:
            if not is_remote(K, alpha, beta):
                continue
            remote_pairs += 1
            for face in (alpha, beta):
                if face not in pieces:
                    pieces[face] = image_of_face(g, face)
            for pa in pieces[alpha]:
                for pb in pieces[beta]:
                    piece_tests += 1
                    if hulls_intersect(pa, pb):
                        return DisjointnessReport(
                            DisjointnessViolation(alpha, beta, pa, pb),
                            remote_pairs,
                            piece_tests,
                        )
    return DisjointnessReport(None, remote_pairs, piece_tests)


def image_of_source_simplex(
    g: WitnessMap, sd_source: SdComplex, gamma
) -> tuple[tuple[Point, ...], ...]:
    """g(|gamma|) for a face of the source complex, via the double subdivision.

    Requires the nerve to be the subdivision of the source complex under the
    explicit labeling carried by ``sd_source``.  The tops of sd gamma are the
    vertex-id sets of the maximal chains of gamma; the pieces are those of
    `image_of_face` for each top, tops in canonical order.
    """
    if sd_source.complex != g.nerve:
        raise SourceLabelingError(
            "witness map nerve is not the given subdivision of the source complex"
        )
    gam = tuple(gamma)
    if gam not in sd_source.base.faces:
        raise NotAFaceError(f"{gam} is not a face of the source complex")
    tops = canonical_faces(
        tuple(sorted(sd_source.vertex_ids[m] for m in chain)) for chain in maximal_chains(gam)
    )
    return tuple(piece for top in tops for piece in image_of_face(g, top))
