"""Linear witness maps from a subdivided nerve back into its convex family.

Each nonempty nerve face gets an exact witness point inside the intersection
of its bodies; extending linearly over the barycentric subdivision gives a
map whose key property can be audited exactly: subdivisions of remote faces
have disjoint images.  The map is represented only by its vertex images,
and an image is a union of hull pieces, one per maximal chain.  Image
disjointness is decided coarse-to-fine: one hull test on all the vertex
images of each side comes first, because those hulls contain every piece, and
only a hit falls through to the per-piece hull tests.

The map can also be pushed through a second subdivision: when the nerve is
itself the subdivision of some source complex, the image of a source simplex
is a union of pieces indexed by maximal chains, which is what the
certificate pipeline tests pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .complexes import (
    Face,
    SdComplex,
    SimplicialComplex,
    barycentric_subdivision,
    canonical_faces,
    is_remote,
    subdivided_subcomplex,
)
from .convex import Point, SimplexImage, canonical_point, hulls_intersect, make_point
from .errors import (
    DimensionMismatchError,
    NerveMismatchError,
    NotAFaceError,
    SourceLabelingError,
)
from .nerve import ConvexFamily, nerve_matches


@dataclass(eq=False)
class WitnessMap:
    """A linear map on the subdivided nerve, stored as its vertex images."""

    nerve: SimplicialComplex
    sd_nerve: SdComplex
    witness: dict[Face, Point]
    ambient: int

    def point_of(self, face) -> Point:
        return self.witness[tuple(face)]


@dataclass(frozen=True)
class MembershipViolation:
    face: Face
    label: int
    row: int
    point: Point


@dataclass
class MembershipReport:
    violation: MembershipViolation | None
    faces_checked: int

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
    """Outcome of the remote-face audit.

    ``remote_pairs`` counts the remote face pairs visited; ``piece_tests``
    counts every hull test the audit made: coarse tests of remote covers and
    of single pairs, and the per-piece tests after a coarse hit.
    """

    violation: DisjointnessViolation | None
    remote_pairs: int
    piece_tests: int

    @property
    def ok(self) -> bool:
        return self.violation is None


@dataclass(frozen=True)
class ContainmentViolation:
    chain: tuple[Face, ...]
    member: Face
    label: int
    row: int


@dataclass
class ContainmentReport:
    violation: ContainmentViolation | None
    chains_checked: int

    @property
    def ok(self) -> bool:
        return self.violation is None


def witness_points(F: ConvexFamily, K: SimplicialComplex) -> dict[Face, Point]:
    """Canonical witness point for every face of the verified nerve K.

    Refuses to fabricate witnesses when the family's nerve is not K, with a
    `NerveMismatchError` that carries the mismatch; the chosen point of a
    face is the canonical point of the stacked body system, re-verified
    against every member body exactly.
    """
    match = nerve_matches(F, K)
    if not match.is_equal:
        raise NerveMismatchError(
            f"family nerve disagrees with the claimed complex: "
            f"{match.verdict} {match.face}",
            match,
        )
    points: dict[Face, Point] = {}
    for face in canonical_faces(K.faces):
        p = canonical_point(F.subfamily_polytope(face))
        points[face] = p
    report = verify_witness_membership(F, points)
    if not report.ok:
        raise AssertionError(f"canonical point escaped its bodies: {report.violation}")
    return points


def verify_witness_membership(F: ConvexFamily, witness: dict[Face, Point]) -> MembershipReport:
    """Exact membership audit: p(face) must satisfy every row of every member body."""
    checked = 0
    for face in sorted(witness, key=lambda f: (len(f), f)):
        p = witness[face]
        checked += 1
        for label in face:
            row = F.body(label).violated_row(p)
            if row is not None:
                return MembershipReport(MembershipViolation(face, label, row, p), checked)
    return MembershipReport(None, checked)


def build_witness_map(F: ConvexFamily, K: SimplicialComplex) -> WitnessMap:
    return assemble_witness_map(K, witness_points(F, K), F.ambient)


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
    return WitnessMap(K, barycentric_subdivision(K), dict(witness), ambient)


def corrupt_witness(g: WitnessMap, face, point) -> WitnessMap:
    """Testing hook: replace one witness point, skipping all verification."""
    f = tuple(face)
    if f not in g.nerve.faces:
        raise NotAFaceError(f"{f} is not a face of the nerve")
    witness = dict(g.witness)
    witness[f] = make_point(point)
    return assemble_witness_map(g.nerve, witness, g.ambient)


def _descending_chains(top: Face):
    """Maximal chains of the subset poset below ``top``: drop one vertex per step."""
    for perm in permutations(top):
        chain = [top]
        rest = list(top)
        for v in perm[:-1]:
            rest.remove(v)
            chain.append(tuple(rest))
        yield tuple(chain)


def image_of_face(g: WitnessMap, alpha) -> SimplexImage:
    """g(|sd alpha|): one hull piece per maximal chain of the subdivided face."""
    a = tuple(alpha)
    if a not in g.nerve.faces:
        raise NotAFaceError(f"{a} is not a face of the nerve")
    pieces = tuple(
        tuple(g.witness[member] for member in chain) for chain in _descending_chains(a)
    )
    return SimplexImage(g.ambient, pieces)


def _point_union(pieces) -> tuple[Point, ...]:
    """The sorted, de-duplicated points of a list of hull pieces."""
    return tuple(sorted({make_point(p) for piece in pieces for p in piece}))


def _first_meeting(pieces_a, pieces_b):
    """`first_meeting_pieces`, plus the number of hull tests it made."""
    if not hulls_intersect(_point_union(pieces_a), _point_union(pieces_b)):
        return None, 1
    tests = 1
    for pa in pieces_a:
        for pb in pieces_b:
            tests += 1
            if hulls_intersect(pa, pb):
                return (pa, pb), tests
    return None, tests


def first_meeting_pieces(pieces_a, pieces_b):
    """First (pa, pb) in nested loop order whose hulls meet, or None.

    The hull of all points of a side contains each of its pieces, so when
    those two hulls miss, no pair of pieces meets; only a hit is scanned
    piece by piece, in the same order as the plain nested loop.
    """
    return _first_meeting(pieces_a, pieces_b)[0]


def _grow_remote(K: SimplicialComplex, vertices, face: Face, other: Face) -> Face:
    """Add vertices in ascending order while face stays a face remote from other.

    A vertex rejected once stays rejected as the face grows (faces are
    downward closed, and adjacency to ``other`` does not depend on the face),
    so one ascending pass adds the smallest admissible vertex each time.
    """
    for v in vertices:
        if v in face:
            continue
        grown = tuple(sorted(face + (v,)))
        if grown in K.faces and is_remote(K, grown, other):
            face = grown
    return face


def verify_remote_disjointness(g: WitnessMap) -> DisjointnessReport:
    """Audit g(|sd alpha|) n g(|sd beta|) = {} over every remote face pair.

    Pairs are visited in canonical order.  Each pair (alpha, beta) is first
    grown to a remote cover (alpha', beta') by `_grow_remote`; a sub-pair of
    a remote pair is remote and sd alpha lies in sd alpha', so one clean hull
    test of the cover's vertex images (memoized per cover) proves every pair
    it covers disjoint.  Only pairs whose cover hits are tested with
    `first_meeting_pieces`, so the first violation is the one the plain
    piece-by-piece scan finds.  A hit can only come from corrupted witness
    data; the returned violation carries the two offending hull pieces as
    the proof.
    """
    K = g.nerve
    faces = canonical_faces(K.faces)
    vertices = sorted(K.vertices)
    pieces: dict[Face, tuple[tuple[Point, ...], ...]] = {}
    cover_clean: dict[tuple[Face, Face], bool] = {}
    remote_pairs = 0
    piece_tests = 0

    def image(face: Face):
        if face not in pieces:
            pieces[face] = image_of_face(g, face).pieces
        return pieces[face]

    for i, alpha in enumerate(faces):
        for beta in faces[i + 1:]:
            if not is_remote(K, alpha, beta):
                continue
            remote_pairs += 1
            cover_a = _grow_remote(K, vertices, alpha, beta)
            cover = (cover_a, _grow_remote(K, vertices, beta, cover_a))
            if cover not in cover_clean:
                piece_tests += 1
                cover_clean[cover] = not hulls_intersect(
                    _point_union(image(cover[0])), _point_union(image(cover[1]))
                )
            if cover_clean[cover]:
                continue
            meeting, tests = _first_meeting(image(alpha), image(beta))
            piece_tests += tests
            if meeting is not None:
                return DisjointnessReport(
                    DisjointnessViolation(alpha, beta, *meeting),
                    remote_pairs,
                    piece_tests,
                )
    return DisjointnessReport(None, remote_pairs, piece_tests)


def verify_containment(g: WitnessMap, F: ConvexFamily) -> ContainmentReport:
    """Exact form of the containment step: chain members sit inside the chain bottom.

    For every maximal chain of the nerve's face poset, each member's witness
    point must lie in the intersection over the chain's minimal face; the
    hull of the chain is then inside that intersection by convexity, hence
    inside the union over the chain's top face.
    """
    chains_checked = 0
    for facet in g.nerve.facets():
        for chain in _descending_chains(facet):
            chains_checked += 1
            bottom = chain[-1]
            for member in chain:
                p = g.witness[member]
                for label in bottom:
                    row = F.body(label).violated_row(p)
                    if row is not None:
                        return ContainmentReport(
                            ContainmentViolation(chain, member, label, row),
                            chains_checked,
                        )
    return ContainmentReport(None, chains_checked)


def image_of_source_simplex(g: WitnessMap, sd_source: SdComplex, gamma) -> SimplexImage:
    """g(|gamma|) for a face of the source complex, via the double subdivision.

    Requires the nerve to be the subdivision of the source complex under the
    explicit labeling carried by ``sd_source``; the image decomposes into one
    piece per maximal chain of the subdivided subcomplex sitting over gamma.
    """
    if (
        sd_source.complex.faces != g.nerve.faces
        or sd_source.complex.vertices != g.nerve.vertices
    ):
        raise SourceLabelingError(
            "witness map nerve is not the given subdivision of the source complex"
        )
    gam = tuple(gamma)
    if gam not in sd_source.base.faces:
        raise NotAFaceError(f"{gam} is not a face of the source complex")
    sub = subdivided_subcomplex(sd_source, gam)
    members = set(sub)
    sets = {f: frozenset(f) for f in sub}
    facets = [f for f in sub if not any(sets[f] < sets[h] for h in sub)]
    pieces = []
    for facet in canonical_faces(facets):
        for chain in _descending_chains(facet):
            if any(part not in members for part in chain):
                raise AssertionError("subdivided subcomplex is not downward closed")
            pieces.append(tuple(g.witness[part] for part in chain))
    return SimplexImage(g.ambient, tuple(pieces))
