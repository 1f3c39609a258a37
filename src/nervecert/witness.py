"""Linear witness maps from a subdivided nerve back into its convex family.

Each nonempty nerve face gets an exact witness point inside the intersection
of its bodies; extending linearly over the barycentric subdivision gives a
map whose key property can be audited exactly: subdivisions of remote faces
have disjoint images.  The map is represented only by its vertex images --
every geometric query decomposes into per-piece convex-hull queries.

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


def verify_remote_disjointness(g: WitnessMap) -> DisjointnessReport:
    """Audit g(|sd alpha|) n g(|sd beta|) = {} over every remote face pair.

    A hit can only come from corrupted witness data; the returned violation
    carries the two offending hull pieces as the proof.
    """
    faces = canonical_faces(g.nerve.faces)
    pieces: dict[Face, tuple[tuple[Point, ...], ...]] = {}
    remote_pairs = 0
    piece_tests = 0
    for i, alpha in enumerate(faces):
        for beta in faces[i + 1:]:
            if not is_remote(g.nerve, alpha, beta):
                continue
            remote_pairs += 1
            if alpha not in pieces:
                pieces[alpha] = image_of_face(g, alpha).pieces
            if beta not in pieces:
                pieces[beta] = image_of_face(g, beta).pieces
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
