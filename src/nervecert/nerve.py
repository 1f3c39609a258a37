"""Nerves of finite convex families, exactly.

Every nerve question runs on one level walk, `walk`: a level's candidates
are the sets whose facets were all kept at the level before
(`next_candidates`), a predicate decides each in (size, lex) order, and the
kept faces come back in that order.  The exhaustive engine tests every
candidate for a common point and is kept as a cross-check oracle; the Helly
engine's test, `meets`, closes faces past size m+1 combinatorially -- in
R^m a family has a common point exactly when every m+1 of its members do.
A pair is first tried by its exact bounding boxes (`convex.boxes_disjoint`),
which settle most disjoint pairs without a pair LP.  A body's bounds are
computed only as the scan reads them, on its feasibility dictionary: here
the one that decided its own vertex, since a one-body face system is the
body itself (`subfamily_polytope`).  The walk costs about the nerve's faces
times the bodies, so the body count is not capped.

The certificate pipeline does not enumerate: `witness.witness_points`
walks the claimed complex and stops at the first mismatch.  A candidate
outside the claim gets the same test as here; a claimed face is decided by
the radius stage of its inscribed ball.  A body's vertex is such a face, so
there the body's first bound read builds it a second dictionary.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .complexes import Face, SimplicialComplex, canonical_faces, complex_from_facets
from .convex import HPolytope, boxes_disjoint, polytope_is_empty
from .errors import DimensionMismatchError, LabelMismatchError


@dataclass(frozen=True)
class ConvexFamily:
    """Labeled convex bodies sharing one ambient dimension."""

    ambient: int
    bodies: tuple[tuple[int, HPolytope], ...]

    @classmethod
    def of(cls, ambient: int, bodies) -> "ConvexFamily":
        entries = tuple((int(label), body) for label, body in bodies)
        labels = [label for label, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError("family labels must be distinct")
        for label, body in entries:
            if label < 0:
                raise ValueError(f"labels must be nonnegative integers, got {label}")
            if body.ambient != ambient:
                raise DimensionMismatchError(
                    f"body {label} lives in R^{body.ambient}, family in R^{ambient}"
                )
        return cls(ambient, entries)

    @cached_property
    def _by_label(self) -> dict[int, HPolytope]:
        return dict(self.bodies)

    @cached_property
    def _sorted_labels(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_label))

    def labels(self) -> tuple[int, ...]:
        return self._sorted_labels

    def body(self, label: int) -> HPolytope:
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"no body labeled {label}") from None

    def subfamily_polytope(self, face) -> HPolytope:
        """Stacked constraint system of the bodies named by a face.

        A one-body face gives the body itself; a larger one merges the
        bodies' memoized reduced rows (`HPolytope.stack`).
        """
        return HPolytope.stack([self.body(label) for label in face])


@dataclass(frozen=True)
class NerveMatch:
    """Verdict of comparing a claimed complex against a family's nerve."""

    verdict: str  # "equal" | "missing_face" | "extra_face"
    face: Face | None

    EQUAL = "equal"
    MISSING = "missing_face"
    EXTRA = "extra_face"

    @property
    def is_equal(self) -> bool:
        return self.verdict == NerveMatch.EQUAL


def face_has_common_point(F: ConvexFamily, face: Face) -> bool:
    """Whether the bodies of ``face`` share a point: the box test for a pair, then an LP."""
    if len(face) == 2 and boxes_disjoint(F.body(face[0]), F.body(face[1])):
        return False
    return not polytope_is_empty(F.subfamily_polytope(face))


def check_labels(F: ConvexFamily, K: SimplicialComplex) -> None:
    """Raise LabelMismatchError unless the family labels are K's vertices."""
    if set(F.labels()) != set(K.vertices):
        raise LabelMismatchError(
            f"family labels {sorted(F.labels())} != complex vertices {sorted(K.vertices)}"
        )


def next_candidates(level: list[Face], labels: tuple[int, ...]) -> list[Face]:
    """The sets one vertex larger than ``level``'s faces whose facets all lie in it.

    ``level`` holds faces of one size in lexicographic order, and so does
    the result: each face is extended by every larger label.
    """
    prev = set(level)
    out: list[Face] = []
    for base in level:
        for label in labels:
            if label > base[-1]:
                cand = base + (label,)
                # the facet that drops the new label is base itself
                if all(cand[:i] + cand[i + 1:] in prev for i in range(len(base))):
                    out.append(cand)
    return out


def walk(F: ConvexFamily, keep: Callable[[Face], bool]) -> list[Face]:
    """The faces ``keep`` accepts, level by level in (size, lex) order.

    Each level's candidates come from the faces kept at the level before
    (`next_candidates`), so ``keep`` sees every candidate exactly once, in
    walk order, and never a set with a rejected facet.
    """
    labels = F.labels()
    level = [(label,) for label in labels if keep((label,))]
    faces = list(level)
    while level:
        level = [cand for cand in next_candidates(level, labels) if keep(cand)]
        faces.extend(level)
    return faces


def meets(F: ConvexFamily, face: Face) -> bool:
    """Whether a walk candidate's bodies meet: by Helly past m + 1, else `face_has_common_point`."""
    return len(face) > F.ambient + 1 or face_has_common_point(F, face)


def nerve_exhaustive(F: ConvexFamily) -> SimplicialComplex:
    """Nerve by LP-testing every candidate subfamily (supersets of empty ones pruned)."""
    return complex_from_facets(walk(F, lambda face: face_has_common_point(F, face)))


def nerve_helly(F: ConvexFamily) -> SimplicialComplex:
    """Nerve with LPs only up to subfamily size m+1; larger faces close combinatorially."""
    return complex_from_facets(walk(F, lambda face: meets(F, face)))


def nerve_matches(
    F: ConvexFamily, K: SimplicialComplex, engine=nerve_helly
) -> NerveMatch:
    """Compare the family's nerve against K under the shared labeling.

    On mismatch returns the minimal-cardinality, lexicographically least
    witness face, tagged missing_face when K claims a face the nerve lacks
    and extra_face when the nerve has a face K lacks.
    """
    check_labels(F, K)
    nerve = engine(F)
    if nerve == K:
        return NerveMatch(NerveMatch.EQUAL, None)
    missing = K.faces - nerve.faces
    extra = nerve.faces - K.faces
    witness = canonical_faces(missing | extra)[0]
    verdict = NerveMatch.MISSING if witness in missing else NerveMatch.EXTRA
    return NerveMatch(verdict, witness)
