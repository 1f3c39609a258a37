"""Abstract simplicial complexes with exact, deterministic enumeration.

Faces are strictly increasing tuples of nonnegative integer vertex ids.
Complexes are stored downward closed: every constructor either closes its
input or is closed by construction.  Barycentric subdivision keeps an
explicit bijection between the new vertices and the faces of the complex it
subdivides, because later stages need lookups in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import NotAFaceError

Face = tuple[int, ...]


def make_face(vertices) -> Face:
    """Canonicalize a vertex collection into a face tuple.

    Raises ValueError on an empty collection, a duplicate vertex, or a
    vertex id that is not a nonnegative integer.
    """
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("a face needs at least one vertex")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex ids must be nonnegative integers, got {v!r}")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a} in face {vertices!r}")
    return vs


def canonical_faces(faces) -> list[Face]:
    """Deterministic enumeration order: by dimension, then lexicographically."""
    return sorted(faces, key=lambda f: (len(f), f))


def downward_closure(faces) -> frozenset[Face]:
    closed: set[Face] = set()
    for f in faces:
        for size in range(1, len(f) + 1):
            closed.update(combinations(f, size))
    return frozenset(closed)


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex: vertex ids plus a downward-closed face set."""

    vertices: frozenset[int]
    faces: frozenset[Face]

    @classmethod
    def from_faces(cls, faces) -> "SimplicialComplex":
        """Build the downward closure of arbitrary faces."""
        closed = downward_closure(make_face(f) for f in faces)
        return cls(frozenset(v for f in closed for v in f), closed)

    @property
    def dim(self) -> int:
        """Dimension of the largest face; -1 for the empty complex."""
        return max((len(f) for f in self.faces), default=0) - 1

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    def faces_of_dim(self, k: int) -> list[Face]:
        return sorted(f for f in self.faces if len(f) == k + 1)

    def has_face(self, f) -> bool:
        return tuple(f) in self.faces

    @cached_property
    def edge_set(self) -> frozenset[Face]:
        return frozenset(f for f in self.faces if len(f) == 2)

    def canonical(self) -> list[Face]:
        return canonical_faces(self.faces)

    def facets(self) -> list[Face]:
        """Maximal faces, canonically ordered.

        The face set is downward closed, so a face lies under a larger one
        exactly when it is a codimension-1 subface of some face.
        """
        covered = {f[:i] + f[i + 1:] for f in self.faces for i in range(len(f))}
        return canonical_faces(self.faces.difference(covered))

    @cached_property
    def _pair_indexes(self) -> dict[int, PairIndex]:
        return {}

    def pair_index(self, d: int) -> PairIndex:
        """The d-faces and their vertex-disjoint pairs, found once per dimension."""
        index = self._pair_indexes.get(d)
        if index is None:
            index = self._pair_indexes[d] = PairIndex.build(self, d)
        return index

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on breakage."""
        for f in self.faces:
            if f != make_face(f):
                raise ValueError(f"non-canonical face {f!r}")
            for v in f:
                if v not in self.vertices:
                    raise ValueError(f"face {f} uses unknown vertex {v}")
            for size in range(1, len(f)):
                for sub in combinations(f, size):
                    if sub not in self.faces:
                        raise ValueError(f"not downward closed: {sub} missing under {f}")
        for v in self.vertices:
            if (v,) not in self.faces:
                raise ValueError(f"vertex {v} has no singleton face")


class PairIndex(NamedTuple):
    """The d-faces of a complex and their unordered vertex-disjoint pairs.

    ``vertex_bits`` gives each vertex its own power of two; ``faces`` is
    sorted and ``masks`` holds each face's vertex bitmask; ``ids`` lists the
    disjoint pairs as positions (i, j), i < j, in canonical order, and
    ``pairs`` the same pairs as faces.
    """

    vertex_bits: dict[int, int]
    faces: list[Face]
    masks: list[int]
    ids: list[tuple[int, int]]
    pairs: tuple[tuple[Face, Face], ...]

    @classmethod
    def build(cls, K: SimplicialComplex, d: int) -> PairIndex:
        bits = {v: 1 << i for i, v in enumerate(sorted(K.vertices))}
        faces = K.faces_of_dim(d)
        masks = [sum([bits[v] for v in f]) for f in faces]
        ids = [
            (i, j)
            for i, mask in enumerate(masks)
            for j in range(i + 1, len(faces))
            if not mask & masks[j]
        ]
        return cls(bits, faces, masks, ids, tuple([(faces[i], faces[j]) for i, j in ids]))


def complex_from_facets(facets) -> SimplicialComplex:
    """Downward closure of the given facets (duplicate vertices inside one facet are an error)."""
    return SimplicialComplex.from_faces(facets)


def skeleton_complex(n: int, k: int) -> SimplicialComplex:
    """The k-skeleton of the full n-simplex on vertices {0, ..., n}."""
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        raise ValueError(f"skeleton dimension {k} exceeds simplex dimension {n}")
    verts = range(n + 1)
    faces = frozenset(
        sub for size in range(1, k + 2) for sub in combinations(verts, size)
    )
    return SimplicialComplex(frozenset(verts), faces)


@dataclass(eq=False)
class SdComplex:
    """A barycentric subdivision together with its vertex-label bijection.

    ``labels`` maps each subdivision vertex to the face of ``base`` it is the
    barycenter of; ``vertex_ids`` is the inverse.  A vertex set of
    ``complex`` is a face exactly when its labels form a strict inclusion
    chain.
    """

    complex: SimplicialComplex
    base: SimplicialComplex
    labels: dict[int, Face]
    vertex_ids: dict[Face, int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.vertex_ids is None:
            self.vertex_ids = {f: v for v, f in self.labels.items()}

    def vertex_for(self, f: Face) -> int:
        return self.vertex_ids[tuple(f)]

    def validate(self) -> None:
        """Check the chain criterion in both directions (intended for tests)."""
        self.complex.validate()
        if set(self.labels.values()) != set(self.base.faces):
            raise ValueError("labels are not a bijection onto the base faces")
        for f in self.complex.faces:
            chain = sorted((self.labels[v] for v in f), key=len, reverse=True)
            for big, small in zip(chain, chain[1:]):
                if not set(small) < set(big):
                    raise ValueError(f"face {f} labels do not form a strict chain")
        rebuilt = barycentric_subdivision(self.base)
        if rebuilt.complex.faces != self.complex.faces:
            raise ValueError("face set disagrees with the chain enumeration")


def barycentric_subdivision(K: SimplicialComplex) -> SdComplex:
    """Subdivide: one new vertex per nonempty face, faces are strict inclusion chains.

    New vertex ids are assigned in canonical (dimension, lex) order of the
    faces of ``K``, so the construction is deterministic and the geometric
    realization is unchanged.
    """
    order = canonical_faces(K.faces)
    vertex_ids = {f: i for i, f in enumerate(order)}
    labels = {i: f for f, i in vertex_ids.items()}
    # chains_from[f] holds every strict descending chain starting at f; faces
    # are processed smallest first so all proper subsets are already done.
    chains_from: dict[Face, list[tuple[Face, ...]]] = {}
    for f in order:
        tails: list[tuple[Face, ...]] = [(f,)]
        for size in range(1, len(f)):
            for sub in combinations(f, size):
                tails.extend((f,) + c for c in chains_from[sub])
        chains_from[f] = tails
    faces = frozenset(
        tuple(sorted(vertex_ids[m] for m in chain))
        for f in order
        for chain in chains_from[f]
    )
    sd = SimplicialComplex(frozenset(labels), faces)
    return SdComplex(sd, K, labels, vertex_ids)


def is_remote(K: SimplicialComplex, alpha, beta) -> bool:
    """True iff the faces share no vertex and no edge of K joins them."""
    a = tuple(alpha)
    b = tuple(beta)
    if a not in K.faces:
        raise NotAFaceError(f"{a} is not a face of the complex")
    if b not in K.faces:
        raise NotAFaceError(f"{b} is not a face of the complex")
    if set(a) & set(b):
        return False
    edges = K.edge_set
    return not any(
        ((u, v) if u < v else (v, u)) in edges for u in a for v in b
    )


def disjoint_simplex_pairs(K: SimplicialComplex, d: int) -> list[tuple[Face, Face]]:
    """All unordered pairs of vertex-disjoint d-faces, canonically ordered.

    The pairs come from the complex's memoized `PairIndex`; every call
    returns a fresh list of them.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got {d}")
    return list(K.pair_index(d).pairs)


def subdivided_subcomplex(sdK: SdComplex, alpha) -> list[Face]:
    """The faces of sd K whose vertex labels all lie inside ``alpha``.

    This is the subdivision of ``alpha`` sitting inside the subdivision of
    the whole complex.
    """
    a = tuple(alpha)
    if a not in sdK.base.faces:
        raise NotAFaceError(f"{a} is not a face of the subdivided complex's base")
    inside = frozenset(
        v for v, lab in sdK.labels.items() if set(lab) <= set(a)
    )
    return canonical_faces(
        f for f in sdK.complex.faces if all(v in inside for v in f)
    )
