"""Abstract simplicial complexes with exact, deterministic enumeration.

Faces are strictly increasing tuples of nonnegative integer vertex ids.
A complex is held by its maximal faces alone, so its dimension is known
before any of the 2^n faces of an n-vertex facet is built; the face set is
built when it is first read.  Barycentric subdivision keeps an explicit
bijection between the new vertices and the faces of the complex it
subdivides, because later stages need lookups in both directions; its
f-vector is counted from that complex's (`subdivided_f_vector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from math import comb
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


def maximal_chains(top: Face):
    """Maximal chains of the faces of ``top``: drop one vertex per step, in permutation order."""
    for perm in permutations(top):
        chain = [top]
        rest = list(top)
        for v in perm[:-1]:
            rest.remove(v)
            chain.append(tuple(rest))
        yield tuple(chain)


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex, held by its maximal faces.

    ``_maximal`` lists them in canonical order, so two complexes are equal
    exactly when their face sets are.  Dimension, vertices, face membership
    and edges are read off the maximal faces; the face set, 2^n faces per
    maximal face of n vertices, is built only when ``faces`` is read.
    """

    _maximal: tuple[Face, ...]

    @property
    def dim(self) -> int:
        """Dimension of the largest face; -1 for the empty complex."""
        return max(map(len, self._maximal), default=0) - 1

    @cached_property
    def _holders(self) -> dict[int, set[int]]:
        """Each vertex's positions in ``_maximal`` of the maximal faces that contain it."""
        holders: dict[int, set[int]] = {}
        for i, f in enumerate(self._maximal):
            _hold(holders, f, i)
        return holders

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for f in self._maximal for v in f)

    @cached_property
    def faces(self) -> frozenset[Face]:
        """Every face: the downward closure of the maximal faces."""
        return frozenset(
            sub for f in self._maximal for size in range(1, len(f) + 1)
            for sub in combinations(f, size)
        )

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    def faces_of_dim(self, k: int) -> list[Face]:
        """The k-faces, sorted, taken from the maximal faces without the closure."""
        return sorted({sub for f in self._maximal if len(f) > k for sub in combinations(f, k + 1)})

    def has_face(self, f) -> bool:
        """Whether ``f`` is a strictly increasing vertex tuple inside a maximal face."""
        f = tuple(f)
        return bool(f) and all(a < b for a, b in zip(f, f[1:])) and _inside(self._holders, f)

    @cached_property
    def edge_set(self) -> frozenset[Face]:
        return frozenset(e for f in self._maximal for e in combinations(f, 2))

    def facets(self) -> list[Face]:
        """The maximal faces, canonically ordered."""
        return list(self._maximal)

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
        """Check that ``_maximal`` is the canonical maximal-face list; raises ValueError."""
        if self != complex_from_facets(self._maximal):
            raise ValueError(f"not the canonical maximal faces of their complex: {self._maximal!r}")


def _hold(holders: dict[int, set[int]], f: Face, i: int) -> None:
    """Record maximal face number i in its vertices' position sets."""
    for v in f:
        holders.setdefault(v, set()).add(i)


def _inside(holders: dict[int, set[int]], f: Face) -> bool:
    """Whether a recorded face contains ``f``: its vertices' position sets meet, smallest first."""
    sets = [holders.get(v, frozenset()) for v in f]
    return bool(min(sets, key=len).intersection(*sets))


class PairIndex(NamedTuple):
    """The d-faces of a complex and their unordered vertex-disjoint pairs.

    ``faces`` is sorted; ``holders`` gives each vertex the bitset of the
    faces that contain it, face i at bit m-1-i of m, so that the top bit is
    the lowest id; ``ids`` lists the disjoint pairs as positions (i, j),
    i < j, in canonical order, and ``pairs`` the same pairs as faces.
    """

    faces: list[Face]
    holders: dict[int, int]
    ids: list[tuple[int, int]]
    pairs: tuple[tuple[Face, Face], ...]

    def disjoint(self, vertices, start: int = 0) -> list[int]:
        """The ids from ``start`` up of the faces that avoid ``vertices``, ascending."""
        m = len(self.faces)
        free = (1 << m - start) - 1
        for v in vertices:
            free &= ~self.holders[v]
        out = []
        while free:
            top = free.bit_length()
            out.append(m - top)
            free ^= 1 << top - 1
        return out

    @classmethod
    def build(cls, K: SimplicialComplex, d: int) -> PairIndex:
        faces = K.faces_of_dim(d)
        holders = dict.fromkeys(K.vertices, 0)
        for bit, f in enumerate(reversed(faces)):
            for v in f:
                holders[v] |= 1 << bit
        index = cls(faces, holders, [], ())
        ids = [(i, j) for i, f in enumerate(faces) for j in index.disjoint(f, i + 1)]
        return index._replace(ids=ids, pairs=tuple([(faces[i], faces[j]) for i, j in ids]))


def complex_from_facets(faces) -> SimplicialComplex:
    """The complex the given faces generate: kept largest first, unless a kept face holds one.

    A face never lies in another of its size, so the largest are kept
    untested and the smallest, which hold no later face, are not recorded.
    A repeated vertex inside one face is an error.
    """
    faces = sorted({make_face(f) for f in faces}, key=len, reverse=True)
    kept: list[Face] = []
    holders: dict[int, set[int]] = {}
    for f in faces:
        if len(f) == len(faces[0]) or not _inside(holders, f):
            if len(f) > len(faces[-1]):
                _hold(holders, f, len(kept))
            kept.append(f)
    return SimplicialComplex(tuple(canonical_faces(kept)))


def skeleton_complex(n: int, k: int) -> SimplicialComplex:
    """The k-skeleton of the full n-simplex on vertices {0, ..., n}."""
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        raise ValueError(f"skeleton dimension {k} exceeds simplex dimension {n}")
    return SimplicialComplex(tuple(combinations(range(n + 1), k + 1)))


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
    vertex_ids: dict[Face, int]

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
        if rebuilt.complex != self.complex:
            raise ValueError("face set disagrees with the chain enumeration")


def barycentric_subdivision(K: SimplicialComplex) -> SdComplex:
    """Subdivide: one new vertex per nonempty face, faces are strict inclusion chains.

    New vertex ids are assigned in canonical (dimension, lex) order of the
    faces of ``K``, so the construction is deterministic and the geometric
    realization is unchanged.  The maximal faces are the vertex-id sets of
    the maximal chains of the facets: every chain lies in one of them, and
    none lies in another, since its top, a facet, would then lie in the
    other's top and both would be maximal chains of one facet.
    """
    order = canonical_faces(K.faces)
    vertex_ids = {f: i for i, f in enumerate(order)}
    maximal = canonical_faces(
        tuple(sorted(vertex_ids[m] for m in chain))
        for facet in K.facets()
        for chain in maximal_chains(facet)
    )
    return SdComplex(SimplicialComplex(tuple(maximal)), K, dict(enumerate(order)), vertex_ids)


def subdivided_f_vector(f: tuple[int, ...]) -> tuple[int, ...]:
    """The f-vector of sd K, counted from the f-vector ``f`` of K without building a face.

    A k-face of sd K is a chain of k + 1 faces of K.  Sending each vertex of
    the chain's top to the first step that holds it maps the chains topped
    by a face of s vertices one to one onto the surjections of those s
    vertices onto the k + 1 steps, which inclusion-exclusion counts.
    """
    def onto(s: int, steps: int) -> int:
        return sum((-1) ** i * comb(steps, i) * (steps - i) ** s for i in range(steps + 1))

    return tuple(sum(n * onto(s, k + 1) for s, n in enumerate(f, 1)) for k in range(len(f)))


def is_remote(K: SimplicialComplex, alpha, beta) -> bool:
    """True iff the faces share no vertex and no edge of K joins them."""
    a = tuple(alpha)
    b = tuple(beta)
    if not K.has_face(a):
        raise NotAFaceError(f"{a} is not a face of the complex")
    if not K.has_face(b):
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

