"""Mod-2 embeddability obstruction via a straight-line crossing cocycle.

Vertices go onto the moment curve in R^2d (distinct parameters give a
generic straight-line map), the crossing parities over all unordered
disjoint d-simplex pairs form a GF(2) cochain, and the obstruction vanishes
exactly when that cochain is a combination of the elementary coboundary
rows.  Both verdicts come with re-checkable certificates: a cobounding row
combination, or a functional orthogonal to every row but not to the
cochain.

The crossing parity needs no linear solve: two disjoint d-simplices on the
moment curve cross iff their parameters interleave (Gale's evenness
argument, as in the van Kampen-Flores proof).  The 2d+2 points p(t_i) have
a one-dimensional space of affine dependences, spanned by
c_i = 1/prod_{j != i}(t_i - t_j), since the divided difference of a
polynomial of degree <= 2d over 2d+2 nodes vanishes.  Every c_i is nonzero
and its sign is (-1)^#{j : t_j > t_i}, so the signs alternate in parameter
order.  The unique common affine point has barycentric coordinates
proportional to c on gamma and to -c on delta; they are all positive iff
the signs split by side, that is iff the parameters alternate.  No
coordinate is ever zero and the affine hulls never meet degenerately, so
with distinct parameters the parity is always defined and equals what the
exact barycentric solve in `convex.crossing` returns.

Unordered-pair indexing bakes the swap symmetry of the deleted product into
the data; bit rows are plain ints, so elimination is ordinary integer xor.
The pair index is found once per complex and dimension
(`SimplicialComplex.pair_index`); the cocycle and the coboundary rows both
read it by face position, and both carry its one tuple of pairs.  The
coboundary rows are built from d-face ids, vertex bitmasks and a flat table
of column bits, and elimination keeps an echelon basis keyed by each pivot
row's lowest set bit: a row is reduced only while that bit hits a stored
pivot, and once every column has a pivot the rest are not reduced.  The
pass carries no combination bitmask: it keeps each pivot and the input row
it came from, and that is all `gf2_rank` (what `recheck` runs) needs.
Only when the cochain reduces to 0 is the combination rebuilt, in one pass
over the pivots, newest first.  The rank, the combination over the pivot
rows and the witness supported on the pivot columns plus one free column
are each unique, so they do not depend on how the elimination is
organized.

`gf2_solve` returns the `ObstructionCertificate` but does not check it.
Each verdict is verified once, by `ObstructionCertificate.verify` in
`obstruction_vanishes`: the combination must xor the rows to the cochain,
or the witness must be orthogonal to every row and pair to 1 with the
cochain.  `recheck` runs that same method on the rebuilt system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .complexes import Face, SimplicialComplex
from .convex import Point
from .errors import GenericityError
from .linprog import frac

PairKey = tuple[Face, Face]


@dataclass(frozen=True)
class Placement:
    """Moment-curve placement of a complex's vertices in R^2d."""

    d: int
    params: tuple[tuple[int, Fraction], ...]  # (vertex, t), sorted by vertex

    @cached_property
    def points(self) -> dict[int, Point]:
        k = 2 * self.d
        return {
            v: tuple(t ** e for e in range(1, k + 1)) for v, t in self.params
        }

    def point(self, v: int) -> Point:
        return self.points[v]

    @cached_property
    def ranks(self) -> dict[int, int]:
        """Each vertex's position in increasing parameter order."""
        order = sorted(self.params, key=lambda vt: vt[1])
        return {v: r for r, (v, _) in enumerate(order)}

    def crossing_parity(self, gamma, delta) -> int:
        """Crossing parity of two disjoint placed d-simplices: 1 iff their
        parameters interleave (see the module docstring for why)."""
        rank = self.ranks
        return _interleave(sorted(rank[v] for v in gamma), sorted(rank[v] for v in delta))


def _interleave(g: list[int], h: list[int]) -> int:
    """1 iff the sorted, disjoint rank lists g and h alternate when merged."""
    starts = sorted(g + h)[::2]  # every other vertex, from the lowest
    return int(starts == g or starts == h)


def moment_curve_placement(K: SimplicialComplex, d: int, params=None) -> Placement:
    """Place each vertex at (t, t^2, ..., t^2d); parameters must be distinct.

    ``params`` is a mapping vertex -> rational or a sequence aligned with the
    sorted vertex list; the default is 1..n.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if K.dim > d:
        raise ValueError(
            f"complex has dimension {K.dim}, placement expects dimension <= {d}"
        )
    verts = sorted(K.vertices)
    if params is None:
        assigned = {v: Fraction(i + 1) for i, v in enumerate(verts)}
    elif isinstance(params, dict):
        assigned = {v: frac(t) for v, t in params.items()}
    else:
        params = list(params)
        if len(params) != len(verts):
            raise ValueError(
                f"{len(params)} parameters for {len(verts)} vertices"
            )
        assigned = {v: frac(t) for v, t in zip(verts, params)}
    if set(assigned) != set(verts):
        raise ValueError("parameters must cover exactly the vertex set")
    values = list(assigned.values())
    if len(set(values)) != len(values):
        raise GenericityError("placement parameters must be distinct; reseed and retry")
    return Placement(d, tuple((v, assigned[v]) for v in verts))


@dataclass(frozen=True)
class Cochain2:
    """A mod-2 vector over the canonically ordered disjoint d-pair index."""

    index: tuple[PairKey, ...]
    bits: int

    @property
    def weight(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class GF2Matrix:
    """Elementary coboundary generators as bit rows over the pair index.

    Row (rho, tau) has a one in column {sigma, tau'} exactly when tau' = tau
    and sigma is a d-face containing rho and disjoint from tau.
    """

    columns: tuple[PairKey, ...]
    rows: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)


def intersection_cocycle(K: SimplicialComplex, d: int, placement: Placement) -> Cochain2:
    """Crossing parity of every unordered disjoint d-pair under the placement.

    Each bit is read off the parameter ranks: a pair crosses iff the sorted
    ranks of its 2d+2 vertices alternate between the two sides.  On the
    moment curve with distinct parameters this is exactly the parity of the
    barycentric solve in `convex.crossing`, and that solve can never meet a
    degenerate case (module docstring).  Each d-face's ranks are sorted once.
    """
    pair_index = K.pair_index(d)
    rank = placement.ranks
    ranks = [sorted(rank[v] for v in f) for f in pair_index.faces]
    bits = 0
    for pos, (i, j) in enumerate(pair_index.ids):
        if _interleave(ranks[i], ranks[j]):
            bits |= 1 << pos
    return Cochain2(pair_index.pairs, bits)


def coboundary_matrix(K: SimplicialComplex, d: int) -> GF2Matrix:
    """All elementary coboundary rows, in canonical (rho, tau) order.

    The m d-faces are numbered and carry vertex bitmasks as in the
    complex's `PairIndex`.  ``col_bit[s * m + t]`` is the bit of column
    {sigma_s, tau_t}, or 0 when the two meet (the table is symmetric).
    Entry t of the sum of the slices ``col_bit[s * m:(s + 1) * m]`` over
    the d-faces sigma_s that contain rho is then row (rho, tau_t): distinct
    powers of two, so the sum is their union.
    """
    pair_index = K.pair_index(d)
    taus, masks = pair_index.faces, pair_index.masks
    m = len(taus)
    col_bit = [0] * (m * m)
    for pos, (g, h) in enumerate(pair_index.ids):
        col_bit[g * m + h] = col_bit[h * m + g] = 1 << pos
    # cofaces[rho]: the ids of the d-faces containing rho
    cofaces: dict[Face, list[int]] = {}
    for s, sigma in enumerate(taus):
        for k in range(len(sigma)):
            cofaces.setdefault(sigma[:k] + sigma[k + 1:], []).append(s)
    vertex_bits = pair_index.vertex_bits
    zero = [0] * m
    rows = []
    for rho in K.faces_of_dim(d - 1):
        rho_mask = sum(vertex_bits[v] for v in rho)
        over = [col_bit[s * m:(s + 1) * m] for s in cofaces.get(rho, ())]
        for tau, mask, bits in zip(taus, masks, map(sum, zip(*over)) if over else zero):
            if not mask & rho_mask:
                rows.append(bits)
    return GF2Matrix(pair_index.pairs, tuple(rows))


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _echelon(M: GF2Matrix) -> tuple[dict[int, int], list[int]]:
    """Echelon basis of M's row space: each pivot row keyed by its lowest set bit.

    A row is reduced only while its lowest bit hits a stored pivot; what
    remains, if nonzero, becomes the pivot for its new lowest bit, so the
    pivots are exactly the rows outside the span of the rows before them.
    Once every column has a pivot the remaining rows are in the span and
    are not reduced.  The lowest bit is computed inline, as this loop is the
    hot path.  Returns the pivots in creation order and, aligned with
    them, the index of the input row each came from.
    """
    pivots: dict[int, int] = {}
    sources: list[int] = []
    full = M.n_cols
    for idx, r in enumerate(M.rows):
        if len(pivots) == full:
            break
        while r:
            col = (r & -r).bit_length() - 1
            hit = pivots.get(col)
            if hit is None:
                pivots[col] = r
                sources.append(idx)
                break
            r ^= hit
    return pivots, sources


def _combination(M: GF2Matrix, pivots: dict[int, int], sources: list[int], odd: set[int]) -> int:
    """The input rows that xor to the sum of the pivots whose columns are in ``odd``.

    Newest pivot first: a pivot's input row enters the combination iff the
    pivot is still in ``odd``, and then every pivot that was xored into that
    row to make it flips parity.  Those are all older, so each parity is
    final when its turn comes.  They are found again by reducing the input
    row xor the pivot (the sum of exactly those pivots, whose lowest bits
    are distinct), and only for the pivots that enter the combination.
    """
    combo = 0
    for col, idx in zip(reversed(pivots), reversed(sources)):
        if col not in odd:
            continue
        combo |= 1 << idx
        r = M.rows[idx] ^ pivots[col]
        used = []
        while r:
            low = _low_bit(r)
            r ^= pivots[low]
            used.append(low)
        odd.symmetric_difference_update(used)
    return combo


def _xor_rows(rows, mask: int) -> int:
    """Xor of the rows whose index bit is set in ``mask`` (bits past the rows ignored)."""
    acc = 0
    for row in compress(rows, map("1".__eq__, reversed(bin(mask)))):
        acc ^= row
    return acc


def gf2_rank(M: GF2Matrix) -> int:
    """Dimension of M's row space: the echelon pass alone."""
    return len(_echelon(M)[0])


def gf2_solve(M: GF2Matrix, v: Cochain2) -> ObstructionCertificate:
    """Express v over M's rows, or certify that this is impossible.

    The combination is the unique one over the pivot rows (the rows outside
    the span of earlier rows); it is rebuilt from the pivots only when v
    reduces to 0.  The witness is the unique functional orthogonal to
    every row whose support lies in the pivot columns plus the lowest column
    the reduced cochain keeps.
    """
    if v.index != M.columns:
        raise ValueError("cochain index disagrees with the matrix columns")
    pivots, sources = _echelon(M)
    target = v.bits
    odd: set[int] = set()
    while target:
        col = _low_bit(target)
        hit = pivots.get(col)
        if hit is None:
            break
        target ^= hit
        odd.add(col)
    if target == 0:
        combination = _combination(M, pivots, sources, odd)
        return ObstructionCertificate(True, v, len(pivots), M.n_rows, combination, None)

    # Back-substitution: pivot row p has no bit below p, so solving the
    # pivots in descending order fixes the witness bit at p from the bits
    # above it; pivots above the free column get 0.
    free_col = _low_bit(target)
    witness = 1 << free_col
    for col in sorted((c for c in pivots if c < free_col), reverse=True):
        if (pivots[col] & witness).bit_count() & 1:
            witness |= 1 << col
    return ObstructionCertificate(False, v, len(pivots), M.n_rows, None, witness)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Verdict plus a re-checkable proof object.

    vanishes: ``combination`` xors matrix rows to the cocycle.  nonvanishing:
    ``witness`` is orthogonal to every row yet pairs to 1 with the cocycle.
    """

    vanishes: bool
    cocycle: Cochain2
    rank: int
    n_rows: int
    combination: int | None
    witness: int | None

    def verify(self, M: GF2Matrix) -> bool:
        if M.columns != self.cocycle.index or M.n_rows != self.n_rows:
            return False
        if self.vanishes:
            if self.combination >> M.n_rows:
                return False
            return _xor_rows(M.rows, self.combination) == self.cocycle.bits
        if self.witness >> M.n_cols:
            return False
        if any((row & self.witness).bit_count() & 1 for row in M.rows):
            return False
        return bool((self.cocycle.bits & self.witness).bit_count() & 1)


def obstruction_vanishes(
    K: SimplicialComplex, d: int, placement: Placement | None = None
) -> ObstructionCertificate:
    """Decide whether the crossing cocycle is a coboundary; certify either way."""
    if placement is None:
        placement = moment_curve_placement(K, d)
    cocycle = intersection_cocycle(K, d, placement)
    M = coboundary_matrix(K, d)
    cert = gf2_solve(M, cocycle)
    if not cert.verify(M):
        raise AssertionError("obstruction certificate failed self-verification")
    return cert
