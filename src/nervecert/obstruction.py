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
the data; bit vectors are plain ints, so elimination is ordinary integer
xor.  The cocycle and the witness keep pair j at bit j, as certificate
documents do; they are only read column by column.  Only the combination,
over rows, is turned round (`reverse_columns`), since the column ints hold
the rows in reverse.  The pair index is found once per complex and dimension
(`SimplicialComplex.pair_index`); the cocycle and the coboundary system
both read it by face position, and both carry its one tuple of pairs.

The system is stored by column: one int per pair, built straight from its
2(d+1) coface rows, with row i at bit N-i of N rows and bit 0 left for the
cochain.  A column's lowest row is then its top bit, found without
allocating, and a column loses its leading bits as it is reduced.  The
systems are tall (6,696 rows over 2,124 pairs on the 6x6 torus, N = (d+1)n
on Delta_{2d+2}^(d)), so elimination by column reduces n vectors where one
by row reduces N, most of them dependent.  The one echelon routine keys
each pivot column by its lowest row, and the certificate does not depend on
the orientation:

- the pivot keys, in any column order, are the rows outside the span of
  the rows before them (the rows with pivots in a row echelon pass): the
  number of keys among rows 0..i is the rank of rows 0..i;
- fed in order, the columns that become pivots are those outside the span
  of the columns before them, and the first column that reduces to exactly
  1 (0 in M, 1 in the cochain) is the first j at which the cochain on
  columns 0..j leaves the row space on those columns;
- so the combination, the unique x supported on the pivot rows with
  xM = v, is back-substituted over the pivots in ascending key order, each
  carrying its cochain parity; and the witness, the unique functional
  supported on the pivot columns plus that first free column and
  orthogonal to every row, is the free column plus the source columns
  whose xor it is in M, rebuilt from the pivots newest first;
- the rank is the number of pivots, whatever the order, so `gf2_rank`
  (what `recheck` runs) feeds the columns in the order that measures
  fastest.

`gf2_solve` returns the `ObstructionCertificate` but does not check it.
Each verdict is verified once, by `ObstructionCertificate.verify` in
`obstruction_vanishes`: the combination must xor the rows to the cochain,
or the witness must be orthogonal to every row and pair to 1 with the
cochain, each read one column at a time.  `recheck` runs that same method
on the rebuilt system.
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
    """1 iff the sorted, disjoint, nonnegative rank lists g and h, of one
    length, alternate: with g the one that starts lower, h[k-1] < g[k] < h[k]."""
    if h[0] < g[0]:
        g, h = h, g
    prev = -1
    for a, b in zip(g, h):
        if not prev < a < b:
            return 0
        prev = b
    return 1


def check_placement_dim(dim: int, d: int) -> None:
    """Refuse d < 1, or a complex of dimension above d, before it is placed."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if dim > d:
        raise ValueError(f"complex has dimension {dim}, placement expects dimension <= {d}")


def moment_curve_placement(K: SimplicialComplex, d: int, params=None) -> Placement:
    """Place each vertex at (t, t^2, ..., t^2d); parameters must be distinct.

    ``params`` is a mapping vertex -> rational or a sequence aligned with the
    sorted vertex list; the default is 1..n.
    """
    check_placement_dim(K.dim, d)
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


def reverse_columns(bits: int, n: int) -> int:
    """Swap column j between bit j and bit n-1-j of an n-column vector.

    An involution: it maps the combination from the column ints' row order
    (row i at bit n-1-i) to the document's (row i at bit i) and back.
    """
    if bits >> n:
        raise ValueError(f"vector has a bit at or above its {n} columns")
    return int(format(bits, f"0{n}b")[::-1], 2)


@dataclass(frozen=True)
class Cochain2:
    """A mod-2 vector over the canonically ordered disjoint d-pair index.

    Column j is bit j of ``bits``, as in the certificate documents.
    """

    index: tuple[PairKey, ...]
    bits: int

    @property
    def weight(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class GF2Matrix:
    """Elementary coboundary generators over the pair index, stored by column.

    Row (rho, tau) has a one in column {sigma, tau'} exactly when tau' = tau
    and sigma is a d-face containing rho and disjoint from tau.  Column j is
    ``cols[j]``, with row i at bit n_rows - i, so the lowest row a column
    holds is its top bit; bit 0 is left for the cochain (module docstring).
    """

    columns: tuple[PairKey, ...]
    n_rows: int
    cols: tuple[int, ...]

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
    """All elementary coboundary generators, one column per disjoint d-pair.

    Rows come in canonical (rho, tau) order: the (d-1)-faces rho in order
    and, under each, the d-faces tau disjoint from it in id order.
    ``bit[rho]`` maps the id of each such tau to the bit of row (rho, tau).
    Column {sigma_g, tau_h} holds the rows (rho, tau_h) for the d+1 facets
    rho of sigma_g and (rho', sigma_g) for the facets rho' of tau_h.
    """
    pair_index = K.pair_index(d)
    rhos = K.faces_of_dim(d - 1)
    partners = [pair_index.disjoint(rho) for rho in rhos]
    n_rows = top = sum(map(len, partners))
    bit = {}
    for rho, ids in zip(rhos, partners):
        bit[rho] = dict(zip(ids, range(top, top - len(ids), -1)))
        top -= len(ids)
    under = [[bit[s[:k] + s[k + 1:]] for k in range(len(s))] for s in pair_index.faces]
    cols = []
    for g, h in pair_index.ids:
        c = 0
        for rows in under[g]:
            c |= 1 << rows[h]
        for rows in under[h]:
            c |= 1 << rows[g]
        cols.append(c)
    return GF2Matrix(pair_index.pairs, n_rows, tuple(cols))


def _echelon(columns) -> tuple[dict[int, int], list[int], int | None]:
    """Echelon basis of the columns' span: each pivot keyed by its lowest row.

    That row is the top bit; a column is reduced while it hits a stored
    pivot, and what remains, if a row bit is left, becomes a pivot.  Bit 0
    is never a key, so a column that reduces to exactly 1 is a sum of
    earlier columns in M but not with the cochain: the pass stops there.
    Returns the pivots in creation order, the position of the column each
    came from, and the position of the column that reduced to 1, or None.
    """
    pivots: dict[int, int] = {}
    sources: list[int] = []
    for idx, c in enumerate(columns):
        while c > 1:
            key = c.bit_length() - 1
            hit = pivots.get(key)
            if hit is None:
                pivots[key] = c
                sources.append(idx)
                break
            c ^= hit
        else:
            if c:
                return pivots, sources, idx
    return pivots, sources, None


def gf2_rank(M: GF2Matrix) -> int:
    """Dimension of M's column space: the echelon pass alone, last pair first.

    The order does not change the rank; on the coboundary systems this one
    takes far fewer xors, on shorter columns (9,291 against 33,168 forward
    on skeleton(9,2) at d = 2).
    """
    return len(_echelon(reversed(M.cols))[0])


def gf2_solve(M: GF2Matrix, v: Cochain2) -> ObstructionCertificate:
    """Express v over M's rows, or certify that this is impossible.

    Bit 0 of each column carries v at that column, and the columns are
    eliminated in order (module docstring): the combination is
    back-substituted over the pivots, or the witness, like v with column j
    at bit j, is rebuilt from them and the rank comes from `gf2_rank`.
    """
    if v.index != M.columns:
        raise ValueError("cochain index disagrees with the matrix columns")
    n = M.n_cols
    cols = [c | 1 if b == "1" else c for c, b in zip(M.cols, reversed(format(v.bits, f"0{n}b")))]
    pivots, sources, free = _echelon(cols)
    if free is None:
        # A pivot's key is its top bit, so in ascending key order (the last
        # row first) every other bit of x that a pivot reads is final.
        x = 1
        for key in sorted(pivots):
            if (pivots[key] & x).bit_count() & 1:
                x |= 1 << key
        combination = reverse_columns(x >> 1, M.n_rows)
        return ObstructionCertificate(True, v, len(pivots), M.n_rows, combination, None)

    # Newest pivot first: a pivot's source column enters the witness iff the
    # pivot is still in ``odd``, and then every older pivot that was xored
    # into that column to make it flips parity; they are found again by
    # reducing the source column xor the pivot.
    odd: set[int] = set()
    r = cols[free]
    while r > 1:
        key = r.bit_length() - 1
        r ^= pivots[key]
        odd.add(key)
    witness = 1 << free
    for key, idx in zip(reversed(pivots), reversed(sources)):
        if key not in odd:
            continue
        witness |= 1 << idx
        r = cols[idx] ^ pivots[key]
        while r:
            top = r.bit_length() - 1
            r ^= pivots[top]
            odd ^= {top}
    del pivots, sources  # let the rank pass reuse their memory
    return ObstructionCertificate(False, v, gf2_rank(M), M.n_rows, None, witness)


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
        n = M.n_cols
        if self.vanishes:
            if self.combination >> M.n_rows:
                return False
            x = reverse_columns(self.combination, M.n_rows) << 1
            bits = reversed(format(self.cocycle.bits, f"0{n}b"))
            return all((c & x).bit_count() & 1 == (b == "1") for c, b in zip(M.cols, bits))
        if self.witness >> n:
            return False
        acc = 0
        for c in compress(M.cols, map("1".__eq__, reversed(format(self.witness, f"0{n}b")))):
            acc ^= c
        return not acc and bool((self.cocycle.bits & self.witness).bit_count() & 1)


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
