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
The coboundary rows are built from a coface index (the d-faces over each
(d-1)-face), and elimination keeps an echelon basis keyed by each pivot
row's lowest set bit: a row is reduced only while that bit hits a stored
pivot.  The rank, the combination over the pivot rows and the witness
supported on the pivot columns plus one free column are each unique, so
they do not depend on the elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complexes import Face, SimplicialComplex, disjoint_simplex_pairs
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
        g = sorted(rank[v] for v in gamma)
        h = sorted(rank[v] for v in delta)
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

    def bit(self, pair) -> int:
        g, h = (tuple(pair[0]), tuple(pair[1]))
        key = (g, h) if (len(g), g) <= (len(h), h) else (h, g)
        return (self.bits >> self.index.index(key)) & 1

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[PairKey]:
        return [pair for i, pair in enumerate(self.index) if (self.bits >> i) & 1]


@dataclass(frozen=True)
class GF2Matrix:
    """Elementary coboundary generators as bit rows over the pair index.

    Row (rho, tau) has a one in column {sigma, tau'} exactly when tau' = tau
    and sigma is a d-face containing rho and disjoint from tau.
    """

    row_keys: tuple[tuple[Face, Face], ...]
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
    degenerate case (module docstring).
    """
    index = tuple(disjoint_simplex_pairs(K, d))
    bits = 0
    for pos, (gamma, delta) in enumerate(index):
        if placement.crossing_parity(gamma, delta):
            bits |= 1 << pos
    return Cochain2(index, bits)


def coboundary_matrix(K: SimplicialComplex, d: int) -> GF2Matrix:
    """All elementary coboundary rows, in canonical (rho, tau) order."""
    columns = tuple(disjoint_simplex_pairs(K, d))
    col_pos = {pair: i for i, pair in enumerate(columns)}
    rhos = K.faces_of_dim(d - 1)
    taus = K.faces_of_dim(d)
    # cofaces[rho]: the d-faces containing rho, each with its vertex set
    cofaces: dict[Face, list[tuple[Face, frozenset]]] = {}
    for sigma in taus:
        sigma_set = frozenset(sigma)
        for v in sigma:
            rho = tuple(u for u in sigma if u != v)
            cofaces.setdefault(rho, []).append((sigma, sigma_set))
    tau_sets = [(tau, frozenset(tau)) for tau in taus]
    row_keys = []
    rows = []
    for rho in rhos:
        for tau, tau_set in tau_sets:
            if tau_set.intersection(rho):
                continue
            bits = 0
            for sigma, sigma_set in cofaces.get(rho, ()):
                if sigma_set & tau_set:
                    continue
                key = (sigma, tau) if sigma < tau else (tau, sigma)
                bits ^= 1 << col_pos[key]
            row_keys.append((rho, tau))
            rows.append(bits)
    return GF2Matrix(tuple(row_keys), columns, tuple(rows))


@dataclass(frozen=True)
class GF2Solution:
    """Row combination c with c.M = v (bitmask over matrix rows)."""

    combination: int
    rank: int


@dataclass(frozen=True)
class GF2Infeasible:
    """Witness that v is outside the row space.

    ``witness`` is a column functional orthogonal to every row of M but
    pairing to 1 with v; ``rank`` is the row-space dimension.
    """

    rank: int
    witness: int


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _echelon_basis(rows) -> dict[int, tuple[int, int]]:
    """Echelon basis of the row space, keyed by each pivot row's lowest set bit.

    A row is reduced only while its lowest bit hits a stored pivot; what
    remains, if nonzero, becomes the pivot for its new lowest bit.  Each entry
    is ``(row, combination)``, the combination a bitmask over the input rows
    that xors to the pivot row.  The rows that become pivots are exactly those
    outside the span of the rows before them.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for idx, row in enumerate(rows):
        r, c = row, 1 << idx
        while r:
            col = _low_bit(r)
            hit = pivots.get(col)
            if hit is None:
                pivots[col] = (r, c)
                break
            r ^= hit[0]
            c ^= hit[1]
    return pivots


def gf2_rank(M: GF2Matrix) -> int:
    """Dimension of M's row space."""
    return len(_echelon_basis(M.rows))


def gf2_solve(M: GF2Matrix, v: Cochain2) -> GF2Solution | GF2Infeasible:
    """Express v over M's rows, or certify that this is impossible.

    The combination is the unique one over the pivot rows (the rows outside
    the span of earlier rows).  The witness is the unique functional
    orthogonal to every row whose support lies in the pivot columns plus the
    lowest column the reduced cochain keeps.
    """
    if v.index != M.columns:
        raise ValueError("cochain index disagrees with the matrix columns")
    pivots = _echelon_basis(M.rows)
    target, combo = v.bits, 0
    while target:
        hit = pivots.get(_low_bit(target))
        if hit is None:
            break
        target ^= hit[0]
        combo ^= hit[1]
    if target == 0:
        acc = 0
        for i, row in enumerate(M.rows):
            if (combo >> i) & 1:
                acc ^= row
        if acc != v.bits:
            raise AssertionError("row combination failed to reproduce the cochain")
        return GF2Solution(combo, len(pivots))

    # Back-substitution: pivot row p has no bit below p, so solving the
    # pivots in descending order fixes the witness bit at p from the bits
    # above it; pivots above the free column get 0.
    free_col = _low_bit(target)
    witness = 1 << free_col
    for col in sorted((c for c in pivots if c < free_col), reverse=True):
        if (pivots[col][0] & witness).bit_count() & 1:
            witness |= 1 << col
    for row in M.rows:
        if (row & witness).bit_count() & 1:
            raise AssertionError("infeasibility witness is not orthogonal to the rows")
    if not (v.bits & witness).bit_count() & 1:
        raise AssertionError("infeasibility witness does not separate the cochain")
    return GF2Infeasible(len(pivots), witness)


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
            acc = 0
            for i, row in enumerate(M.rows):
                if (self.combination >> i) & 1:
                    acc ^= row
            return acc == self.cocycle.bits
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
    outcome = gf2_solve(M, cocycle)
    if isinstance(outcome, GF2Solution):
        cert = ObstructionCertificate(
            True, cocycle, outcome.rank, M.n_rows, outcome.combination, None
        )
    else:
        cert = ObstructionCertificate(
            False, cocycle, outcome.rank, M.n_rows, None, outcome.witness
        )
    if not cert.verify(M):
        raise AssertionError("obstruction certificate failed self-verification")
    return cert
