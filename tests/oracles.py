"""Independent oracles for the test suite.

Everything here deliberately avoids the engine it checks: chain faces are
enumerated by brute force over subsets, feasibility goes through
Fourier-Motzkin elimination instead of simplex pivoting, segment crossing
uses orientation signs instead of a linear solve, moment-curve crossing
parity reduces to a parameter-interleaving count, the crossing cocycle
goes through one exact barycentric solve per pair (the engine the
interleaving rule replaced), coboundary rows are read off the definition
column by column, GF(2) systems go through the dense Gauss-Jordan pass
the echelon solver replaced, and the remote-face audit scans every piece
pair of every remote pair (the loop the coarse-to-fine filter replaced).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from nervecert.complexes import canonical_faces, disjoint_simplex_pairs, is_remote
from nervecert.convex import crossing, hulls_intersect
from nervecert.errors import GenericityError
from nervecert.obstruction import GF2Infeasible, GF2Solution
from nervecert.witness import image_of_face


def brute_force_chain_faces(faces) -> set[frozenset]:
    """All nonempty subsets of the face set that are strict inclusion chains."""
    faces = list(faces)
    chains: set[frozenset] = set()
    for size in range(1, len(faces) + 1):
        for subset in combinations(faces, size):
            ordered = sorted(subset, key=len, reverse=True)
            if all(
                set(small) < set(big) for big, small in zip(ordered, ordered[1:])
            ):
                chains.add(frozenset(subset))
    return chains


def fm_feasible(rows, rhs) -> bool:
    """Fourier-Motzkin feasibility of {x : rows . x <= rhs} (small systems only)."""
    system = [
        ([Fraction(a) for a in row], Fraction(b)) for row, b in zip(rows, rhs)
    ]
    n = len(system[0][0]) if system else 0
    for var in range(n - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coeffs, b in system:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, b))
            elif a < 0:
                neg.append((coeffs, b))
            else:
                rest.append((coeffs[:var], b))
        combined = []
        for pc, pb in pos:
            for nc, nb in neg:
                scale_p = 1 / pc[var]
                scale_n = -1 / nc[var]
                coeffs = [
                    pc[i] * scale_p + nc[i] * scale_n for i in range(var)
                ]
                combined.append((coeffs, pb * scale_p + nb * scale_n))
        system = [(list(c), b) for c, b in {(tuple(c), b) for c, b in rest + combined}]
    return all(b >= 0 for _, b in system)


def fm_polytope_is_empty(P) -> bool:
    return not fm_feasible([list(row) for row in P.A], list(P.b))


def _ccw(a, b, c) -> int:
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (det > 0) - (det < 0)


def segments_cross_properly(p, q, r, s) -> bool:
    """Open-segment crossing in the plane via orientation signs (generic data)."""
    return (
        _ccw(p, q, r) * _ccw(p, q, s) < 0 and _ccw(r, s, p) * _ccw(r, s, q) < 0
    )


def moment_interleaving_parity(sigma_params, tau_params) -> int:
    """Crossing parity on the moment curve: 1 iff parameters strictly alternate."""
    tagged = sorted(
        [(t, 0) for t in sigma_params] + [(t, 1) for t in tau_params]
    )
    sides = [side for _, side in tagged]
    alternates = all(a != b for a, b in zip(sides, sides[1:]))
    return 1 if alternates else 0


def gauss_crossing_cocycle_bits(K, d, placement) -> int:
    """Crossing cocycle bits by a `convex.crossing` solve for every pair."""
    index = tuple(disjoint_simplex_pairs(K, d))
    bits = 0
    for pos, (gamma, delta) in enumerate(index):
        try:
            parity = crossing(
                [placement.point(v) for v in gamma],
                [placement.point(v) for v in delta],
            ).parity
        except GenericityError as exc:
            raise GenericityError(f"pair ({gamma}, {delta}): {exc}") from exc
        if parity:
            bits |= 1 << pos
    return bits


def fm_hulls_intersect(a_pts, b_pts) -> bool:
    """Hull intersection decided by eliminating the combination variables."""
    m = len(a_pts[0])
    na, nb = len(a_pts), len(b_pts)
    n = na + nb
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def add(coeffs, b):
        rows.append([Fraction(c) for c in coeffs])
        rhs.append(Fraction(b))

    for k in range(m):  # equalities as inequality pairs
        row = [p[k] for p in a_pts] + [-q[k] for q in b_pts]
        add(row, 0)
        add([-c for c in row], 0)
    add([1] * na + [0] * nb, 1)
    add([-1] * na + [0] * nb, -1)
    add([0] * na + [1] * nb, 1)
    add([0] * na + [-1] * nb, -1)
    for j in range(n):  # nonnegativity
        row = [Fraction(0)] * n
        row[j] = Fraction(-1)
        add(row, 0)
    return fm_feasible(rows, rhs)


def piecewise_remote_violation(g):
    """First (alpha, beta, piece_a, piece_b) of the plain piece-by-piece audit, or None."""
    faces = canonical_faces(g.nerve.faces)
    pieces = {}
    for i, alpha in enumerate(faces):
        for beta in faces[i + 1:]:
            if not is_remote(g.nerve, alpha, beta):
                continue
            if alpha not in pieces:
                pieces[alpha] = image_of_face(g, alpha).pieces
            if beta not in pieces:
                pieces[beta] = image_of_face(g, beta).pieces
            for pa in pieces[alpha]:
                for pb in pieces[beta]:
                    if hulls_intersect(pa, pb):
                        return alpha, beta, pa, pb
    return None

def brute_force_coboundary_rows(facets, d: int):
    """(row_keys, columns, rows) of the elementary coboundary rows, by definition.

    Faces are every subset of a facet.  Columns are the unordered pairs of
    vertex-disjoint d-faces, each pair and the pair list in lexicographic
    order.  Row (rho, tau), for a (d-1)-face rho disjoint from a d-face tau,
    has a one in column {sigma, tau} exactly when the d-face sigma contains
    rho; every column is tested against every row.
    """
    faces = {sub for f in facets for k in (d, d + 1) for sub in combinations(sorted(f), k)}
    rhos = sorted(f for f in faces if len(f) == d)
    taus = sorted(f for f in faces if len(f) == d + 1)
    columns = [
        (g, h) for i, g in enumerate(taus) for h in taus[i + 1:] if not set(g) & set(h)
    ]
    row_keys, rows = [], []
    for rho in rhos:
        for tau in taus:
            if set(rho) & set(tau):
                continue
            bits = 0
            for j, (g, h) in enumerate(columns):
                if tau not in (g, h):
                    continue
                sigma = h if g == tau else g
                if set(rho) < set(sigma):
                    bits |= 1 << j
            row_keys.append((rho, tau))
            rows.append(bits)
    return tuple(row_keys), tuple(columns), tuple(rows)


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def dense_gauss_jordan_gf2(M, v):
    """Express v over M's rows by a full Gauss-Jordan pass, or certify it cannot.

    This is the solver ``gf2_solve`` used before the echelon rewrite, kept as
    the reference its outputs must equal.
    """
    if v.index != M.columns:
        raise ValueError("cochain index disagrees with the matrix columns")
    # Gauss-Jordan with combination tracking; pivots[col] = (row, combo).
    pivots: dict[int, tuple[int, int]] = {}
    for idx, row in enumerate(M.rows):
        r, c = row, 1 << idx
        for col in sorted(pivots):
            if (r >> col) & 1:
                pr, pc = pivots[col]
                r ^= pr
                c ^= pc
        if r == 0:
            continue
        col = _low_bit(r)
        for other, (pr, pc) in list(pivots.items()):
            if (pr >> col) & 1:
                pivots[other] = (pr ^ r, pc ^ c)
        pivots[col] = (r, c)

    target, combo = v.bits, 0
    for col in sorted(pivots):
        if (target >> col) & 1:
            pr, pc = pivots[col]
            target ^= pr
            combo ^= pc
    if target == 0:
        acc = 0
        for i, row in enumerate(M.rows):
            if (combo >> i) & 1:
                acc ^= row
        if acc != v.bits:
            raise AssertionError("row combination failed to reproduce the cochain")
        return GF2Solution(combo, len(pivots))

    free_col = _low_bit(target)
    witness = 1 << free_col
    for col, (pr, _) in pivots.items():
        if (pr >> free_col) & 1:
            witness |= 1 << col
    for row in M.rows:
        if (row & witness).bit_count() & 1:
            raise AssertionError("infeasibility witness is not orthogonal to the rows")
    if not (v.bits & witness).bit_count() & 1:
        raise AssertionError("infeasibility witness does not separate the cochain")
    return GF2Infeasible(len(pivots), witness)
