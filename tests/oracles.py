"""Independent oracles for the test suite.

Everything here deliberately avoids the engine it checks: a complex's
facets are the faces no larger face strictly contains (the quadratic scan
the codimension-1 rule replaced), chain faces are enumerated by brute
force over subsets or grown upward one superset at a time, the
subdivision of a face is the label filter over every face of sd K and a
source simplex's image goes through that filter and a facet scan (the
construction the maximal-chain tops replaced), feasibility goes through
Fourier-Motzkin elimination instead of simplex pivoting (so do the
coordinate ranges of a body, by projection onto one axis, and the nerve of
a family, one label subset at a time with no level walk or Helly closure), segment crossing
uses orientation signs instead of a linear solve, moment-curve crossing
parity reduces to a parameter-interleaving count, the crossing cocycle
goes through one exact barycentric solve per pair (the engine the
interleaving rule replaced), coboundary rows are read off the definition
column by column, GF(2) systems go through the dense Gauss-Jordan pass
the echelon solver replaced, the remote-face lemma is stated face by
face with `is_remote` over subdivided faces, the remote-face audit scans
every piece pair of every remote pair under a given hull predicate
(Fourier-Motzkin keeps it off the simplex), the inscribed ball goes
through one two-phase solve per lexicographic stage (the solves the
one-tableau driver replaced), and a body's box bound goes through one
two-phase solve per coordinate and side (the solves the one-tableau box
replaced).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from nervecert.complexes import (
    barycentric_subdivision,
    canonical_faces,
    disjoint_simplex_pairs,
    is_remote,
)
from nervecert.convex import HPolytope, Point, crossing
from nervecert.errors import EmptyPolytopeError, GenericityError, UnboundedPolytopeError
from nervecert.linprog import INFEASIBLE, ONE, OPTIMAL, UNBOUNDED, ZERO, solve_lp
from nervecert.obstruction import ObstructionCertificate
from nervecert.witness import image_of_face


def quadratic_facets(K) -> list:
    """Maximal faces by definition: every face is tested against every larger one."""
    sets = {f: frozenset(f) for f in K.faces}
    return canonical_faces(
        f for f in K.faces
        if not any(sets[f] < sets[g] for g in K.faces if len(g) > len(f))
    )


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


def grown_chain_faces(faces) -> set[frozenset]:
    """All strict inclusion chains, each grown upward one strict superset at a time.

    Polynomial in the number of chains, so it reaches complexes whose face
    set is too large for the subset scan of `brute_force_chain_faces`.
    """
    faces = list(faces)
    sets = {f: frozenset(f) for f in faces}
    above = {f: [h for h in faces if sets[f] < sets[h]] for f in faces}
    chains: set[frozenset] = set()
    stack = [(f,) for f in faces]
    while stack:
        chain = stack.pop()
        chains.add(frozenset(chain))
        stack.extend(chain + (h,) for h in above[chain[-1]])
    return chains


def label_filter_subcomplex(sdK, alpha) -> list:
    """The faces of sd K whose vertex labels all lie inside ``alpha``: every face is scanned."""
    inside = {v for v, label in sdK.labels.items() if set(label) <= set(alpha)}
    return canonical_faces(f for f in sdK.complex.faces if set(f) <= inside)


def facet_scan_source_image(g, sd_source, gamma) -> tuple:
    """g(|gamma|) through the double subdivision, built from its definition.

    The subdivided subcomplex over gamma comes from the label filter, its
    facets from a quadratic scan in canonical order, and each facet gives
    one piece per permutation of its vertices: the chain that drops them
    in that order.
    """
    sub = label_filter_subcomplex(sd_source, gamma)
    sets = {f: frozenset(f) for f in sub}
    facets = canonical_faces(f for f in sub if not any(sets[f] < sets[h] for h in sub))
    pieces = []
    for facet in facets:
        for perm in permutations(facet):
            rest = list(facet)
            chain = [facet]
            for v in perm[:-1]:
                rest.remove(v)
                chain.append(tuple(rest))
            pieces.append(tuple(g.witness[part] for part in chain))
    return tuple(pieces)


def _fm_project(rows, rhs, keep: int):
    """Fourier-Motzkin elimination of every variable from index ``keep`` on.

    Returns the projected system on the first ``keep`` variables as
    (coefficients, rhs) pairs (small systems only).  After each step every
    row is scaled to largest |coefficient| 1, and a direction that repeats
    keeps only its least rhs, which the others are implied by.
    """
    system = [
        ([Fraction(a) for a in row], Fraction(b)) for row, b in zip(rows, rhs)
    ]
    n = len(system[0][0]) if system else 0
    for var in range(n - 1, keep - 1, -1):
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
        least: dict[tuple, Fraction] = {}
        for coeffs, b in rest + combined:
            top = max(map(abs, coeffs), default=0)
            key = tuple(a / top for a in coeffs) if top else tuple(coeffs)
            b = b / top if top else b
            if key not in least or b < least[key]:
                least[key] = b
        system = [(list(c), b) for c, b in least.items()]
    return system


def fm_feasible(rows, rhs) -> bool:
    """Fourier-Motzkin feasibility of {x : rows . x <= rhs} (small systems only)."""
    return all(b >= 0 for _, b in _fm_project(rows, rhs, 0))


def fm_polytope_is_empty(P) -> bool:
    return not fm_feasible([list(row) for row in P.A], list(P.b))


def brute_force_nerve(F) -> frozenset:
    """Every nonempty label subset whose bodies' rows, stacked, Fourier-Motzkin finds feasible."""
    labels = F.labels()
    return frozenset(
        face
        for size in range(1, len(labels) + 1)
        for face in combinations(labels, size)
        if fm_feasible(
            [list(row) for label in face for row in F.body(label).A],
            [b for label in face for b in F.body(label).b],
        )
    )


def fm_coordinate_range(P, j: int):
    """(min, max) of coordinate j over P by projection onto it, or None if P is empty.

    A side with no bound is None.
    """
    rows = [[row[j]] + [a for i, a in enumerate(row) if i != j] for row in P.A]
    lo = hi = None
    for (a,), b in _fm_project(rows, P.b, 1):
        if a > 0:
            hi = b / a if hi is None else min(hi, b / a)
        elif a < 0:
            lo = b / a if lo is None else max(lo, b / a)
        elif b < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def lp_bound(P, j: int, upper: bool):
    """Max (``upper``) or min of coordinate j over P by one `solve_lp`.

    None when that side is unbounded; raises EmptyPolytopeError when P is
    empty.  Runs on the reduced rows, as `HPolytope.bound` does.
    """
    rows = P.reduced_rows
    if rows is None:
        raise EmptyPolytopeError("polytope is empty")
    cost = [ZERO] * P.ambient
    cost[j] = ONE
    res = solve_lp(
        cost, A_ub=[row for row, _ in rows], b_ub=[bi for _, bi in rows], maximize=upper
    )
    if res.status == INFEASIBLE:
        raise EmptyPolytopeError("polytope is empty")
    return res.objective


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
    """Hull intersection decided by eliminating the combination variables.

    The equalities (matching coordinates, each side's weights summing to 1)
    are solved first by a rational Gauss-Jordan pass, which writes each
    pivot weight in the free ones; Fourier-Motzkin then decides whether the
    free weights can keep every weight nonnegative.  Substituting before
    projecting keeps the projection small in R^4.
    """
    m = len(a_pts[0])
    na, nb = len(a_pts), len(b_pts)
    n = na + nb
    eqs = [[Fraction(p[k]) for p in a_pts] + [-Fraction(q[k]) for q in b_pts] + [ZERO]
           for k in range(m)]
    eqs.append([ONE] * na + [ZERO] * nb + [ONE])
    eqs.append([ZERO] * na + [ONE] * nb + [ONE])
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(eqs)) if eqs[i][col]), None)
        if piv is None:
            continue
        eqs[r], eqs[piv] = eqs[piv], eqs[r]
        eqs[r] = [v / eqs[r][col] for v in eqs[r]]
        for i, row in enumerate(eqs):
            if i != r and row[col]:
                f = row[col]
                eqs[i] = [v - f * w for v, w in zip(row, eqs[r])]
        pivots.append(col)
    if any(row[-1] for row in eqs[len(pivots):]):
        return False
    free = [j for j in range(n) if j not in pivots]
    # w_p = rhs - sum_f row[f] w_f >= 0 for each pivot row, and w_f >= 0.
    rows = [[row[j] for j in free] for row in eqs[: len(pivots)]]
    rhs = [row[-1] for row in eqs[: len(pivots)]]
    for k in range(len(free)):
        rows.append([-ONE if i == k else ZERO for i in range(len(free))])
        rhs.append(ZERO)
    return fm_feasible(rows, rhs)


def staged_inscribed_ball(P: HPolytope) -> tuple[Fraction, Point]:
    """Largest inscribed L-infinity ball, then the lex-least center.

    Stage 1 maximizes r subject to A x + r * ||a_i||_1 <= b.  Stage 2 walks
    the coordinates in order, minimizing each over the stage-1 optimal face,
    which makes the result unique even for degenerate polytopes.  Raises for
    empty or unbounded input.
    """
    m = P.ambient
    norms = [sum(abs(a) for a in row) for row in P.A]
    rows = [list(row) + [norm] for row, norm in zip(P.A, norms)]
    res = solve_lp(
        [ZERO] * m + [ONE], A_ub=rows, b_ub=P.b, maximize=True
    )
    if res.status == INFEASIBLE:
        raise EmptyPolytopeError("polytope is empty")
    if res.status == UNBOUNDED:
        raise UnboundedPolytopeError("inscribed radius is unbounded")
    radius = res.objective
    if radius < 0:
        raise EmptyPolytopeError("polytope is empty")
    shrunk_b = [bi - radius * ni for bi, ni in zip(P.b, norms)]
    fixed: list[Fraction] = []
    for j in range(m):
        cost = [ZERO] * m
        cost[j] = ONE
        A_eq = []
        b_eq = []
        for i, v in enumerate(fixed):
            row = [ZERO] * m
            row[i] = ONE
            A_eq.append(row)
            b_eq.append(v)
        step = solve_lp(cost, A_ub=P.A, b_ub=shrunk_b, A_eq=A_eq, b_eq=b_eq)
        if step.status == UNBOUNDED:
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded below")
        if step.status != OPTIMAL:
            raise AssertionError("stage-2 restriction of a nonempty polytope went infeasible")
        fixed.append(step.objective)
    point = tuple(fixed)
    if not P.contains(point):
        raise AssertionError("canonical point escaped its polytope")
    return radius, point


def piecewise_remote_violation(g, meets):
    """First (alpha, beta, piece_a, piece_b) of the plain piece-by-piece audit, or None.

    ``meets(pa, pb)`` is the hull predicate; `fm_hulls_intersect` keeps the
    oracle independent of `linprog`.
    """
    faces = canonical_faces(g.nerve.faces)
    pieces = {}
    for i, alpha in enumerate(faces):
        for beta in faces[i + 1:]:
            if not is_remote(g.nerve, alpha, beta):
                continue
            if alpha not in pieces:
                pieces[alpha] = image_of_face(g, alpha)
            if beta not in pieces:
                pieces[beta] = image_of_face(g, beta)
            for pa in pieces[alpha]:
                for pb in pieces[beta]:
                    if meets(pa, pb):
                        return alpha, beta, pa, pb
    return None

def remote_lemma_quadruples(L, d: int) -> list[tuple]:
    """(gamma, delta, alpha, beta, remote) for every disjoint pair of d-faces
    {gamma, delta} of L, every face alpha of sd gamma and beta of sd delta.

    ``remote`` is `is_remote` in sd L; the remote-face lemma says it always
    holds.
    """
    sdL = barycentric_subdivision(L)
    sub = {f: label_filter_subcomplex(sdL, f) for f in L.faces_of_dim(d)}
    return [
        (gamma, delta, alpha, beta, is_remote(sdL.complex, alpha, beta))
        for gamma, delta in disjoint_simplex_pairs(L, d)
        for alpha in sub[gamma]
        for beta in sub[delta]
    ]


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
        return ObstructionCertificate(True, v, len(pivots), M.n_rows, combo, None)

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
    return ObstructionCertificate(False, v, len(pivots), M.n_rows, None, witness)
