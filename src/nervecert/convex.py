"""Exact rational convex geometry: H-polytopes, emptiness, canonical points,
bounding boxes, hull intersection, and the exact crossing solve of two
placed simplices.

Every predicate here is exact; there are no tolerance parameters.  Convex
sets are H-polytopes {x : Ax <= b} with Fraction entries (boxes are sugar),
which keeps nerve membership and disjointness verification decidable.

Every question about an H-system runs on an integer tableau built straight
from `HPolytope.reduced_rows`, never through `solve_lp`:

- Emptiness and the bounding box share one feasibility tableau
  (`_feasibility_tableau`): one artificial column makes the start feasible,
  and phase 1 minimizes it.  `polytope_is_empty` stops there; `_box` keeps
  the artificial's optimal face, which is the body, and minimizes both
  bounds of every coordinate over it, each from the basis the one before
  ended in.  The box is memoized on the body and gives `boxes_disjoint`, a
  sufficient test that two bodies are disjoint without an LP on the pair.
- The canonical point of a polytope is the lex-least centre of its largest
  inscribed L-infinity ball, which is unique.  It comes from a second
  tableau: the radius and then each coordinate are minimized in turn, each
  over the optimal face of the ones before, from a start that one pivot
  makes feasible.

`solve_lp` serves only `hulls_intersect`, whose inputs are point sets
(V-hulls), not H-systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DimensionMismatchError,
    EmptyPolytopeError,
    GenericityError,
    UnboundedPolytopeError,
)
from .linprog import (
    ONE,
    OPTIMAL,
    UNBOUNDED,
    ZERO,
    face_minima,
    frac,
    gauss_solve,
    lex_stages,
    pivot,
    solve_lp,
)

Point = tuple[Fraction, ...]


def make_point(coords) -> Point:
    return tuple(frac(v) for v in coords)


@dataclass(frozen=True)
class HPolytope:
    """The solution set {x : Ax <= b}; possibly empty, possibly unbounded."""

    ambient: int
    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]

    @classmethod
    def from_rows(cls, A, b, ambient: int | None = None) -> "HPolytope":
        rows = tuple(tuple(frac(v) for v in row) for row in A)
        rhs = tuple(frac(v) for v in b)
        if len(rows) != len(rhs):
            raise DimensionMismatchError(
                f"{len(rows)} constraint rows but {len(rhs)} right-hand sides"
            )
        if ambient is None:
            if not rows:
                raise DimensionMismatchError("ambient dimension required for a row-free polytope")
            ambient = len(rows[0])
        for row in rows:
            if len(row) != ambient:
                raise DimensionMismatchError(
                    f"constraint row has {len(row)} columns, ambient is {ambient}"
                )
        return cls(ambient, rows, rhs)

    @classmethod
    def box(cls, lo, hi) -> "HPolytope":
        """Axis-aligned box [lo_1, hi_1] x ... (empty when some lo_i > hi_i)."""
        lo = [frac(v) for v in lo]
        hi = [frac(v) for v in hi]
        if len(lo) != len(hi):
            raise DimensionMismatchError("box corners have different lengths")
        m = len(lo)
        rows = []
        rhs = []
        for i in range(m):
            upper = [ZERO] * m
            upper[i] = ONE
            rows.append(tuple(upper))
            rhs.append(hi[i])
            lower = [ZERO] * m
            lower[i] = -ONE
            rows.append(tuple(lower))
            rhs.append(-lo[i])
        return cls(m, tuple(rows), tuple(rhs))

    @staticmethod
    def stack(polys) -> "HPolytope":
        """Intersection of polytopes that share one ambient dimension."""
        polys = list(polys)
        if not polys:
            raise ValueError("cannot stack an empty collection")
        ambient = polys[0].ambient
        for p in polys:
            if p.ambient != ambient:
                raise DimensionMismatchError("stacked polytopes must share the ambient dimension")
        A = tuple(row for p in polys for row in p.A)
        b = tuple(v for p in polys for v in p.b)
        return HPolytope(ambient, A, b)

    @property
    def n_rows(self) -> int:
        return len(self.A)

    def contains(self, point) -> bool:
        return self.violated_row(point) is None

    @cached_property
    def integer_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each (row, rhs) times the lcm of its denominators, as ints."""
        out = []
        for row, bi in zip(self.A, self.b):
            scale = lcm(bi.denominator, *(a.denominator for a in row))
            ints = tuple(a.numerator * (scale // a.denominator) for a in row)
            out.append((ints, bi.numerator * (scale // bi.denominator)))
        return tuple(out)

    @cached_property
    def reduced_rows(self) -> tuple[tuple[tuple[int, ...], Fraction], ...] | None:
        """The same set as primitive integer rows, one per direction.

        Each integer row is divided by its gcd, and a direction that repeats
        keeps only its least right-hand side, in order of first appearance.
        Zero rows (0 <= b_i) are dropped; None means one of them has
        b_i < 0, so the polytope is empty.
        """
        least: dict[tuple[int, ...], Fraction] = {}
        for ints, bi in self.integer_rows:
            g = gcd(*ints)
            if g == 0:
                if bi < 0:
                    return None
                continue
            key = tuple(v // g for v in ints)
            rhs = Fraction(bi, g)
            if key not in least or rhs < least[key]:
                least[key] = rhs
        return tuple(least.items())

    @cached_property
    def _box(self) -> tuple[tuple[Fraction | None, Fraction | None], ...] | None:
        """Per coordinate (min, max), None for an unbounded side; None when empty.

        On the feasibility tableau (`_feasibility_tableau`), the artificial
        t is minimized first: a nonzero minimum means empty, and its optimal
        face is exactly the body.  Both signs of every coordinate are then
        minimized over it, each from the basis the one before ended in
        (`linprog.face_minima`).
        """
        start = _feasibility_tableau(self)
        if start is None:
            return None
        T, basis, t_cost = start
        m = self.ambient
        costs = []
        for j in range(m):
            for sign in (1, -1):
                c = [0] * len(t_cost)
                c[2 * j], c[2 * j + 1] = sign, -sign
                costs.append(c)
        minima = face_minima(T, basis, t_cost, costs)
        if minima is None:
            return None
        return tuple(
            (lo, None if neg is None else -neg) for lo, neg in zip(minima[::2], minima[1::2])
        )

    def bound(self, j: int, upper: bool) -> Fraction | None:
        """Exact max (``upper``) or min of coordinate j.

        Read off the body's whole box, which is computed once and memoized
        on the body.  None when the coordinate is unbounded on that side;
        raises EmptyPolytopeError for an empty body.
        """
        if self._box is None:
            raise EmptyPolytopeError("polytope is empty")
        return self._box[j][upper]

    def violated_row(self, point) -> int | None:
        """Index of the first constraint the point breaks, or None."""
        p = make_point(point)
        if len(p) != self.ambient:
            raise DimensionMismatchError(
                f"point has {len(p)} coordinates, ambient is {self.ambient}"
            )
        # Exact in integers: the point over a common denominator D, each row
        # scaled by a positive factor.
        D = lcm(*(x.denominator for x in p))
        nums = [x.numerator * (D // x.denominator) for x in p]
        for i, (row, bi) in enumerate(self.integer_rows):
            if sum(a * v for a, v in zip(row, nums)) > bi * D:
                return i
        return None


def _slack_tableau(rows, m: int, extra) -> list[list[int]]:
    """Integer rows of a_i.(x^+ - x^-) + e_i.z + s_i = b_i, over reduced rows.

    Columns: x_j^+ and x_j^- at 2j and 2j+1, then the columns z whose
    coefficients ``extra[i]`` gives per row, then one slack per row.  Row i
    is scaled by the denominator of b_i, which makes it integral (a_i is
    primitive) and primitive, and the all-slack basis canonical.
    """
    k = len(rows)
    T = []
    for i, ((row, bi), ext) in enumerate(zip(rows, extra)):
        den = bi.denominator
        scaled = [den * a for a in row]
        std = [0] * (2 * m) + [den * e for e in ext] + [0] * (k + 1)
        std[0 : 2 * m : 2] = scaled
        std[1 : 2 * m : 2] = [-v for v in scaled]
        std[2 * m + len(ext) + i] = den
        std[-1] = bi.numerator
        T.append(std)
    return T


def _feasibility_tableau(P: HPolytope):
    """A feasible start for phase 1 over P's reduced rows, or None for a zero row.

    One integer tableau: x^+ and x^-, then one artificial column t, then
    the slacks.  t enters with coefficient -1 only the rows with b_i < 0,
    so one pivot of t into the row with the least b_i makes every slack
    nonnegative.  Returns (T, basis, t_cost); P is empty iff the least t
    is nonzero, and at t = 0 the feasible set is exactly P.
    """
    rows = P.reduced_rows
    if rows is None:
        return None
    m = P.ambient
    T = _slack_tableau(rows, m, [(-1,) if bi < 0 else (0,) for _, bi in rows])
    basis = [2 * m + 1 + i for i in range(len(rows))]
    if rows:
        low = min(range(len(rows)), key=lambda i: rows[i][1])
        if rows[low][1] < 0:
            pivot(T, basis, low, 2 * m)
    t_cost = [0] * (2 * m + 1 + len(rows))
    t_cost[2 * m] = 1
    return T, basis, t_cost


def polytope_is_empty(P: HPolytope) -> bool:
    """Exact emptiness of {x : Ax <= b}: phase 1 of P's feasibility tableau."""
    start = _feasibility_tableau(P)
    return start is None or face_minima(*start, []) is None


def boxes_disjoint(P: HPolytope, Q: HPolytope) -> bool:
    """True when the exact bounding boxes of P and Q are disjoint, so P n Q = {}.

    Coordinates are scanned in order, and the scan stops at the first
    separating coordinate.  A body's box is one tableau, built on its first
    `HPolytope.bound` read and memoized on the body, so the test costs at
    most one tableau per body however many pairs it meets.  An empty body
    has an empty box.  False proves nothing: disjoint bodies can have
    overlapping boxes.
    """
    if P.ambient != Q.ambient:
        raise DimensionMismatchError("bodies live in different ambient dimensions")
    try:
        for j in range(P.ambient):
            for low, high in ((P, Q), (Q, P)):
                top = low.bound(j, True)
                if top is not None:
                    bottom = high.bound(j, False)
                    if bottom is not None and top < bottom:
                        return True
    except EmptyPolytopeError:
        return True
    return False


def inscribed_ball(P: HPolytope) -> tuple[Fraction, Point]:
    """Largest inscribed L-infinity ball, then the lex-least center.

    The radius LP maximizes r subject to A x + r * ||a_i||_1 <= b; then the
    coordinates, in order, are minimized over the optimal face of everything
    before, which makes the result unique even for degenerate polytopes.
    Those m + 1 objectives run on one integer tableau (`linprog.lex_stages`),
    built straight from `HPolytope.reduced_rows` with each row scaled by the
    denominator of its b_i, so its all-slack basis is already canonical.
    The start needs no phase 1: one pivot of r's negative part into the row
    with the least b_i / ||a_i||_1 makes every slack nonnegative.  A zero row with
    b_i < 0 makes the polytope empty, and so does a negative radius, which is
    checked before any coordinate stage.  Raises for empty or unbounded input.
    """
    m = P.ambient
    rows = P.reduced_rows
    if rows is None:
        raise EmptyPolytopeError("polytope is empty")
    k = len(rows)
    norms = [sum(map(abs, row)) for row, _ in rows]
    # Columns: x_j^+ and x_j^- at 2j and 2j+1, r^+ and r^- at 2m and 2m+1,
    # then one slack per row.
    T = _slack_tableau(rows, m, [(norm, -norm) for norm in norms])
    basis = [2 * m + 2 + i for i in range(k)]
    if k:
        tight = min(range(k), key=lambda i: rows[i][1] / norms[i])
        if rows[tight][1] < 0:
            pivot(T, basis, tight, 2 * m + 1)
    costs = [[0] * (2 * m + 2 + k) for _ in range(m + 1)]
    costs[0][2 * m], costs[0][2 * m + 1] = -1, 1
    for j in range(m):
        costs[j + 1][2 * j], costs[j + 1][2 * j + 1] = 1, -1
    stages = lex_stages(T, basis, costs)
    status, x = next(stages)
    if status == UNBOUNDED:
        raise UnboundedPolytopeError("inscribed radius is unbounded")
    radius = x[2 * m] - x[2 * m + 1]
    if radius < 0:
        raise EmptyPolytopeError("polytope is empty")
    for j, (status, x) in enumerate(stages):
        if status == UNBOUNDED:
            raise UnboundedPolytopeError(f"coordinate {j} is unbounded below")
    point = tuple(x[2 * j] - x[2 * j + 1] for j in range(m))
    if not P.contains(point):
        raise AssertionError("canonical point escaped its polytope")
    return radius, point


def canonical_point(P: HPolytope) -> Point:
    """Deterministic member of a nonempty bounded polytope (see inscribed_ball)."""
    return inscribed_ball(P)[1]


def _check_points(pts, name: str) -> list[Point]:
    pts = [make_point(p) for p in pts]
    if not pts:
        raise ValueError(f"{name} needs at least one point")
    ambient = len(pts[0])
    for p in pts:
        if len(p) != ambient:
            raise DimensionMismatchError(f"{name} mixes ambient dimensions")
    return pts


def hulls_intersect(a_pts, b_pts) -> bool:
    """Exact test conv(a_pts) n conv(b_pts) != {} via LP feasibility."""
    a = _check_points(a_pts, "first hull")
    b = _check_points(b_pts, "second hull")
    if len(a[0]) != len(b[0]):
        raise DimensionMismatchError("hulls live in different ambient dimensions")
    m = len(a[0])
    na, nb = len(a), len(b)
    A_eq = []
    b_eq = []
    for k in range(m):
        A_eq.append([p[k] for p in a] + [-q[k] for q in b])
        b_eq.append(ZERO)
    A_eq.append([ONE] * na + [ZERO] * nb)
    b_eq.append(ONE)
    A_eq.append([ZERO] * na + [ONE] * nb)
    b_eq.append(ONE)
    res = solve_lp(
        [ZERO] * (na + nb), A_eq=A_eq, b_eq=b_eq, nonneg=[True] * (na + nb)
    )
    return res.status == OPTIMAL


@dataclass(frozen=True)
class Crossing:
    """Outcome of a generic crossing query; point is set when parity is 1."""

    parity: int
    point: Point | None


def crossing(sigma_pts, tau_pts) -> Crossing:
    """Solve the square barycentric system for two placed d-simplices in R^2d.

    Parity 1 means the unique common affine point has strictly positive
    coordinates on both sides; strictly negative coordinates give parity 0,
    as do disjoint affine hulls.  Degenerate data (overlapping hulls of the
    wrong dimension, or a boundary intersection) raises GenericityError.
    """
    s = _check_points(sigma_pts, "sigma")
    t = _check_points(tau_pts, "tau")
    ambient = len(s[0])
    if len(t[0]) != ambient:
        raise DimensionMismatchError("simplices live in different ambient dimensions")
    if ambient % 2 != 0 or ambient == 0:
        raise DimensionMismatchError(f"ambient dimension must be 2d, got {ambient}")
    d = ambient // 2
    if len(s) != d + 1 or len(t) != d + 1:
        raise DimensionMismatchError(
            f"need d+1 = {d + 1} points per simplex, got {len(s)} and {len(t)}"
        )
    ns, nt = len(s), len(t)
    M = []
    rhs = []
    for k in range(ambient):
        M.append([p[k] for p in s] + [-q[k] for q in t])
        rhs.append(ZERO)
    M.append([ONE] * ns + [ZERO] * nt)
    rhs.append(ONE)
    M.append([ZERO] * ns + [ONE] * nt)
    rhs.append(ONE)
    kind, z = gauss_solve(M, rhs)
    if kind == "inconsistent":
        return Crossing(0, None)
    if kind == "underdetermined":
        raise GenericityError(
            "affine hulls meet degenerately; perturb the placement and retry"
        )
    if any(v == 0 for v in z):
        raise GenericityError(
            "intersection lies on a simplex boundary; perturb the placement and retry"
        )
    if all(v > 0 for v in z):
        point = tuple(
            sum((z[i] * s[i][k] for i in range(ns)), ZERO) for k in range(ambient)
        )
        return Crossing(1, point)
    return Crossing(0, None)

