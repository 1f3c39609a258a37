"""Exact rational convex geometry: H-polytopes, emptiness, canonical points,
bounding boxes, hull intersection, and the exact crossing solve of two
placed simplices.

Every predicate here is exact; there are no tolerance parameters.  Convex
sets are H-polytopes {x : Ax <= b} with exact entries, `int` where
integral, else `Fraction` (boxes are sugar), which keeps nerve membership
and disjointness verification decidable.  A body read from a document
keeps its integers; `from_rows` and `box` make `Fraction`s.

Every question about an H-system runs on an integer dictionary built
straight from `HPolytope.reduced_rows`, never through `solve_lp`: the free
coordinates x_0..x_{m-1}, one more variable, and one basic slack per row,
so a row stores m + 1 columns and its right-hand side.  A stacked system
(`HPolytope.stack`) merges its members' memoized reduced rows instead of
deriving its own from `Fraction`s.  What these dictionaries yield, the
emptiness verdict, every bound, the radius and the lex-least centre, is
unique, so none of it depends on the pivot path.

- Emptiness and the bounding box share one feasibility dictionary
  (`_feasibility_dictionary`): one artificial t >= 0 makes the start
  feasible, and phase 1 minimizes it.  Its optimal face is the body; it is
  memoized on the body, so `polytope_is_empty` reads it, and
  `HPolytope.bound` minimizes each (coordinate, side) over it on first
  request, from the basis the one before ended in.  The bounds give
  `boxes_disjoint`, a sufficient test that two bodies are disjoint without
  an LP on the pair.
- The canonical point of a polytope is the lex-least centre of its largest
  inscribed L-infinity ball, which is unique.  It comes from a second
  dictionary, over the free radius r: the radius and then each coordinate
  are minimized in turn, each over the optimal face of the ones before,
  from a start that one pivot makes feasible.  The radius stage alone
  decides emptiness, so `inscribed_radius` stops there and hands back the
  coordinate stages as a call, which alone raises for an unbounded radius
  or coordinate; the nerve walk runs it only once every face has passed.

Point sets (V-hulls) share one weight system (`_hull_system`):
`hulls_intersect` hands it to `solve_lp`, and `crossing`, for two
d-simplices in R^2d, to `gauss_solve`, for their crossing point or None.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul

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
    Dictionary,
    face_minimum,
    frac,
    gauss_solve,
    least_face,
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
    A: tuple[tuple[int | Fraction, ...], ...]  # int where integral, else Fraction
    b: tuple[int | Fraction, ...]  # likewise

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
        """Intersection of polytopes that share one ambient dimension.

        One polytope stacks to itself, memos and all.  Otherwise the rows
        are concatenated, and `reduced_rows` is merged from the members'
        own, which is what deriving it afresh from the stacked rows gives.
        """
        polys = list(polys)
        if not polys:
            raise ValueError("cannot stack an empty collection")
        ambient = polys[0].ambient
        for p in polys:
            if p.ambient != ambient:
                raise DimensionMismatchError("stacked polytopes must share the ambient dimension")
        if len(polys) == 1:
            return polys[0]
        A = tuple(row for p in polys for row in p.A)
        b = tuple(v for p in polys for v in p.b)
        P = HPolytope(ambient, A, b)
        parts = [p.reduced_rows for p in polys]
        # seeds the cached property; None when some member has a zero row with b_i < 0
        vars(P)["reduced_rows"] = (
            None if any(part is None for part in parts)
            else _least_per_direction(row for part in parts for row in part)
        )
        return P

    @property
    def n_rows(self) -> int:
        return len(self.A)

    def contains(self, point) -> bool:
        return self.violated_row(point) is None

    @cached_property
    def reduced_rows(self) -> tuple[tuple[tuple[int, ...], int | Fraction], ...] | None:
        """The same set as primitive integer rows, one per direction.

        Each row times the lcm of its denominators is divided by its gcd,
        and a direction that repeats keeps only its least right-hand side,
        in order of first appearance.  An all-`int` row takes no lcm, and a
        row that is integral and primitive as read keeps its b_i as read,
        `int` or `Fraction`; every other b_i becomes a `Fraction`.  Zero
        rows (0 <= b_i) are dropped; None means one of them has b_i < 0, so
        the polytope is empty.
        """
        rows = []
        for row, bi in zip(self.A, self.b):
            if all([type(a) is int for a in row]):
                scale, ints = 1, row
            else:
                scale = lcm(*(a.denominator for a in row))
                ints = [a.numerator * (scale // a.denominator) for a in row]
            g = gcd(*ints)
            if g == 0:
                if bi < 0:
                    return None
            elif g == scale == 1:
                rows.append((tuple(ints), bi))
            else:
                rows.append((tuple(v // g for v in ints), Fraction(bi * scale, g)))
        return _least_per_direction(rows)

    @cached_property
    def _body_face(self):
        """The body as a face of its feasibility dictionary: (D, bounds), or None.

        Phase 1 minimizes the artificial t (`linprog.least_face`); a nonzero
        minimum means empty, and its optimal face is exactly the body.
        ``bounds`` memoizes what `bound` has read.
        """
        D = _feasibility_dictionary(self)
        if D is None or not least_face(D, {self.ambient: 1}):
            return None
        return D, {}

    def bound(self, j: int, upper: bool) -> Fraction | None:
        """Exact max (``upper``) or min of coordinate j.

        Minimized over the body's face on the first read of (j, upper),
        from the basis the read before ended in, and memoized on the body.
        None when the coordinate is unbounded on that side; raises
        EmptyPolytopeError for an empty body.
        """
        face = self._body_face
        if face is None:
            raise EmptyPolytopeError("polytope is empty")
        D, bounds = face
        if (j, upper) not in bounds:
            sign = -1 if upper else 1
            least = face_minimum(D, {j: sign})
            bounds[j, upper] = None if least is None else sign * least
        return bounds[j, upper]

    def violated_row(self, point) -> int | None:
        """Index of the first row i with A_i.p > b_i (the rule `recheck` applies), or None."""
        p = make_point(point)
        if len(p) != self.ambient:
            raise DimensionMismatchError(
                f"point has {len(p)} coordinates, ambient is {self.ambient}"
            )
        return next(
            (i for i, (row, bi) in enumerate(zip(self.A, self.b)) if sum(map(mul, row, p)) > bi),
            None,
        )


def _least_per_direction(rows) -> tuple[tuple[tuple[int, ...], int | Fraction], ...]:
    """(direction, rhs) pairs with each direction once, at its least rhs, in order of first appearance."""
    least: dict[tuple[int, ...], int | Fraction] = {}
    for key, rhs in rows:
        if key not in least or rhs < least[key]:
            least[key] = rhs
    return tuple(least.items())


def _first_violated(rows, p: Point) -> int | None:
    """Index of the first reduced row (a, b) with a.p > b, or None: the centre check.

    Exact in integers: the point over a common denominator D, each row
    scaled by the denominator of its b.  A point meets the reduced rows of
    a stack iff it meets every row of every member: each reduced row is a
    positive multiple of an original one, and a dropped row is either a
    zero row with b >= 0 or a repeat of its direction at a larger b.
    """
    D = lcm(*(x.denominator for x in p))
    nums = [x.numerator * (D // x.denominator) for x in p]
    for i, (row, bi) in enumerate(rows):
        if sum(map(mul, row, nums)) * bi.denominator > bi.numerator * D:
            return i
    return None


def _slack_dictionary(rows, m: int, extra, free: int) -> Dictionary:
    """The dictionary of a_i.x + e_i z + s_i = b_i over reduced rows, slacks basic.

    Variables: x_0..x_{m-1}, then z (id m) with coefficient ``extra[i]`` in
    row i, then the slack scaled by den_i, the denominator of b_i (id
    m + 1 + i); those below ``free`` are free.  Row i times den_i is
    integral (a_i is primitive) with its slack at coefficient 1, so det = 1.
    No caller reads a slack, and a positive column scale changes no sign
    and no ratio order, so the pivots are those of the unscaled slacks.
    """
    out = []
    for (row, bi), e in zip(rows, extra):
        den = bi.denominator
        out.append([den * a for a in row] + [den * e, bi.numerator])
    return Dictionary(out, 1, list(range(m + 1, m + 1 + len(rows))), list(range(m + 1)), free)


def _started(D: Dictionary, j: int) -> Dictionary:
    """D after a pivot of column j into the first row of least rhs / |entry| where entry != 0."""
    best = None
    for i, row in enumerate(D.rows):
        e = abs(row[j])
        if e and (best is None or row[-1] * best_e < best_rhs * e):
            best, best_e, best_rhs = i, e, row[-1]
    if best is not None:
        pivot(D, best, j)
    return D


def _feasibility_dictionary(P: HPolytope) -> Dictionary | None:
    """A feasible start for phase 1 over P's reduced rows, or None for a zero row.

    The free x, then one artificial t >= 0 (id m), then the scaled slacks.
    t enters only the rows with b_i < 0, at -1 before scaling, so one pivot
    of t into the row with the least b_i makes every slack nonnegative.  P
    is empty iff the least t is nonzero; at t = 0 the feasible set is P.
    """
    rows = P.reduced_rows
    if rows is None:
        return None
    m = P.ambient
    return _started(_slack_dictionary(rows, m, [-1 if bi < 0 else 0 for _, bi in rows], m), m)


def polytope_is_empty(P: HPolytope) -> bool:
    """Exact emptiness of {x : Ax <= b}: phase 1 of P's feasibility dictionary.

    The dictionary stays memoized on P, where `HPolytope.bound` reads it.
    """
    return P._body_face is None


def boxes_disjoint(P: HPolytope, Q: HPolytope) -> bool:
    """True when the exact bounding boxes of P and Q are disjoint, so P n Q = {}.

    Coordinates are scanned in order, and the scan stops at the first
    separating coordinate.  A body's bounds share one dictionary, built on
    its first `HPolytope.bound` read, and each bound read is memoized on the
    body.  So the test costs at most one dictionary and one minimization per
    (body, coordinate, side), however many pairs it meets, and none for a
    coordinate past the separating one.  An empty body has an empty box.
    False proves nothing: disjoint bodies can have overlapping boxes.
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


def inscribed_radius(P: HPolytope) -> tuple[Fraction | None, Callable[[], Point]]:
    """The radius of the largest inscribed L-infinity ball, and a call for its centre.

    The radius LP maximizes r subject to A x + r * ||a_i||_1 <= b; then the
    coordinates, in order, are minimized over the optimal face of everything
    before, which makes the centre unique even for degenerate polytopes.
    Those m + 1 objectives run on one integer dictionary
    (`linprog.lex_stages`) built straight from `HPolytope.reduced_rows`:
    x and r are free, and the slacks start basic, each row scaled by the
    denominator of its b_i.  The start needs no phase 1: one pivot of r into
    the row with the least b_i / ||a_i||_1 makes every slack nonnegative.

    Only the radius stage runs here, and it reads one value, r.  A zero row
    with b_i < 0 makes the polytope empty, and so does a negative radius.
    An unbounded radius is None, and the returned call raises for it; else
    the call runs the coordinate stages from where the radius stage stopped,
    raises UnboundedPolytopeError for a coordinate unbounded below, and
    checks the centre against the reduced rows.
    """
    m = P.ambient
    rows = P.reduced_rows
    if rows is None:
        raise EmptyPolytopeError("polytope is empty")
    D = _started(_slack_dictionary(rows, m, [sum(map(abs, row)) for row, _ in rows], m + 1), m)
    stages = lex_stages(D, [{m: -1}] + [{j: 1} for j in range(m)])
    radius = None if next(stages) == UNBOUNDED else D.value(m)
    if radius is not None and radius < 0:
        raise EmptyPolytopeError("polytope is empty")

    def centre() -> Point:
        if radius is None:
            raise UnboundedPolytopeError("inscribed radius is unbounded")
        for j, status in enumerate(stages):
            if status == UNBOUNDED:
                raise UnboundedPolytopeError(f"coordinate {j} is unbounded below")
        point = tuple(D.value(j) for j in range(m))
        if _first_violated(rows, point) is not None:
            raise AssertionError("canonical point escaped its polytope")
        return point

    return radius, centre


def inscribed_ball(P: HPolytope) -> tuple[Fraction, Point]:
    """Largest inscribed L-infinity ball, then the lex-least center (`inscribed_radius`).

    Raises for empty or unbounded input.
    """
    radius, centre = inscribed_radius(P)
    return radius, centre()


def canonical_point(P: HPolytope) -> Point:
    """Deterministic member of a nonempty bounded polytope (see inscribed_ball)."""
    return inscribed_ball(P)[1]


def _hull_system(a_pts, b_pts, a_name: str, b_name: str, both: str):
    """Checked points a, b, and the rows and rhs of P lam - Q mu = 0, sum lam = sum mu = 1."""
    a = _check_points(a_pts, a_name)
    b = _check_points(b_pts, b_name)
    m = len(a[0])
    if len(b[0]) != m:
        raise DimensionMismatchError(f"{both} live in different ambient dimensions")
    rows = [[p[k] for p in a] + [-q[k] for q in b] for k in range(m)]
    rows.append([ONE] * len(a) + [ZERO] * len(b))
    rows.append([ZERO] * len(a) + [ONE] * len(b))
    return a, b, rows, [ZERO] * m + [ONE, ONE]


def _check_points(pts, name: str) -> list[Point]:
    pts = [make_point(p) for p in pts]
    if not pts:
        raise ValueError(f"{name} needs at least one point")
    if any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatchError(f"{name} mixes ambient dimensions")
    return pts


def hulls_intersect(a_pts, b_pts) -> bool:
    """Exact test conv(a_pts) n conv(b_pts) != {} via LP feasibility."""
    _, _, rows, rhs = _hull_system(a_pts, b_pts, "first hull", "second hull", "hulls")
    n = len(rows[0])
    return solve_lp([ZERO] * n, A_eq=rows, b_eq=rhs, nonneg=[True] * n).status == OPTIMAL


def crossing(sigma_pts, tau_pts) -> Point | None:
    """Solve the square barycentric system for two placed d-simplices in R^2d.

    The point where they cross is the unique common affine point with strictly
    positive coordinates on both sides; strictly negative ones give None, as
    do disjoint affine hulls.  Degenerate data (overlapping hulls of the
    wrong dimension, or a boundary intersection) raises GenericityError.
    """
    s, t, M, rhs = _hull_system(sigma_pts, tau_pts, "sigma", "tau", "simplices")
    ambient = len(s[0])
    if ambient % 2 != 0 or ambient == 0:
        raise DimensionMismatchError(f"ambient dimension must be 2d, got {ambient}")
    d = ambient // 2
    if len(s) != d + 1 or len(t) != d + 1:
        raise DimensionMismatchError(
            f"need d+1 = {d + 1} points per simplex, got {len(s)} and {len(t)}"
        )
    kind, z = gauss_solve(M, rhs)
    if kind == "inconsistent":
        return None
    if kind == "underdetermined":
        raise GenericityError(
            "affine hulls meet degenerately; perturb the placement and retry"
        )
    if any(v == 0 for v in z):
        raise GenericityError(
            "intersection lies on a simplex boundary; perturb the placement and retry"
        )
    if all(v > 0 for v in z):
        return tuple(sum((w * p[k] for w, p in zip(z, s)), ZERO) for k in range(ambient))
    return None

