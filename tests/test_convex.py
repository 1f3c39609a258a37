"""Exact convex predicates: emptiness, canonical points, hulls, crossings."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nervecert.linprog
from nervecert import (
    EmptyPolytopeError,
    GenericityError,
    HPolytope,
    UnboundedPolytopeError,
    canonical_point,
    crossing,
    hulls_intersect,
    inscribed_ball,
    polytope_is_empty,
)
from nervecert.convex import _first_violated
from conftest import random_box
from oracles import fm_hulls_intersect, fm_polytope_is_empty, segments_cross_properly
from test_inscribed_ball import random_hpolytope


def parabola(t) -> tuple[Fraction, Fraction]:
    t = Fraction(t)
    return (t, t * t)


def test_emptiness_examples():
    assert polytope_is_empty(
        HPolytope.stack([HPolytope.box([0, 0], [1, 1]), HPolytope.box([2, 2], [3, 3])])
    )
    assert not polytope_is_empty(
        HPolytope.stack([HPolytope.box([0], [2]), HPolytope.box([1], [3])])
    )
    assert not polytope_is_empty(HPolytope.from_rows([[1], [-1]], [0, 0]))


def test_emptiness_agrees_with_interval_logic_on_boxes():
    rng = random.Random(37)
    for _ in range(40):
        m = rng.randint(1, 3)
        boxes = [random_box(rng, m) for _ in range(rng.randint(1, 4))]
        stacked = HPolytope.stack(boxes)
        # independent route: a box stack is empty iff some coordinate is
        los = [max(-b.b[2 * i + 1] for b in boxes) for i in range(m)]
        his = [min(b.b[2 * i] for b in boxes) for i in range(m)]
        expected = any(lo > hi for lo, hi in zip(los, his))
        assert polytope_is_empty(stacked) == expected
        assert fm_polytope_is_empty(stacked) == expected


def random_stack(rng) -> list[HPolytope]:
    """One to three `random_hpolytope` bodies in one ambient dimension, maybe a rescaled copy.

    The copy scales a member's rows by a positive factor and moves its
    right-hand sides, so its directions repeat at other right-hand sides.
    """
    first = random_hpolytope(rng)[1]
    parts = [first]
    while len(parts) < rng.randint(1, 3):
        P = random_hpolytope(rng)[1]
        if P.ambient == first.ambient:
            parts.append(P)
    if rng.random() < 0.4:
        P = rng.choice(parts)
        scale = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        parts.append(HPolytope(
            P.ambient,
            tuple(tuple(scale * a for a in row) for row in P.A),
            tuple(scale * bi + rng.choice((-1, 0, 1)) for bi in P.b),
        ))
    rng.shuffle(parts)
    return parts


def merged_and_fresh(parts):
    """The stack's merged reduced rows, and those derived afresh from its rows."""
    S = HPolytope.stack(parts)
    if len(parts) == 1:
        assert S is parts[0]
    return S.reduced_rows, HPolytope(S.ambient, S.A, S.b).reduced_rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_merged_rows_equal_fresh_rows(seed):
    merged, fresh = merged_and_fresh(random_stack(random.Random(seed)))
    assert merged == fresh


def test_the_merged_rows_property_reaches_every_outcome():
    # The same generator, seeded: one-body stacks, stacks with a zero row
    # b_i < 0, and stacks whose members repeat a direction must all occur.
    rng = random.Random(14)
    seen = Counter()
    for _ in range(300):
        parts = random_stack(rng)
        merged, fresh = merged_and_fresh(parts)
        assert merged == fresh
        if len(parts) == 1:
            seen["one body"] += 1
        elif merged is None:
            seen["zero row, b < 0"] += 1
        elif len(merged) < sum(len(part.reduced_rows) for part in parts):
            seen["repeated direction"] += 1
    for outcome in ("one body", "zero row, b < 0", "repeated direction"):
        assert seen[outcome] >= 20, seen


def points_to_try(rng, parts) -> list:
    """Rational points to try against a stack: random ones, and each member's canonical point.

    A member's canonical point often lies on a row of its own and near the
    rows of the other members, where a stack that kept the wrong right-hand
    side of a repeated direction would judge it differently.
    """
    m = parts[0].ambient
    points = [
        tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(m))
        for _ in range(3)
    ]
    for P in parts:
        try:
            points.append(canonical_point(P))
        except (EmptyPolytopeError, UnboundedPolytopeError):
            pass
    return points


def centre_check_agrees(parts, p) -> bool:
    """Whether p meets every member; asserts the stack's reduced rows say the same."""
    rows = HPolytope.stack(parts).reduced_rows
    in_members = all(P.violated_row(p) is None for P in parts)
    assert (rows is not None and _first_violated(rows, p) is None) == in_members
    return in_members


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_the_centre_check_is_membership_in_every_member(seed):
    rng = random.Random(seed)
    parts = random_stack(rng)
    for p in points_to_try(rng, parts):
        centre_check_agrees(parts, p)


def test_the_centre_check_property_reaches_every_outcome():
    # The same generators, seeded: points inside every member, points outside
    # some member, and points on a stack with a zero row b_i < 0 must all occur.
    rng = random.Random(15)
    seen = Counter()
    for _ in range(300):
        parts = random_stack(rng)
        empty = HPolytope.stack(parts).reduced_rows is None
        for p in points_to_try(rng, parts):
            inside = centre_check_agrees(parts, p)
            seen["zero row, b < 0" if empty else "inside" if inside else "outside"] += 1
    for outcome in ("inside", "outside", "zero row, b < 0"):
        assert seen[outcome] >= 20, seen


def test_canonical_point_examples():
    r, p = inscribed_ball(HPolytope.box([0, 0], [2, 2]))
    assert (r, p) == (Fraction(1), (Fraction(1), Fraction(1)))
    r, p = inscribed_ball(HPolytope.box([1], [2]))
    assert (r, p) == (Fraction(1, 2), (Fraction(3, 2),))
    segment = HPolytope.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 2, 0])
    r, p = inscribed_ball(segment)
    assert r == 0
    assert p == (Fraction(0), Fraction(0))


def test_canonical_point_on_random_boxes():
    # for a pure box the rule has a closed form: half the least width, then
    # the lex-least center of the inscribed-ball region
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(1, 3)
        box = random_box(rng, m)
        his = [box.b[2 * i] for i in range(m)]
        los = [-box.b[2 * i + 1] for i in range(m)]
        r_expected = min((h - l) / 2 for h, l in zip(his, los))
        r, p = inscribed_ball(box)
        assert r == r_expected
        assert p == tuple(l + r_expected for l in los)
        assert box.contains(p)


def test_canonical_point_empty_raises():
    with pytest.raises(EmptyPolytopeError):
        canonical_point(HPolytope.box([1], [0]))
    with pytest.raises(EmptyPolytopeError):
        canonical_point(HPolytope.from_rows([[0, 0]], [-1], ambient=2))


def test_canonical_point_unbounded_raises():
    with pytest.raises(UnboundedPolytopeError):
        canonical_point(HPolytope.from_rows([[1]], [0]))  # halfline, stage 1 unbounded
    slab = HPolytope.from_rows([[1, 0], [-1, 0]], [1, 0], ambient=2)
    with pytest.raises(UnboundedPolytopeError):
        canonical_point(slab)  # stage 1 bounded, a coordinate is not


def test_canonical_point_matches_emptiness():
    rng = random.Random(43)
    for _ in range(25):
        m = rng.randint(1, 2)
        boxes = [random_box(rng, m) for _ in range(rng.randint(1, 3))]
        stacked = HPolytope.stack(boxes)
        if polytope_is_empty(stacked):
            with pytest.raises(EmptyPolytopeError):
                canonical_point(stacked)
        else:
            assert stacked.contains(canonical_point(stacked))


def test_hulls_examples():
    assert hulls_intersect([(0, 0), (1, 1)], [(0, 1), (1, 0)])
    assert not hulls_intersect([(0, 0), (1, 0)], [(0, 1), (1, 1)])
    assert hulls_intersect([(0, 0), (1, 0)], [(1, 0), (2, 5)])


def test_hulls_symmetry_and_self():
    rng = random.Random(47)
    for _ in range(15):
        m = rng.randint(1, 3)
        a = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        b = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        assert hulls_intersect(a, b) == hulls_intersect(b, a)
        assert hulls_intersect(a, a)


def test_hulls_agree_with_fourier_motzkin():
    rng = random.Random(53)
    for _ in range(25):
        m = rng.randint(1, 2)
        a = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        b = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        assert hulls_intersect(a, b) == fm_hulls_intersect(a, b)


def random_hull_pair(rng) -> tuple[list, list]:
    """Two point sets in one of R^1 to R^4 with rational coordinates.

    Each side may gain a repeated point, a point on the line through two of
    its own (so its points are affinely dependent), or a point of the other
    side's hull (so the hulls meet).  Such inputs leave an artificial basic
    at level zero when `solve_lp`'s phase 1 ends.
    """
    m = rng.randint(1, 4)

    def point():
        return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(m))

    def on_line(pts, t):
        p, q = rng.choice(pts), rng.choice(pts)
        return tuple(x + t * (y - x) for x, y in zip(p, q))

    a = [point() for _ in range(rng.randint(1, 3))]
    b = [point() for _ in range(rng.randint(1, 3))]
    for pts, other in ((a, b), (b, a)):
        r = rng.random()
        if r < 0.25:
            pts.append(rng.choice(pts))
        elif r < 0.5:
            pts.append(on_line(pts, Fraction(rng.randint(-2, 4), 2)))
        elif r < 0.7:
            pts.append(on_line(other, Fraction(rng.randint(0, 2), 2)))
        rng.shuffle(pts)
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_hulls_agree_with_fourier_motzkin_up_to_r4(seed):
    a, b = random_hull_pair(random.Random(seed))
    assert hulls_intersect(a, b) == fm_hulls_intersect(a, b)


def test_the_hull_property_reaches_every_outcome(monkeypatch):
    # The same generator, seeded: in each of R^1 to R^4 the hulls both meet
    # and miss, and phase 1 ends with an artificial basic at level zero.
    real = nervecert.linprog.least_face
    zero_level = []

    def spy(D, face_cost):
        feasible = real(D, face_cost)
        zero_level.append(feasible and any(v in face_cost for v in D.basis))
        return feasible

    monkeypatch.setattr(nervecert.linprog, "least_face", spy)
    rng = random.Random(17)
    seen = Counter()
    for _ in range(300):
        a, b = random_hull_pair(rng)
        meets = hulls_intersect(a, b)
        assert meets == fm_hulls_intersect(a, b)
        m = len(a[0])
        seen[m, "meet" if meets else "miss"] += 1
        seen[m, "artificial at level zero"] += zero_level.pop()
    for m in range(1, 5):
        for outcome in ("meet", "miss", "artificial at level zero"):
            assert seen[m, outcome] >= 5, seen


def test_crossing_parabola_examples():
    pts = {t: parabola(t) for t in range(1, 6)}
    assert crossing([pts[1], pts[3]], [pts[2], pts[4]]) == (Fraction(5, 2), Fraction(7))
    assert crossing([pts[1], pts[2]], [pts[3], pts[4]]) is None
    # chords {1,4} and {2,3} of the parabola are parallel and disjoint
    assert crossing([pts[1], pts[4]], [pts[2], pts[3]]) is None


def test_crossing_parallel_disjoint_after_moving_a_point():
    pts = {t: parabola(t) for t in range(1, 6)}
    moved = (Fraction(3), Fraction(8))  # parallel to the {1,3} chord, off its line
    assert crossing([pts[1], pts[3]], [pts[2], moved]) is None


def test_crossing_genericity_failures():
    with pytest.raises(GenericityError):
        crossing([(0, 0), (2, 2)], [(1, 1), (3, 0)])  # endpoint on the other segment
    with pytest.raises(GenericityError):
        crossing([(0, 0), (2, 0)], [(1, 0), (3, 0)])  # collinear overlap
    with pytest.raises(GenericityError):
        crossing([(0, 0), (2, 2)], [(1, 1), (3, 3)])  # same supporting line


def test_crossing_validates_shapes():
    with pytest.raises(Exception):
        crossing([(0, 0)], [(1, 1), (2, 2)])
    with pytest.raises(Exception):
        crossing([(0, 0, 0), (1, 1, 1)], [(0, 1, 0), (1, 0, 0)])  # odd ambient


def test_crossing_agrees_with_orientation_oracle():
    rng = random.Random(59)
    done = 0
    while done < 40:
        pts = [tuple(Fraction(rng.randint(-6, 6)) for _ in range(2)) for _ in range(4)]
        try:
            point = crossing(pts[:2], pts[2:])
        except GenericityError:
            continue
        assert (point is not None) == segments_cross_properly(*pts)
        done += 1


def test_crossing_agrees_with_hulls_on_generic_data():
    rng = random.Random(61)
    done = 0
    while done < 40:
        ts = rng.sample(range(-8, 9), 4)
        sigma = [parabola(t) for t in ts[:2]]
        tau = [parabola(t) for t in ts[2:]]
        try:
            point = crossing(sigma, tau)
        except GenericityError:
            continue
        assert (point is not None) == hulls_intersect(sigma, tau)
        done += 1


def test_crossing_symmetry():
    pts = {t: parabola(t) for t in range(1, 6)}
    for sigma, tau in [((1, 3), (2, 4)), ((1, 2), (3, 4)), ((2, 5), (3, 4))]:
        a = [pts[t] for t in sigma]
        b = [pts[t] for t in tau]
        assert crossing(a, b) == crossing(b, a)
