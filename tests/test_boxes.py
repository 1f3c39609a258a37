"""Exact bounding boxes against Fourier-Motzkin projection and per-side LPs.

`HPolytope.bound` minimizes each side of each coordinate on its first read,
over one integer dictionary per body, so the bounds must not depend on the
order they are read in.  One
oracle projects the body onto each coordinate by elimination, in ambient
dimension at most 2, where elimination stays small; the other runs one
two-phase `solve_lp` per coordinate and side, in R^1 to R^4.
`boxes_disjoint` is only sound if two bodies it separates really are
disjoint, which the elimination oracle's emptiness test of the stacked pair
decides.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecert import EmptyPolytopeError, HPolytope, polytope_is_empty
from nervecert.convex import boxes_disjoint
from oracles import fm_coordinate_range, fm_polytope_is_empty, lp_bound
from test_inscribed_ball import random_hpolytope


def small_hpolytope(rng, ambient: int | None = None) -> HPolytope:
    """`random_hpolytope`, redrawn until it lives in R^1 or R^2 (or R^ambient)."""
    while True:
        P = random_hpolytope(rng)[1]
        if P.ambient <= 2 and ambient in (None, P.ambient):
            return P


def box_outcome(P: HPolytope):
    """Per coordinate (min, max) from `HPolytope.bound`, or None when P is empty."""
    try:
        return [(P.bound(j, False), P.bound(j, True)) for j in range(P.ambient)]
    except EmptyPolytopeError:
        return None


def fm_outcome(P: HPolytope):
    ranges = [fm_coordinate_range(P, j) for j in range(P.ambient)]
    return None if None in ranges else ranges


def kind(ranges) -> str:
    if ranges is None:
        return "empty"
    return "bounded" if all(None not in r for r in ranges) else "unbounded"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_bounds_equal_the_projection(seed):
    P = small_hpolytope(random.Random(seed))
    got = box_outcome(P)
    assert got == fm_outcome(P)
    assert polytope_is_empty(P) == (got is None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_disjoint_boxes_mean_disjoint_bodies(seed):
    rng = random.Random(seed)
    P = small_hpolytope(rng)
    Q = small_hpolytope(rng, P.ambient)
    if boxes_disjoint(P, Q):
        assert fm_polytope_is_empty(HPolytope.stack([P, Q]))


def test_the_box_properties_reach_every_outcome():
    # The same generator, seeded: bounded, unbounded and empty bodies must
    # all occur, and boxes of nonempty bodies must separate some pairs and
    # not others, among them a disjoint pair the boxes cannot tell apart.
    rng = random.Random(11)
    kinds = Counter()
    pairs = Counter()
    for _ in range(300):
        P = small_hpolytope(rng)
        got = box_outcome(P)
        assert got == fm_outcome(P)
        kinds[kind(got)] += 1
        Q = small_hpolytope(rng, P.ambient)
        if got is None or box_outcome(Q) is None:
            assert boxes_disjoint(P, Q)
            continue
        empty = fm_polytope_is_empty(HPolytope.stack([P, Q]))
        if boxes_disjoint(P, Q):
            assert empty
            pairs["separated"] += 1
        else:
            pairs["disjoint, boxes meet" if empty else "meet"] += 1
    assert kinds["bounded"] >= 30 and kinds["unbounded"] >= 30 and kinds["empty"] >= 30, kinds
    assert pairs["separated"] >= 10 and pairs["meet"] >= 10, pairs
    assert pairs["disjoint, boxes meet"] >= 1, pairs


def lp_outcome(P: HPolytope):
    """`box_outcome` from the per-side `solve_lp` oracle."""
    try:
        return [(lp_bound(P, j, False), lp_bound(P, j, True)) for j in range(P.ambient)]
    except EmptyPolytopeError:
        return None


def features(P: HPolytope, ranges) -> set[str]:
    """The outcome of P's box, plus the row kinds P mixes in."""
    if ranges is None:
        out = {"empty"}
    elif all(None not in r for r in ranges):
        out = {"bounded"}
    else:
        out = {"one-sided"} if any(r.count(None) == 1 for r in ranges) else {"free"}
    if any(bi.denominator > 1 for bi in P.b):
        out.add("fractional rhs")
    if any(not any(row) for row in P.A):
        out.add("zero row")
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_bounds_equal_per_side_lps(seed):
    P = random_hpolytope(random.Random(seed))[1]
    assert box_outcome(P) == lp_outcome(P)


def test_the_lp_oracle_property_reaches_every_outcome():
    # The same generator, seeded, in R^1 to R^4: bounded, one-sided and empty
    # bodies, fractional right-hand sides and zero rows must each occur.
    rng = random.Random(12)
    seen = Counter()
    for _ in range(300):
        P = random_hpolytope(rng)[1]
        got = box_outcome(P)
        assert got == lp_outcome(P)
        seen.update(features(P, got))
    for outcome in ("bounded", "one-sided", "empty", "fractional rhs", "zero row"):
        assert seen[outcome] >= 10, seen


def sides(P: HPolytope) -> list[tuple[int, bool]]:
    return [(j, upper) for j in range(P.ambient) for upper in (False, True)]


def read_in_random_order(rng, P: HPolytope) -> list[tuple[tuple[int, bool], object, object]]:
    """Each side of P read three times in a shuffled order: (side, bound, per-side LP).

    An empty body reads "empty" from both.
    """
    def outcome(read, j, upper):
        try:
            return read(P, j, upper)
        except EmptyPolytopeError:
            return "empty"

    want = {side: outcome(lp_bound, *side) for side in sides(P)}
    reads = sides(P) * 3
    rng.shuffle(reads)
    return [(side, outcome(HPolytope.bound, *side), want[side]) for side in reads]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_lazy_bounds_do_not_depend_on_the_read_order(seed):
    rng = random.Random(seed)
    P = random_hpolytope(rng)[1]
    for side, got, want in read_in_random_order(rng, P):
        assert got == want, side


def test_the_read_order_property_reaches_every_outcome():
    # The same generator, seeded: empty bodies, unbounded and bounded sides,
    # and a first read of some side after a later coordinate must all occur.
    rng = random.Random(13)
    seen = Counter()
    for _ in range(200):
        P = random_hpolytope(rng)[1]
        reads = read_in_random_order(rng, P)
        first = [side for k, (side, _, _) in enumerate(reads)
                 if side not in [earlier for earlier, _, _ in reads[:k]]]
        for side, got, want in reads:
            assert got == want, side
            seen["empty" if got == "empty" else "unbounded" if got is None else "bounded"] += 1
        if any(a[0] > b[0] for a, b in zip(first, first[1:])):
            seen["out of order"] += 1
    for outcome in ("empty", "unbounded", "bounded", "out of order"):
        assert seen[outcome] >= 20, seen


def test_one_box_tableau_per_body(monkeypatch):
    # One phase-1 tableau per body, and each (coordinate, side) minimized at
    # most once, on its first read.
    import nervecert.convex

    tableaux, minima = [], []
    real_face, real_minimum = nervecert.convex.least_face, nervecert.convex.face_minimum

    def counted_face(*args):
        tableaux.append(args)
        return real_face(*args)

    def counted_minimum(*args):
        minima.append(args)
        return real_minimum(*args)

    monkeypatch.setattr(nervecert.convex, "least_face", counted_face)
    monkeypatch.setattr(nervecert.convex, "face_minimum", counted_minimum)
    P = HPolytope.box([0, 0], [1, 1])
    assert [P.bound(j, side) for j in (1, 0) for side in (True, False)] == [1, 0, 1, 0]
    assert [P.bound(j, side) for j in (0, 1) for side in (False, True)] == [0, 1, 0, 1]
    assert (len(tableaux), len(minima)) == (1, 4)
    # x-ranges [0, 1] and [3, 4] separate at coordinate 0: Q's tableau is
    # built once however often the pair is tested, P's bounds are not
    # minimized again, and Q's are minimized only at coordinate 0
    Q = HPolytope.box([3, 0], [4, 1])
    assert boxes_disjoint(P, Q) and boxes_disjoint(Q, P) and boxes_disjoint(P, Q)
    assert (len(tableaux), len(minima)) == (2, 6)
    assert Q.bound(1, False) == 0 and len(minima) == 7
    # a fresh pair in R^3 that separates at coordinate 0 computes one bound
    # per body, and none of a higher coordinate
    R, S = HPolytope.box([0, 0, 0], [1, 1, 1]), HPolytope.box([2, 0, 0], [3, 1, 1])
    assert boxes_disjoint(R, S)
    assert (len(tableaux), len(minima)) == (4, 9)
    for body in (R, S):
        for j in (1, 2):
            body.bound(j, False)
    assert len(minima) == 13
    # overlapping boxes read every side of both bodies, each once
    T = HPolytope.box([1, 1], [2, 2])
    assert not boxes_disjoint(P, T) and not boxes_disjoint(T, P)
    assert (len(tableaux), len(minima)) == (5, 17)
    # an empty body is found empty once, minimizes nothing, and stays empty
    empty = HPolytope.box([0, 0], [-1, 1])
    for _ in range(3):
        assert boxes_disjoint(empty, P)
        with pytest.raises(EmptyPolytopeError):
            empty.bound(1, False)
    assert (len(tableaux), len(minima)) == (6, 17)


def test_only_a_bounded_side_separates():
    left = HPolytope.from_rows([[1, 0]], [0], ambient=2)  # x <= 0
    right = HPolytope.box([1, 5], [2, 6])
    assert left.bound(0, False) is None and left.bound(0, True) == 0
    assert boxes_disjoint(left, right) and boxes_disjoint(right, left)
    # x + y <= 0 and x + y >= 1: every coordinate is unbounded both ways
    below = HPolytope.from_rows([[1, 1]], [0], ambient=2)
    above = HPolytope.from_rows([[-1, -1]], [-1], ambient=2)
    assert [below.bound(j, side) for j in (0, 1) for side in (False, True)] == [None] * 4
    assert not boxes_disjoint(below, above)
    assert polytope_is_empty(HPolytope.stack([below, above]))


def test_an_empty_body_has_an_empty_box():
    empty = HPolytope.box([0, 0], [-1, 1])
    with pytest.raises(EmptyPolytopeError):
        empty.bound(0, True)
    zero_row = HPolytope.from_rows([[0, 0]], [Fraction(-1)], ambient=2)
    assert zero_row.reduced_rows is None
    for body in (empty, zero_row):
        assert boxes_disjoint(body, HPolytope.box([0, 0], [1, 1]))
