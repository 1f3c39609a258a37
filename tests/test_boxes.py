"""Exact bounding boxes against Fourier-Motzkin projection.

`HPolytope.bound` solves one LP per coordinate and side; the oracle projects
the body onto that coordinate by elimination instead.  `boxes_disjoint` is
only sound if two bodies it separates really are disjoint, which the
oracle's emptiness test of the stacked pair decides.  Everything runs in
ambient dimension at most 2, where elimination stays small.
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
from oracles import fm_coordinate_range, fm_polytope_is_empty
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


def test_bounds_are_memoized_on_the_body(monkeypatch):
    import nervecert.convex

    calls = []
    real = nervecert.convex.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(nervecert.convex, "solve_lp", counted)
    P = HPolytope.box([0, 0], [1, 1])
    assert P.bound(1, True) == 1 and P.bound(1, True) == 1
    assert len(calls) == 1
    # x-ranges [0, 1] and [3, 4] separate at the first coordinate: P's max
    # and Q's min, two LPs, and no bound of the second coordinate
    Q = HPolytope.box([3, 0], [4, 1])
    assert boxes_disjoint(P, Q)
    assert len(calls) == 3
    assert not boxes_disjoint(P, HPolytope.box([1, 1], [2, 2]))


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
