"""Nerve engines and nerve matching."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nervecert import (
    ConvexFamily,
    HPolytope,
    LabelMismatchError,
    NerveMatch,
    complex_from_facets,
    nerve_exhaustive,
    nerve_helly,
    nerve_matches,
    polytope_is_empty,
)
from nervecert.complexes import canonical_faces
from nervecert.nerve import meets, walk
from conftest import clustered_family, random_family
from oracles import brute_force_nerve


def test_family_looks_bodies_up_by_label():
    bodies = [(label, HPolytope.box([label], [label + 1])) for label in (5, 2, 9)]
    F = ConvexFamily.of(1, bodies)
    assert F.labels() == (2, 5, 9)
    assert F.labels() is F.labels()  # sorted once
    assert [F.body(label) for label, _ in bodies] == [body for _, body in bodies]
    assert F.bodies == tuple(bodies)  # the document order is kept
    with pytest.raises(KeyError, match="no body labeled 3"):
        F.body(3)


def three_intervals() -> ConvexFamily:
    return ConvexFamily.of(
        1,
        [
            (1, HPolytope.box([0], [2])),
            (2, HPolytope.box([1], [3])),
            (3, HPolytope.box([2], [4])),
        ],
    )


def triangle_sides() -> ConvexFamily:
    return ConvexFamily.of(
        2,
        [
            (1, HPolytope.from_rows([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0])),
            (2, HPolytope.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 0])),
            (3, HPolytope.from_rows([[1, 1], [-1, -1], [-1, 0], [0, -1]], [1, -1, 0, 0])),
        ],
    )


def test_nerve_three_intervals_is_triangle():
    N = nerve_helly(three_intervals())
    assert N.f_vector() == (3, 3, 1)
    assert N.has_face((1, 2, 3))


def test_nerve_triangle_sides_is_hollow():
    N = nerve_helly(triangle_sides())
    assert N.f_vector() == (3, 3)
    assert not N.has_face((1, 2, 3))
    assert nerve_exhaustive(triangle_sides()).faces == N.faces


def test_nerve_disjoint_boxes():
    F = ConvexFamily.of(
        2, [(1, HPolytope.box([0, 0], [1, 1])), (2, HPolytope.box([5, 5], [6, 6]))]
    )
    assert nerve_helly(F).f_vector() == (2,)


def test_helly_line_example():
    # five intervals all containing 0: pairwise checks alone give the 4-simplex
    F = ConvexFamily.of(
        1,
        [(i, HPolytope.box([-i - 1], [i])) for i in range(5)],
    )
    N = nerve_helly(F)
    assert N.f_vector() == (5, 10, 10, 5, 1)
    assert nerve_exhaustive(F).faces == N.faces


def test_helly_corner_boxes():
    # four boxes sharing exactly the origin; the 3-face closes combinatorially
    F = ConvexFamily.of(
        2,
        [
            (0, HPolytope.box([-1, -1], [0, 0])),
            (1, HPolytope.box([0, 0], [1, 1])),
            (2, HPolytope.box([-1, 0], [0, 1])),
            (3, HPolytope.box([0, -1], [1, 0])),
        ],
    )
    N = nerve_helly(F)
    assert N.has_face((0, 1, 2, 3))
    assert N.faces == nerve_exhaustive(F).faces


def test_nerve_with_empty_body_drops_vertex():
    F = ConvexFamily.of(
        1, [(0, HPolytope.box([0], [1])), (1, HPolytope.box([3], [2]))]
    )
    N = nerve_helly(F)
    assert N.f_vector() == (1,)
    assert N.vertices == frozenset({0})


def test_engines_agree_on_random_families():
    rng = random.Random(20260808)
    for _ in range(25):
        F = random_family(rng, n_max=7, cuts=True)
        helly = nerve_helly(F)
        exhaustive = nerve_exhaustive(F)
        assert helly.faces == exhaustive.faces
        helly.validate()


def test_helly_matches_the_brute_force_nerve():
    # the engines share `walk` and `next_candidates`; this oracle shares neither
    rng = random.Random(20261019)
    closed = 0  # faces the Helly rule closed without an LP
    for i in range(30):
        if i % 2:
            F = clustered_family(rng, rng.randint(1, 3), 2, rng.randint(2, 4))
        else:
            F = random_family(rng, n_max=8, m_max=3, cuts=True)
        faces = nerve_helly(F).faces
        assert faces == brute_force_nerve(F)
        closed += sum(len(face) > F.ambient + 1 for face in faces)
    assert closed


def test_the_walk_returns_the_kept_faces_in_size_lex_order():
    rng = random.Random(20261020)
    for _ in range(15):
        F = random_family(rng, n_max=7, m_max=3, cuts=True)
        assert walk(F, lambda face: meets(F, face)) == canonical_faces(brute_force_nerve(F))


def test_shrinking_a_body_never_adds_faces():
    rng = random.Random(101)
    for _ in range(10):
        F = random_family(rng, n_min=3, n_max=5)
        before = nerve_helly(F).faces
        label, body = F.bodies[rng.randrange(len(F.bodies))]
        m = F.ambient
        row = [Fraction(0)] * m
        row[rng.randrange(m)] = Fraction(rng.choice([-1, 1]))
        cut = HPolytope.from_rows([row], [Fraction(rng.randint(-3, 3))], ambient=m)
        shrunk = [
            (lab, HPolytope.stack([b, cut]) if lab == label else b)
            for lab, b in F.bodies
        ]
        after = nerve_helly(ConvexFamily.of(m, shrunk)).faces
        assert after <= before


def test_nerve_matches_examples():
    F = three_intervals()
    assert nerve_matches(F, complex_from_facets([[1, 2, 3]])).is_equal
    hollow = nerve_matches(F, complex_from_facets([[1, 2], [2, 3], [1, 3]]))
    assert hollow.verdict == NerveMatch.EXTRA
    assert hollow.face == (1, 2, 3)
    two = ConvexFamily.of(
        2, [(1, HPolytope.box([0, 0], [1, 1])), (2, HPolytope.box([5, 5], [6, 6]))]
    )
    missing = nerve_matches(two, complex_from_facets([[1, 2]]))
    assert missing.verdict == NerveMatch.MISSING
    assert missing.face == (1, 2)


def test_nerve_matches_label_guard():
    with pytest.raises(LabelMismatchError):
        nerve_matches(three_intervals(), complex_from_facets([[1, 2]]))


def test_nerve_matches_witness_is_minimal_and_deterministic():
    rng = random.Random(105)
    for _ in range(10):
        F = random_family(rng, n_min=3, n_max=5)
        N = nerve_helly(F)
        # tamper: drop one maximal face from the claimed complex
        facets = N.facets()
        victim = facets[rng.randrange(len(facets))]
        if len(victim) == 1:
            continue
        remaining = [f for f in N.faces if f != victim]
        claimed = complex_from_facets(remaining)
        match = nerve_matches(F, claimed)
        assert match.verdict == NerveMatch.EXTRA
        assert len(match.face) <= len(victim)
        again = nerve_matches(F, claimed)
        assert match == again


def test_subfamily_polytope_feasibility_is_face_membership():
    F = triangle_sides()
    N = nerve_helly(F)
    for face in [(1,), (1, 2), (1, 3), (2, 3)]:
        assert not polytope_is_empty(F.subfamily_polytope(face))
        assert N.has_face(face)
    assert polytope_is_empty(F.subfamily_polytope((1, 2, 3)))
