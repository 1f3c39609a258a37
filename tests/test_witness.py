"""Witness maps: construction, images, membership, disjointness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nervecert import (
    ConvexFamily,
    HPolytope,
    NerveMismatchError,
    NotAFaceError,
    SourceLabelingError,
    barycentric_subdivision,
    complex_from_facets,
    disjoint_simplex_pairs,
    hulls_intersect,
    image_of_face,
    image_of_source_simplex,
    nerve_helly,
    verify_remote_disjointness,
    verify_witness_membership,
    witness_points,
)
from conftest import clustered_family, move_witness, random_family, witness_map


def two_intervals():
    F = ConvexFamily.of(
        1, [(1, HPolytope.box([0], [2])), (2, HPolytope.box([1], [3]))]
    )
    return F, complex_from_facets([[1, 2]])


def chain_of_intervals():
    F = ConvexFamily.of(
        1,
        [
            (1, HPolytope.box([0], [1])),
            (2, HPolytope.box([1], [2])),
            (3, HPolytope.box([2], [3])),
            (4, HPolytope.box([3], [4])),
        ],
    )
    return F, complex_from_facets([[1, 2], [2, 3], [3, 4]])


def test_witness_points_two_intervals():
    F, K = two_intervals()
    pts = witness_points(F, K)
    assert pts[(1,)] == (Fraction(1),)
    assert pts[(2,)] == (Fraction(2),)
    assert pts[(1, 2)] == (Fraction(3, 2),)


def test_witness_points_single_box():
    F = ConvexFamily.of(2, [(1, HPolytope.box([0, 0], [2, 2]))])
    pts = witness_points(F, complex_from_facets([[1]]))
    assert pts[(1,)] == (Fraction(1), Fraction(1))


def test_witness_points_triangle_sides_meet_at_corners():
    F = ConvexFamily.of(
        2,
        [
            (1, HPolytope.from_rows([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0])),
            (2, HPolytope.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 0])),
            (3, HPolytope.from_rows([[1, 1], [-1, -1], [-1, 0], [0, -1]], [1, -1, 0, 0])),
        ],
    )
    K = complex_from_facets([[1, 2], [1, 3], [2, 3]])
    pts = witness_points(F, K)
    assert pts[(1, 2)] == (Fraction(0), Fraction(0))
    assert pts[(1, 3)] == (Fraction(1), Fraction(0))
    assert pts[(2, 3)] == (Fraction(0), Fraction(1))
    assert verify_witness_membership(F, pts).ok


def test_witness_points_refuse_wrong_nerve():
    F, _ = two_intervals()
    with pytest.raises(NerveMismatchError):
        witness_points(F, complex_from_facets([[1], [2]]))


def test_witness_refusal_carries_the_mismatch():
    F, _ = two_intervals()
    with pytest.raises(NerveMismatchError) as refused:
        witness_points(F, complex_from_facets([[1], [2]]))
    assert (refused.value.match.verdict, refused.value.match.face) == ("extra_face", (1, 2))


def test_image_of_face_shapes():
    F, K = two_intervals()
    g = witness_map(F, K)
    assert image_of_face(g, (1, 2)) == (
        ((Fraction(3, 2),), (Fraction(2),)),
        ((Fraction(3, 2),), (Fraction(1),)),
    )
    assert image_of_face(g, (1,)) == (((Fraction(1),),),)
    with pytest.raises(NotAFaceError):
        image_of_face(g, (1, 3))


def test_image_of_triangle_face_has_six_pieces():
    F = ConvexFamily.of(
        1,
        [
            (1, HPolytope.box([0], [2])),
            (2, HPolytope.box([1], [3])),
            (3, HPolytope.box([1], [2])),
        ],
    )
    K = complex_from_facets([[1, 2, 3]])
    g = witness_map(F, K)
    pieces = image_of_face(g, (1, 2, 3))
    assert len(pieces) == 6
    assert all(len(piece) == 3 for piece in pieces)


def test_honest_maps_pass_all_verifications():
    F, K = chain_of_intervals()
    g = witness_map(F, K)
    disjointness = verify_remote_disjointness(g)
    assert disjointness.ok
    assert disjointness.remote_pairs > 0
    assert verify_witness_membership(F, g.witness).ok


def test_corrupted_witness_is_caught_by_both_audits():
    F, K = chain_of_intervals()
    g = witness_map(F, K)
    # p({1}) moved onto p({3}), far outside body 1
    bad = move_witness(g, (1,), (Fraction(5, 2),))
    membership = verify_witness_membership(F, bad.witness)
    assert not membership.ok
    assert membership.violation.face == (1,)
    assert membership.violation.label == 1
    disjointness = verify_remote_disjointness(bad)
    assert not disjointness.ok
    assert (disjointness.violation.alpha, disjointness.violation.beta) == ((1,), (3,))
    assert hulls_intersect(disjointness.violation.piece_a, disjointness.violation.piece_b)


def test_witness_map_determinism():
    rng = random.Random(211)
    F = clustered_family(rng, m=2, clusters=2, per=2)
    K = nerve_helly(F)
    first = witness_map(F, K)
    second = witness_map(F, K)
    assert first.witness == second.witness  # bit-for-bit identical rationals


def test_image_of_source_simplex_edge():
    # source: a single edge; the nerve is its subdivision, a 3-vertex path
    L = complex_from_facets([[1, 2]])
    sdL = barycentric_subdivision(L)
    F = ConvexFamily.of(
        2,
        [
            (0, HPolytope.box([0, 0], [10, 1])),
            (1, HPolytope.box([18, 0], [30, 1])),
            (2, HPolytope.box([8, 0], [20, 1])),
        ],
    )
    g = witness_map(F, sdL.complex)
    pieces = image_of_source_simplex(g, sdL, (1, 2))
    assert len(pieces) == 4  # maximal chains of the twice-subdivided edge
    assert all(len(piece) == 2 for piece in pieces)
    assert image_of_source_simplex(g, sdL, (1,)) == (((g.witness[(0,)]),) ,)
    with pytest.raises(NotAFaceError):
        image_of_source_simplex(g, sdL, (1, 3))
    with pytest.raises(SourceLabelingError):
        other = barycentric_subdivision(complex_from_facets([[1, 2], [2, 3]]))
        image_of_source_simplex(g, other, (1, 2))


def test_source_images_of_disjoint_edges_do_not_meet():
    # source: two disjoint edges; honest representation of its subdivision
    L = complex_from_facets([[1, 2], [3, 4]])
    sdL = barycentric_subdivision(L)
    # canonical ids: {1}->0, {2}->1, {3}->2, {4}->3, {1,2}->4, {3,4}->5
    F = ConvexFamily.of(
        2,
        [
            (0, HPolytope.box([0, 0], [10, 1])),
            (1, HPolytope.box([18, 0], [30, 1])),
            (2, HPolytope.box([100, 0], [110, 1])),
            (3, HPolytope.box([118, 0], [130, 1])),
            (4, HPolytope.box([8, 0], [20, 1])),
            (5, HPolytope.box([108, 0], [120, 1])),
        ],
    )
    g = witness_map(F, sdL.complex)
    assert verify_remote_disjointness(g).ok
    pairs = disjoint_simplex_pairs(L, 1)
    assert pairs == [((1, 2), (3, 4))]
    img_a = image_of_source_simplex(g, sdL, (1, 2))
    img_b = image_of_source_simplex(g, sdL, (3, 4))
    assert not any(
        hulls_intersect(pa, pb) for pa in img_a for pb in img_b
    )


def test_source_piece_tests_are_covered_by_remote_pair_tests():
    # every piece pair the pipeline tests for disjoint source simplices is a
    # piece pair of a remote face pair, so the two audits can never disagree
    from nervecert import is_remote, subdivided_subcomplex
    from nervecert.witness import _descending_chains

    L = complex_from_facets([[1, 2], [3, 4]])
    sdL = barycentric_subdivision(L)
    F = ConvexFamily.of(
        2,
        [
            (0, HPolytope.box([0, 0], [10, 1])),
            (1, HPolytope.box([18, 0], [30, 1])),
            (2, HPolytope.box([100, 0], [110, 1])),
            (3, HPolytope.box([118, 0], [130, 1])),
            (4, HPolytope.box([8, 0], [20, 1])),
            (5, HPolytope.box([108, 0], [120, 1])),
        ],
    )
    g = witness_map(F, sdL.complex)
    K = sdL.complex

    def source_chains(gamma):
        sub = subdivided_subcomplex(sdL, gamma)
        tops = [f for f in sub if not any(set(f) < set(h) for h in sub)]
        return [c for top in tops for c in _descending_chains(top)]

    (gamma, delta), = disjoint_simplex_pairs(L, 1)
    for chain_a in source_chains(gamma):
        for chain_b in source_chains(delta):
            top_a, top_b = chain_a[0], chain_b[0]
            assert is_remote(K, top_a, top_b)
            piece_a = tuple(g.witness[f] for f in chain_a)
            piece_b = tuple(g.witness[f] for f in chain_b)
            assert piece_a in image_of_face(g, top_a)
            assert piece_b in image_of_face(g, top_b)


def test_random_families_satisfy_the_witness_audits():
    rng = random.Random(977)
    for i in range(8):
        if i % 2 == 0:
            F = random_family(rng, n_min=3, n_max=5, m_max=2, cuts=True)
        else:
            F = clustered_family(rng, m=rng.randint(1, 3), clusters=2, per=rng.randint(1, 2))
        K = nerve_helly(F)
        if len(K.vertices) != len(F.bodies):
            continue  # an empty body cannot be represented in the nerve
        g = witness_map(F, K)
        assert verify_witness_membership(F, g.witness).ok
        assert verify_remote_disjointness(g).ok
