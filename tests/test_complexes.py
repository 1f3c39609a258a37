"""Simplicial core: constructors, subdivision, remoteness."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecert import (
    NotAFaceError,
    barycentric_subdivision,
    complex_from_facets,
    disjoint_simplex_pairs,
    is_remote,
    skeleton_complex,
)
from nervecert.complexes import canonical_faces, subdivided_f_vector
from conftest import random_complexes
from oracles import (
    brute_force_chain_faces,
    grown_chain_faces,
    label_filter_subcomplex,
    quadratic_facets,
    remote_lemma_quadruples,
    scanned_pair_ids,
)


def test_complex_from_facets_counts():
    assert complex_from_facets([[1, 2, 3]]).f_vector() == (3, 3, 1)
    assert complex_from_facets([[1, 2], [2, 3]]).f_vector() == (3, 2)
    assert complex_from_facets([[1], [2]]).f_vector() == (2,)


def test_complex_from_facets_rejects_duplicates():
    with pytest.raises(ValueError):
        complex_from_facets([[1, 1, 2]])


def test_complex_from_facets_rejects_bad_vertices():
    with pytest.raises(ValueError):
        complex_from_facets([[-1, 2]])


def test_downward_closure_on_random_facets():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        facets = [
            rng.sample(range(8), rng.randint(1, 4)) for _ in range(n)
        ]
        K = complex_from_facets(facets)
        K.validate()


# Facets of one to four vertices over ids 0..9: lone vertices, edges hanging
# off triangles, and facets nested inside others (absorbed by the closure).
random_facet_lists = st.lists(
    st.sets(st.integers(0, 9), min_size=1, max_size=4), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_facet_lists)
def test_facets_match_the_quadratic_definition(facets):
    K = complex_from_facets([sorted(f) for f in facets])
    assert K.facets() == quadratic_facets(K)
    assert complex_from_facets(K.facets()) == K


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_facet_lists)
def test_has_face_is_membership_in_the_closure(facets):
    K = complex_from_facets([sorted(f) for f in facets])
    ids = sorted(K.vertices | {10})  # 10 is never a vertex
    for size in range(1, 5):
        for f in itertools.combinations(ids, size):
            assert K.has_face(f) == (f in K.faces)
            if size > 1:
                assert not K.has_face(f[::-1])
                assert not K.has_face((f[0],) + f)
    assert not K.has_face(())


def test_facets_keep_lone_vertices_and_mixed_dimensions():
    K = complex_from_facets([[0, 1, 2], [2, 3], [4], [1, 2]])
    assert K.facets() == [(4,), (2, 3), (0, 1, 2)]
    assert skeleton_complex(0, 0).facets() == [(0,)]


def test_skeleton_examples():
    assert skeleton_complex(4, 1).f_vector() == (5, 10)
    assert skeleton_complex(6, 2).f_vector() == (7, 21, 35)
    assert skeleton_complex(2, 2).f_vector() == (3, 3, 1)


def test_skeleton_binomial_f_vector():
    for n in range(6):
        for k in range(n + 1):
            fv = skeleton_complex(n, k).f_vector()
            assert fv == tuple(math.comb(n + 1, i + 1) for i in range(k + 1))


def test_skeleton_rejects_bad_arguments():
    with pytest.raises(ValueError):
        skeleton_complex(2, 3)
    with pytest.raises(ValueError):
        skeleton_complex(-1, 0)


def test_subdivision_triangle():
    sd = barycentric_subdivision(complex_from_facets([[1, 2, 3]]))
    assert sd.complex.f_vector() == (7, 12, 6)
    sd.validate()


def test_subdivision_edge_is_labeled_path():
    sd = barycentric_subdivision(complex_from_facets([[1, 2]]))
    assert sd.complex.f_vector() == (3, 2)
    assert sorted(sd.labels.values(), key=lambda f: (len(f), f)) == [(1,), (2,), (1, 2)]
    mid = sd.vertex_ids[(1, 2)]
    assert sorted(sd.complex.edge_set) == sorted(
        (tuple(sorted((sd.vertex_ids[(v,)], mid))) for v in (1, 2))
    )


def test_subdivision_single_vertex():
    sd = barycentric_subdivision(complex_from_facets([[5]]))
    assert sd.complex.f_vector() == (1,)
    assert sd.labels == {0: (5,)}


@pytest.mark.parametrize(
    "facets",
    [
        [[1, 2, 3]],
        [[1, 2], [2, 3], [3, 4]],
        [[0, 1, 2], [2, 3], [4]],
        [[0, 1], [1, 2], [0, 2]],
    ],
)
def test_subdivision_matches_brute_force_chains(facets):
    K = complex_from_facets(facets)
    sd = barycentric_subdivision(K)
    via_labels = {
        frozenset(sd.labels[v] for v in face) for face in sd.complex.faces
    }
    assert via_labels == brute_force_chain_faces(K.faces)


def _chain_faces_by_label(sd):
    return {frozenset(sd.labels[v] for v in face) for face in sd.complex.faces}


def test_subdivision_matches_brute_force_chains_on_random_complexes():
    for K in random_complexes(seed=23, count=12):
        sd = barycentric_subdivision(K)
        order = sorted(K.faces, key=lambda f: (len(f), f))
        assert sd.labels == dict(enumerate(order))
        assert sd.vertex_ids == {f: v for v, f in sd.labels.items()}
        assert sd.complex.vertices == frozenset(range(len(order)))
        assert _chain_faces_by_label(sd) == grown_chain_faces(K.faces)
        if len(K.faces) <= 15:  # the subset scan is exponential in the face count
            assert _chain_faces_by_label(sd) == brute_force_chain_faces(K.faces)


def test_double_subdivision_matches_the_chain_oracle():
    for K in random_complexes(seed=29, count=3):
        sd = barycentric_subdivision(K)
        sd2 = barycentric_subdivision(sd.complex)
        assert _chain_faces_by_label(sd2) == grown_chain_faces(sd.complex.faces)
    # the tetrahedron's double subdivision: (4!)^2 facets of 4 vertices each
    tetrahedron = complex_from_facets([[0, 1, 2, 3]])
    sd2 = barycentric_subdivision(barycentric_subdivision(tetrahedron).complex)
    assert sd2.complex.f_vector()[-1] == 24 * 24


def test_the_counted_f_vector_of_sd_is_the_closures():
    skeletons = [skeleton_complex(n, k) for n in range(4) for k in range(n + 1)]
    for K in random_complexes(seed=37, count=12) + skeletons:
        sd = barycentric_subdivision(K).complex
        counted = subdivided_f_vector(K.f_vector())
        assert counted == sd.f_vector()
        assert subdivided_f_vector(counted) == barycentric_subdivision(sd).complex.f_vector()


def faces_of(alpha) -> list[tuple]:
    return [f for k in range(1, len(alpha) + 1) for f in itertools.combinations(alpha, k)]


def test_the_label_filter_matches_the_chain_oracle():
    # the faces of sd K over alpha, read as label chains, are the chains of
    # faces of alpha: the label filter is the subdivision of alpha
    for K in random_complexes(seed=31, count=8):
        sd = barycentric_subdivision(K)
        sd2 = barycentric_subdivision(sd.complex)
        for sdK, base in ((sd, K), (sd2, sd.complex)):
            for alpha in base.faces:
                sub = label_filter_subcomplex(sdK, alpha)
                via_labels = {frozenset(sdK.labels[v] for v in f) for f in sub}
                assert len(via_labels) == len(sub)
                assert via_labels == grown_chain_faces(faces_of(alpha))


def test_random_complexes_reach_tetrahedra_and_lone_vertices():
    complexes = random_complexes(seed=23, count=12)
    assert any(len(f) == 4 for K in complexes[1:] for f in K.facets())
    assert all(any(len(f) == 1 for f in K.facets()) for K in complexes)
    assert len({K.dim for K in complexes}) >= 3


def test_subdivision_vertex_count_is_face_count():
    rng = random.Random(11)
    for _ in range(10):
        facets = [rng.sample(range(7), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        K = complex_from_facets(facets)
        sd = barycentric_subdivision(K)
        assert len(sd.complex.vertices) == sum(K.f_vector())
        # double subdivision: vertices of sd sd K are the faces of sd K
        sd2 = barycentric_subdivision(sd.complex)
        assert len(sd2.complex.vertices) == sum(sd.complex.f_vector())


def test_is_remote_examples():
    path = complex_from_facets([[1, 2], [2, 3]])
    assert is_remote(path, (1,), (3,)) is True
    assert is_remote(path, (1, 2), (3,)) is False
    assert is_remote(path, (2,), (2,)) is False


def test_is_remote_requires_faces():
    path = complex_from_facets([[1, 2], [2, 3]])
    with pytest.raises(NotAFaceError):
        is_remote(path, (1, 3), (2,))


def test_is_remote_symmetry():
    rng = random.Random(13)
    for _ in range(10):
        facets = [rng.sample(range(6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        K = complex_from_facets(facets)
        faces = canonical_faces(K.faces)
        for a in faces:
            for b in faces:
                assert is_remote(K, a, b) == is_remote(K, b, a)


def test_disjoint_pair_counts():
    assert len(disjoint_simplex_pairs(skeleton_complex(4, 1), 1)) == 15
    assert len(disjoint_simplex_pairs(skeleton_complex(6, 2), 2)) == 70
    assert disjoint_simplex_pairs(complex_from_facets([[1, 2, 3]]), 1) == []


def test_disjoint_pairs_are_found_once_per_complex_and_dimension(monkeypatch):
    from nervecert.complexes import SimplicialComplex

    calls = []
    real = SimplicialComplex.faces_of_dim
    monkeypatch.setattr(
        SimplicialComplex, "faces_of_dim", lambda K, k: calls.append(k) or real(K, k)
    )
    K = skeleton_complex(6, 2)
    first = disjoint_simplex_pairs(K, 2)
    first.clear()  # each call hands out its own list
    assert len(disjoint_simplex_pairs(K, 2)) == 70
    assert len(disjoint_simplex_pairs(K, 1)) == 105
    assert calls == [2, 1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_facet_lists, st.integers(0, 3))
def test_disjoint_pairs_match_the_definition(facets, d):
    K = complex_from_facets([sorted(f) for f in facets])
    dfaces = sorted(f for f in K.faces if len(f) == d + 1)
    assert disjoint_simplex_pairs(K, d) == [
        (g, h) for i, g in enumerate(dfaces) for h in dfaces[i + 1:] if not set(g) & set(h)
    ]


def test_pair_ids_match_the_quadratic_scan():
    # the holder bitsets against every pair tested, in every dimension, on
    # the seeded complexes and on wider ones over 12 vertices
    rng = random.Random(41)
    wide = [
        complex_from_facets([rng.sample(range(12), rng.randint(2, 5)) for _ in range(rng.randint(3, 8))])
        for _ in range(12)
    ]
    for K in random_complexes(seed=37, count=12) + wide + [skeleton_complex(8, 3)]:
        for d in range(K.dim + 1):
            index = K.pair_index(d)
            assert index.ids == scanned_pair_ids(K, d)
            assert index.pairs == tuple((index.faces[i], index.faces[j]) for i, j in index.ids)
            for f in K.faces:
                assert index.disjoint(f) == [
                    i for i, g in enumerate(index.faces) if not set(f) & set(g)
                ]


def test_label_filter_subcomplex_counts():
    tri = complex_from_facets([[1, 2, 3]])
    sd = barycentric_subdivision(tri)
    assert len(label_filter_subcomplex(sd, (1, 2))) == 5
    assert len(label_filter_subcomplex(sd, (1,))) == 1
    # the facet's subdivision is all of sd, one face per chain
    assert len(label_filter_subcomplex(sd, (1, 2, 3))) == sum(sd.complex.f_vector())


def test_label_filter_subcomplex_matches_chain_oracle():
    tri = complex_from_facets([[1, 2, 3]])
    sd = barycentric_subdivision(tri)
    sub = label_filter_subcomplex(sd, (1, 2))
    via_labels = {frozenset(sd.labels[v] for v in f) for f in sub}
    edge_faces = [(1,), (2,), (1, 2)]
    assert via_labels == brute_force_chain_faces(edge_faces)


def test_remoteness_lemma_small_skeleton():
    quads = remote_lemma_quadruples(skeleton_complex(4, 1), 1)
    assert all(remote for *_, remote in quads)
    assert len({quad[:2] for quad in quads}) == 15
    # 5 faces in each subdivided edge: 3 vertices + 2 edges, squared per pair
    assert len(quads) == 15 * 5 * 5


def test_remoteness_lemma_vacuous_for_triangle():
    assert remote_lemma_quadruples(complex_from_facets([[1, 2, 3]]), 1) == []
