"""The face-by-face nerve check of `witness_points` against the enumerated nerve.

`witness_points` walks the claimed complex K and stops at its first
mismatch; `nerve_matches(F, K, nerve_exhaustive)` builds the family's whole
nerve, one LP per candidate, and compares.  They must agree: witnesses come
back exactly when the nerve is K, and otherwise both name the same verdict
and face.  K is the nerve itself, or the nerve with one minimal non-face
added or one maximal face removed, which makes non-flag complexes and, by
Helly, extra faces larger than m + 1 that need no LP.  The points of a
clean walk, finished only after it, must be the staged oracle's canonical
points, and a walk that stops at a mismatch must run no coordinate stage.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from nervecert import (
    ConvexFamily,
    HPolytope,
    LabelMismatchError,
    NerveMatch,
    NerveMismatchError,
    SimplicialComplex,
    UnboundedPolytopeError,
    complex_from_facets,
    nerve_exhaustive,
    nerve_matches,
    verify_witness_membership,
    witness_points,
)
from nervecert.complexes import barycentric_subdivision
from nervecert.fileio import family_from_doc
from conftest import clustered_family, random_family
from oracles import staged_inscribed_ball

DATA = Path(__file__).parent / "data"


def a_family(rng: random.Random) -> ConvexFamily:
    if rng.random() < 0.5:
        return random_family(rng, n_min=2, n_max=6, m_max=3, cuts=True)
    return clustered_family(
        rng, m=rng.randint(1, 3), clusters=rng.randint(1, 3), per=rng.randint(1, 3)
    )


def minimal_non_faces(N: SimplicialComplex) -> list:
    """Vertex sets outside N whose facets all lie in N, by brute force."""
    vertices = sorted(N.vertices)
    out = []
    for size in range(2, len(vertices) + 1):
        for cand in combinations(vertices, size):
            if cand not in N.faces and all(
                sub in N.faces for sub in combinations(cand, size - 1)
            ):
                out.append(cand)
    return out


def claimed_complex(rng: random.Random, N: SimplicialComplex) -> SimplicialComplex:
    """N, or N with one minimal non-face added or one maximal face removed."""
    faces = set(N.faces)
    how = rng.choice(("nerve", "add", "remove"))
    if how == "add" and minimal_non_faces(N):
        faces.add(rng.choice(minimal_non_faces(N)))
    elif how == "remove":
        facets = [f for f in N.facets() if len(f) > 1]  # keep every vertex
        if facets:
            faces.discard(rng.choice(facets))
    return SimplicialComplex(N.vertices, frozenset(faces))


def walk(F, K):
    """What `witness_points` says, in the terms of `nerve_matches`."""
    try:
        points = witness_points(F, K)
    except NerveMismatchError as exc:
        return exc.match
    except LabelMismatchError:
        return "labels"
    assert set(points) == set(K.faces)
    assert verify_witness_membership(F, points).ok
    for face, point in points.items():
        assert point == staged_inscribed_ball(F.subfamily_polytope(face))[1], face
    return NerveMatch(NerveMatch.EQUAL, None)


def enumerated(F, K):
    try:
        return nerve_matches(F, K, engine=nerve_exhaustive)
    except LabelMismatchError:
        return "labels"


def outcome(seed: int):
    rng = random.Random(seed)
    F = a_family(rng)
    K = claimed_complex(rng, nerve_exhaustive(F))
    got = walk(F, K)
    assert got == enumerated(F, K)
    return F, K, got


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_the_walk_names_the_mismatch_of_the_enumerated_nerve(seed):
    _, _, got = outcome(seed)
    event(got if isinstance(got, str) else got.verdict)


def test_the_walk_reaches_every_verdict():
    # the property above must see each verdict often, including extra faces
    # larger than m + 1 and non-flag claimed complexes
    seen = Counter()
    for seed in range(200):
        F, K, got = outcome(seed)
        seen[got.verdict] += 1
        if got.verdict == NerveMatch.EXTRA and len(got.face) > F.ambient + 1:
            seen["extra beyond m + 1"] += 1
        if got.verdict != NerveMatch.EQUAL and len(got.face) >= 3:
            seen["mismatch of size 3 or more"] += 1
    assert seen[NerveMatch.EQUAL] >= 10, seen
    assert seen[NerveMatch.MISSING] >= 10, seen
    assert seen[NerveMatch.EXTRA] >= 10, seen
    assert seen["extra beyond m + 1"] >= 3, seen
    assert seen["mismatch of size 3 or more"] >= 5, seen


def test_the_walk_needs_no_body_cap():
    # 25 nested intervals: the nerve is the full simplex, 2^25 - 1 faces, too
    # many to enumerate; the walk stops at the first pair that the path lacks
    F = ConvexFamily.of(1, [(i, HPolytope.box([-i - 1], [i + 1])) for i in range(25)])
    path = complex_from_facets([[i, i + 1] for i in range(24)])
    with pytest.raises(NerveMismatchError) as refused:
        witness_points(F, path)
    assert refused.value.match == NerveMatch(NerveMatch.EXTRA, (0, 2))


# x <= 0 is unbounded, [-2, -1] meets it, [5, 6] meets neither.
HALFLINE = ConvexFamily.of(
    1,
    [
        (0, HPolytope.from_rows([[1]], [0])),
        (1, HPolytope.box([-2], [-1])),
        (2, HPolytope.box([5], [6])),
    ],
)
# the strip 0 <= x <= 1 has a ball, and then y runs off below
STRIP = ConvexFamily.of(
    2,
    [
        (0, HPolytope.box([0, 0], [1, 1])),
        (1, HPolytope.from_rows([[1, 0], [-1, 0]], [1, 0], ambient=2)),
    ],
)


@pytest.mark.parametrize(
    "F, facets, message",
    [
        (HALFLINE, [[0, 1], [2]], "inscribed radius is unbounded"),
        (STRIP, [[0, 1]], "coordinate 1 is unbounded below"),
    ],
    ids=["radius", "coordinate"],
)
def test_an_unbounded_body_without_a_mismatch_raises_unbounded(F, facets, message):
    with pytest.raises(UnboundedPolytopeError, match=f"^{message}$"):
        witness_points(F, complex_from_facets(facets))


@pytest.mark.parametrize(
    "F, facets, verdict, face",
    [
        (HALFLINE, [[0, 1], [1, 2]], NerveMatch.MISSING, (1, 2)),
        (HALFLINE, [[0], [1], [2]], NerveMatch.EXTRA, (0, 1)),
        (STRIP, [[0], [1]], NerveMatch.EXTRA, (0, 1)),
    ],
    ids=["missing", "extra", "extra-strip"],
)
def test_a_mismatch_wins_over_an_unbounded_body(F, facets, verdict, face):
    # the walk meets the unbounded body before the mismatch, which still wins
    K = complex_from_facets(facets)
    with pytest.raises(NerveMismatchError) as refused:
        witness_points(F, K)
    assert refused.value.match == NerveMatch(verdict, face)
    assert refused.value.match == nerve_matches(F, K)


def test_an_empty_body_is_a_missing_vertex():
    F = ConvexFamily.of(
        1, [(0, HPolytope.box([0], [1])), (1, HPolytope.box([Fraction(3)], [2]))]
    )
    with pytest.raises(NerveMismatchError) as refused:
        witness_points(F, complex_from_facets([[0], [1]]))
    assert refused.value.match == NerveMatch(NerveMatch.MISSING, (1,))


def sd_of(name: str):
    """The family of a checked-in document and sd of its source complex."""
    doc = json.loads((DATA / name).read_text())
    return family_from_doc(doc["family"]), barycentric_subdivision(
        complex_from_facets(doc["facets"])
    ).complex


def stages_per_ball(monkeypatch) -> list[int]:
    """Counts, per inscribed-ball dictionary, the lexicographic stages it runs."""
    import nervecert.convex

    runs: list[int] = []
    real = nervecert.convex.lex_stages

    def counted(D, costs):
        runs.append(0)
        k = len(runs) - 1
        for out in real(D, costs):
            runs[k] += 1
            yield out

    monkeypatch.setattr(nervecert.convex, "lex_stages", counted)
    return runs


def test_a_mismatch_runs_no_coordinate_stage(monkeypatch):
    # sd of two triangles in R^4, bodies shrunk so far that the three of a
    # small triangle miss each other: the first mismatch is a size-3 face
    F, K = sd_of("missing_face_d2_seed11.json")
    runs = stages_per_ball(monkeypatch)
    with pytest.raises(NerveMismatchError) as refused:
        witness_points(F, K)
    assert refused.value.match == NerveMatch(NerveMatch.MISSING, (0, 6, 12))
    walked = [face for face in K.faces if (len(face), face) <= (3, (0, 6, 12))]
    assert len(runs) == len(walked) and set(runs) == {1}


def test_a_clean_walk_finishes_each_face_once(monkeypatch):
    F, K = sd_of("pipeline_d2_seed11.json")
    runs = stages_per_ball(monkeypatch)
    points = witness_points(F, K)
    assert len(points) == len(runs) == len(K.faces) == 50
    assert runs == [F.ambient + 1] * 50


@pytest.mark.parametrize(
    "name, pivots",
    [("pipeline_d2_seed11.json", 421), ("missing_face_d2_seed11.json", 307)],
)
def test_the_walk_pivots_on_rows_of_the_nonbasic_columns(monkeypatch, name, pivots):
    # A counter gate: every pivot of the walk, the starting pivots included,
    # on dictionary rows that store only x, r and the right-hand side.
    import nervecert.convex
    import nervecert.linprog

    F, K = sd_of(name)
    calls, widths = [], []
    real = nervecert.linprog.pivot

    def counted(D, r, j):
        calls.append((r, j))
        widths.append(max(map(len, D.rows)))
        return real(D, r, j)

    monkeypatch.setattr(nervecert.linprog, "pivot", counted)
    monkeypatch.setattr(nervecert.convex, "pivot", counted)
    try:
        witness_points(F, K)
        mismatched = False
    except NerveMismatchError:
        mismatched = True
    assert mismatched == name.startswith("missing_face")
    assert len(calls) == pivots
    assert max(widths) <= F.ambient + 2
