"""Coarse-to-fine image disjointness: the lemma audit and the VKF primitive.

The audit skips every remote pair whose remote cover has disjoint coarse
hulls; these tests hold it to the plain piece-by-piece scan (the oracle),
pin a violation document, and check that ``piece_tests`` counts the hull
tests the audit really makes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import nervecert
from nervecert import witness
from nervecert.cli import main
from nervecert.convex import hulls_intersect
from nervecert.fileio import family_from_doc
from nervecert.nerve import nerve_helly
from nervecert.witness import (
    build_witness_map,
    corrupt_witness,
    first_meeting_pieces,
    verify_remote_disjointness,
)
from conftest import clustered_family, random_family
from oracles import fm_hulls_intersect, piecewise_remote_violation
from test_cli import PATH, PATH_FAMILY, write

OFFSETS = [Fraction(0), Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2)]


def corrupted_map(seed: int, clustered: bool, n_corrupt: int):
    """A verified witness map with up to n_corrupt witnesses moved near other witnesses.

    Returns None when the family has an empty body (it has no nerve vertex).
    """
    rng = random.Random(seed)
    if clustered:
        F = clustered_family(rng, m=rng.randint(1, 3), clusters=rng.randint(2, 3), per=2)
    else:
        F = random_family(rng, n_min=3, n_max=5, m_max=2, cuts=True)
    K = nerve_helly(F)
    if len(K.vertices) != len(F.bodies):
        return None
    g = build_witness_map(F, K)
    faces = sorted(K.faces)
    for _ in range(n_corrupt):
        face, near = rng.choice(faces), rng.choice(faces)
        point = [c + rng.choice(OFFSETS) for c in g.witness[near]]
        g = corrupt_witness(g, face, point)
    return g


def _as_tuple(violation):
    if violation is None:
        return None
    return violation.alpha, violation.beta, violation.piece_a, violation.piece_b


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    clustered=st.booleans(),
    n_corrupt=st.integers(0, 3),
)
def test_audit_reports_the_violation_of_the_piecewise_scan(seed, clustered, n_corrupt):
    g = corrupted_map(seed, clustered, n_corrupt)
    assume(g is not None)
    report = verify_remote_disjointness(g)
    event("violation" if report.violation else "clean")
    assert _as_tuple(report.violation) == piecewise_remote_violation(g)


def test_corrupted_maps_give_both_verdicts():
    # the property above must see hits: count both outcomes on fixed seeds
    verdicts = []
    for seed in range(24):
        g = corrupted_map(seed, clustered=seed % 2 == 0, n_corrupt=1 + seed % 3)
        if g is None:
            continue
        violation = _as_tuple(verify_remote_disjointness(g).violation)
        assert violation == piecewise_remote_violation(g)
        verdicts.append(violation is None)
    assert verdicts.count(True) >= 3 and verdicts.count(False) >= 3, verdicts


def _nested_loop(pieces_a, pieces_b, meets):
    for pa in pieces_a:
        for pb in pieces_b:
            if meets(pa, pb):
                return pa, pb
    return None


def _pieces(m: int):
    # segments at most in R^2: Fourier-Motzkin on two triangles takes seconds
    coord = st.integers(-3, 3).map(Fraction)
    piece = st.lists(st.tuples(*[coord] * m), min_size=1, max_size=2 if m == 2 else 3)
    return st.lists(piece.map(tuple), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 4]))
def test_first_meeting_pieces_equals_the_nested_loop(data, m):
    pieces_a = data.draw(_pieces(m))
    pieces_b = data.draw(_pieces(m))
    meets = fm_hulls_intersect if m == 2 else hulls_intersect
    assert first_meeting_pieces(pieces_a, pieces_b) == _nested_loop(pieces_a, pieces_b, meets)


def test_first_meeting_pieces_falls_through_a_coarse_hit():
    # the gap between a's two segments is inside a's coarse hull, not in a piece
    a = [((0, 0), (2, 0)), ((0, 3), (2, 3))]
    b = [((1, Fraction(1, 2)), (1, Fraction(5, 2)))]
    assert hulls_intersect([p for piece in a for p in piece], b[0])
    assert first_meeting_pieces(a, b) is None
    b.append(((3, 1), (4, 1)))
    assert first_meeting_pieces(a, b) is None
    b.append(((1, Fraction(5, 2)), (1, 4)))
    assert first_meeting_pieces(a, b) == (a[1], b[2])


# Captured from the piece-by-piece audit before the coarse-to-fine filter.
LEMMA_DOCUMENT = (
    '{\n  "alpha": [\n    0\n  ],\n  "beta": [\n    1\n  ],\n  "kind": "LEMMA_VIOLATION",\n'
    '  "nerve": {\n    "facets": [\n      [\n        0,\n        3\n      ],\n      [\n'
    '        1,\n        3\n      ],\n      [\n        1,\n        4\n      ],\n      [\n'
    '        2,\n        4\n      ]\n    ]\n  },\n  "piece_a": [\n    [\n      "37/2",\n'
    '      "1/2"\n    ]\n  ],\n  "piece_b": [\n    [\n      "37/2",\n      "1/2"\n'
    '    ]\n  ]\n}\n'
)


def test_lemma_violation_document_is_pinned(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main([
        "certificate", write(tmp_path / "fam.json", PATH_FAMILY),
        write(tmp_path / "path.json", PATH), "-d", "1",
        "--corrupt-witness", "0:37/2,1/2", "-o", str(out),
    ])
    assert code == 2
    assert "LEMMA_VIOLATION" in capsys.readouterr().out
    assert out.read_text() == LEMMA_DOCUMENT


def path_map():
    F = family_from_doc(PATH_FAMILY)
    return build_witness_map(F, nerve_helly(F))


# On the path nerve a cover grown next to the other side would always hit
# and make 8 hull tests instead of 5.
@pytest.mark.parametrize(
    "make_map, ok, tests",
    [
        (lambda: corrupted_map(5, True, 0), True, 6),
        (lambda: corrupted_map(5, True, 2), True, 19),
        (lambda: corrupted_map(0, True, 2), False, 18),
        (path_map, True, 5),
    ],
    ids=["clean", "coarse-hit-only", "violation", "path"],
)
def test_piece_tests_counts_every_hull_test_of_the_audit(make_map, ok, tests, monkeypatch):
    g = make_map()
    calls = []

    def counted(a, b):
        calls.append(1)
        return hulls_intersect(a, b)

    monkeypatch.setattr(witness, "hulls_intersect", counted)
    report = verify_remote_disjointness(g)
    assert report.ok == ok
    assert report.remote_pairs > 0
    assert report.piece_tests == len(calls) == tests


AUDIT_SCRIPT = """
from test_disjointness import corrupted_map
from nervecert.witness import verify_remote_disjointness
for seed in (0, 3, 5):
    report = verify_remote_disjointness(corrupted_map(seed, True, 2))
    print(report.remote_pairs, report.piece_tests, report.violation)
"""


def test_audit_does_not_depend_on_the_hash_seed():
    src_dir = os.path.dirname(os.path.dirname(nervecert.__file__))
    tests_dir = os.path.dirname(__file__)
    outputs = []
    for hash_seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", AUDIT_SCRIPT],
            capture_output=True, text=True, check=True, cwd=tests_dir,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": os.pathsep.join([src_dir, tests_dir])},
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    verdicts = [line.endswith("None") for line in outputs[0].splitlines()]
    assert verdicts == [False, False, True]
