"""The hull-test audit of the remote-face lemma.

These tests hold the audit to the piecewise scan of `tests/oracles.py`
under Fourier-Motzkin, on maps whose ambient is at most 2, pin a violation
document and its recheck, and check that ``piece_tests`` counts the hull
tests the audit really makes.  The audit is in turn the oracle for the membership
proof of the lemma: every point inside its bodies puts each image inside
the bodies of its face, so a map that membership accepts passes the audit.
"""

from __future__ import annotations

import json
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
from nervecert.certificates import recheck_certificate
from nervecert.cli import main
from nervecert.convex import hulls_intersect
from nervecert.fileio import family_from_doc
from nervecert.nerve import nerve_helly
from nervecert.witness import verify_remote_disjointness, verify_witness_membership
from conftest import clustered_family, move_witness, random_family, witness_map
from oracles import fm_hulls_intersect, piecewise_remote_violation
from test_cli import PATH, PATH_FAMILY, write

OFFSETS = [Fraction(0), Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2)]


def corrupted_family_map(seed: int, clustered: bool, n_corrupt: int):
    """(F, clean map, corrupted map): up to n_corrupt witnesses moved near others.

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
    clean = g = witness_map(F, K)
    faces = sorted(K.faces)
    for _ in range(n_corrupt):
        face, near = rng.choice(faces), rng.choice(faces)
        point = [c + rng.choice(OFFSETS) for c in g.witness[near]]
        g = move_witness(g, face, point)
    return F, clean, g


def corrupted_map(seed: int, clustered: bool, n_corrupt: int):
    """The corrupted map of `corrupted_family_map`, or None."""
    made = corrupted_family_map(seed, clustered, n_corrupt)
    return None if made is None else made[2]


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
    # Fourier-Motzkin judges, so the audit is not held to a copy of itself
    g = corrupted_map(seed, clustered, n_corrupt)
    assume(g is not None and g.ambient <= 2)
    report = verify_remote_disjointness(g)
    event("violation" if report.violation else "clean")
    assert _as_tuple(report.violation) == piecewise_remote_violation(g, fm_hulls_intersect)


def test_corrupted_maps_give_both_verdicts():
    # the property above must see hits: count both outcomes on fixed seeds,
    # judged by Fourier-Motzkin wherever the ambient is at most 2
    verdicts = []
    for seed in range(24):
        g = corrupted_map(seed, clustered=seed % 2 == 0, n_corrupt=1 + seed % 3)
        if g is None or g.ambient > 2:
            continue
        violation = _as_tuple(verify_remote_disjointness(g).violation)
        assert violation == piecewise_remote_violation(g, fm_hulls_intersect)
        verdicts.append(violation is None)
    assert verdicts.count(True) >= 3 and verdicts.count(False) >= 3, verdicts


def _membership_outcome(made) -> str:
    """Classify a corrupted map; a map that membership accepts must pass the audit."""
    F, clean, g = made
    if not verify_witness_membership(F, g.witness).ok:
        return "membership fails"
    assert verify_remote_disjointness(g).ok
    return "clean" if g.witness == clean.witness else "corrupted but contained"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    clustered=st.booleans(),
    n_corrupt=st.integers(0, 3),
)
def test_containment_implies_the_audit_passes(seed, clustered, n_corrupt):
    made = corrupted_family_map(seed, clustered, n_corrupt)
    assume(made is not None)
    event(_membership_outcome(made))


def test_corrupted_maps_are_both_contained_and_not():
    # the property above must see corrupted maps on both sides of membership
    outcomes = []
    for seed in range(24):
        made = corrupted_family_map(seed, clustered=seed % 2 == 0, n_corrupt=1 + seed % 3)
        if made is not None:
            outcomes.append(_membership_outcome(made))
    assert outcomes.count("corrupted but contained") >= 2, outcomes
    assert outcomes.count("membership fails") >= 2, outcomes


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


# A piece of g(|sd alpha|) has one point per face of a maximal chain of alpha,
# and each point has 2 dim(nerve) coordinates.
@pytest.mark.parametrize(
    "edit, message",
    [
        ({"piece_a": [["5"]], "piece_b": [["5"]]}, "'piece_a' point has 1 entries, expected 2"),
        (
            {"piece_a": [["5", "1", "0"]], "piece_b": [["5", "1", "0"]]},
            "'piece_a' point has 3 entries, expected 2",
        ),
        ({"piece_a": [["37/2", "1/2"], ["0", "0"]]}, "'piece_a' has 2 points"),
        (
            {"nerve": {"facets": [[0], [1]]}, "piece_a": [[]], "piece_b": [[]]},
            "'nerve' has dimension 0",
        ),
    ],
    ids=["one-coordinate", "three-coordinates", "two-point-piece", "vertex-nerve"],
)
def test_recheck_rejects_lemma_pieces_of_the_wrong_shape(tmp_path, capsys, edit, message):
    doc = json.loads(LEMMA_DOCUMENT)
    assert recheck_certificate(doc)[0]
    doc.update(edit)
    assert main(["recheck", write(tmp_path / "bad.json", doc)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "confirmed" not in captured.out


def path_map():
    F = family_from_doc(PATH_FAMILY)
    return witness_map(F, nerve_helly(F))


@pytest.mark.parametrize(
    "make_map, ok, tests",
    [
        (lambda: corrupted_map(5, True, 0), True, 48),
        (lambda: corrupted_map(5, True, 2), True, 48),
        (lambda: corrupted_map(0, True, 2), False, 47),
        (path_map, True, 22),
    ],
    ids=["clean", "two-corruptions", "violation", "path"],
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
                 "PYTHONPATH": os.pathsep.join([src_dir, tests_dir]),
                 "PYTHONDONTWRITEBYTECODE": "1"},
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    verdicts = [line.endswith("None") for line in outputs[0].splitlines()]
    assert verdicts == [False, False, True]
