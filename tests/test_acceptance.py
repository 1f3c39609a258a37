"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion asserts its stated budget and exact expected values.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import nervecert
from nervecert import (
    barycentric_subdivision,
    complex_from_facets,
    intersection_cocycle,
    moment_curve_placement,
    nerve_exhaustive,
    nerve_helly,
    obstruction_vanishes,
    skeleton_complex,
    verify_remote_disjointness,
    verify_witness_membership,
    witness_points,
)
from nervecert.certificates import recheck_certificate
from nervecert.cli import main
from nervecert.fileio import document_to_text
from nervecert.witness import assemble_witness_map
from conftest import clustered_family, random_family
from oracles import remote_lemma_quadruples

K5 = skeleton_complex(4, 1)
D26 = skeleton_complex(6, 2)

PATH_DOC = {"facets": [[1, 2], [2, 3]]}
EDGE_DOC = {"facets": [[1, 2]]}
TRIANGLE_FAMILY_DOC = {
    "ambient": 2,
    "bodies": [
        {"label": 0, "box": {"lo": ["0", "0"], "hi": ["2", "1"]}},
        {"label": 1, "box": {"lo": ["1", "0"], "hi": ["3", "1"]}},
        {"label": 2, "box": {"lo": ["2", "0"], "hi": ["4", "1"]}},
    ],
}
PATH_FAMILY_DOC = {
    "ambient": 2,
    "bodies": [
        {"label": 0, "box": {"lo": ["0", "0"], "hi": ["10", "1"]}},
        {"label": 1, "box": {"lo": ["18", "0"], "hi": ["30", "1"]}},
        {"label": 2, "box": {"lo": ["38", "0"], "hi": ["50", "1"]}},
        {"label": 3, "box": {"lo": ["8", "0"], "hi": ["20", "1"]}},
        {"label": 4, "box": {"lo": ["28", "0"], "hi": ["40", "1"]}},
    ],
}


def _passline(n: int, text: str) -> None:
    print(f"ACCEPTANCE PASS: criterion {n} -- {text}")


def test_criterion_1_combinatorial_counts():
    start = time.monotonic()
    assert skeleton_complex(4, 1).f_vector() == (5, 10)
    assert skeleton_complex(6, 2).f_vector() == (7, 21, 35)
    sd = barycentric_subdivision(complex_from_facets([[1, 2, 3]]))
    assert sd.complex.f_vector() == (7, 12, 6)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passline(1, f"f-vectors (5,10), (7,21,35), (7,12,6) exact in {elapsed:.2f}s")


def test_criterion_2_remoteness_lemma():
    start = time.monotonic()
    # every face of sd gamma is remote from every face of sd delta in sd L
    checked = 0
    for L, d, pairs in ((K5, 1, 15), (D26, 2, 70)):
        quads = remote_lemma_quadruples(L, d)
        assert all(remote for *_, remote in quads)
        assert len({quad[:2] for quad in quads}) == pairs
        checked += len(quads)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passline(2, f"zero violations over {checked} quadruples in {elapsed:.1f}s")


def test_criterion_3_nerve_engines_agree():
    start = time.monotonic()
    rng = random.Random(424242)
    for _ in range(100):
        F = random_family(rng, n_min=2, n_max=8, m_max=3, cuts=True)
        assert nerve_helly(F).faces == nerve_exhaustive(F).faces
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passline(3, f"helly == exhaustive face-for-face on 100 families in {elapsed:.1f}s")


def test_criterion_4_witness_suite():
    start = time.monotonic()
    rng = random.Random(515151)
    families = 0
    remote_pairs = 0
    while families < 50:
        if families % 2 == 0:
            F = random_family(rng, n_min=3, n_max=6, m_max=3, cuts=True)
        else:
            F = clustered_family(rng, m=rng.randint(1, 3), clusters=2, per=rng.randint(2, 3))
        K = nerve_helly(F)
        if len(K.vertices) != len(F.bodies):
            continue
        g = assemble_witness_map(K, witness_points(F, K), F.ambient)
        assert verify_witness_membership(F, g.witness).ok
        rep = verify_remote_disjointness(g)
        assert rep.ok
        remote_pairs += rep.remote_pairs
        families += 1

    # injected corruption: p({1}) of a 4-interval chain moved onto p({3})
    from nervecert import ConvexFamily, HPolytope

    chain = ConvexFamily.of(
        1, [(i, HPolytope.box([i - 1], [i])) for i in range(1, 5)]
    )
    K = nerve_helly(chain)
    points = witness_points(chain, K)
    points[(1,)] = (Fraction(5, 2),)
    bad = assemble_witness_map(K, points, chain.ambient)
    rep = verify_remote_disjointness(bad)
    assert not rep.ok
    assert (rep.violation.alpha, rep.violation.beta) == ((1,), (3,))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passline(
        4,
        f"membership, disjointness exact on 50 families "
        f"({remote_pairs} remote pairs); corruption named ((1,),(3,)); {elapsed:.1f}s",
    )


def test_criterion_5_obstruction_verdicts():
    start = time.monotonic()
    k4 = complex_from_facets([[a, b] for a in range(1, 5) for b in range(a + 1, 5)])
    k33 = complex_from_facets([[i, j] for i in range(3) for j in range(3, 6)])
    cases = {
        "K4": (k4, 1, True, [None, [3, 5, 7, 11], [Fraction(-3), Fraction(1, 3), 2, 8]]),
        "K5": (K5, 1, False, [None, [2, 3, 5, 7, 11], [Fraction(1, 2), 1, Fraction(5, 2), 4, 9]]),
        "K33": (k33, 1, False, [None, [2, 3, 5, 7, 11, 13], [1, 4, 9, 16, 25, 36]]),
        "D26": (D26, 2, False, [None, [2, 3, 5, 7, 11, 13, 17], [1, 2, 4, 8, 16, 32, 64]]),
    }
    for name, (K, d, expected, param_sets) in cases.items():
        for params in param_sets:
            cert = obstruction_vanishes(K, d, moment_curve_placement(K, d, params))
            assert cert.vanishes == expected, name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passline(
        5,
        f"K4 vanishes; K5, K33, D26 nonvanishing; 3 placements each; {elapsed:.1f}s",
    )


def test_criterion_6_vkf_parity_d1():
    start = time.monotonic()
    placement = moment_curve_placement(K5, 1)  # convex position t = 1..5
    cocycle = intersection_cocycle(K5, 1, placement)
    assert cocycle.weight == 5
    rng = random.Random(606060)
    runs = 0
    while runs < 20:
        params = [
            Fraction(rng.randint(-60, 60), rng.randint(1, 5)) for _ in range(5)
        ]
        if len(set(params)) != 5:
            continue
        coc = intersection_cocycle(K5, 1, moment_curve_placement(K5, 1, params))
        assert coc.weight % 2 == 1
        runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passline(
        6,
        f"odd crossing parity in 20 random placements; exactly 5 pairs at t=1..5; {elapsed:.1f}s",
    )


def _run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_7_certificate_pipeline(tmp_path, capsys):
    fam_tri = tmp_path / "tri_family.json"
    fam_tri.write_text(document_to_text(TRIANGLE_FAMILY_DOC))
    fam_path = tmp_path / "path_family.json"
    fam_path.write_text(document_to_text(PATH_FAMILY_DOC))
    edge = tmp_path / "edge.json"
    edge.write_text(document_to_text(EDGE_DOC))
    path = tmp_path / "path.json"
    path.write_text(document_to_text(PATH_DOC))

    runs = [
        (["certificate", str(fam_tri), str(edge), "-d", "1"], "NERVE_MISMATCH", 2),
        (["certificate", str(fam_path), str(path), "-d", "1"], "OBSTRUCTION_REPORT", 0),
        (
            ["certificate", str(fam_path), str(path), "-d", "1",
             "--corrupt-witness", "0:37/2,1/2"],
            "LEMMA_VIOLATION",
            2,
        ),
    ]
    for i, (argv, kind, want_code) in enumerate(runs):
        out = tmp_path / f"cert{i}.json"
        code, _ = _run_cli(capsys, *argv, "-o", str(out))
        assert code == want_code, argv
        doc = json.loads(out.read_text())
        assert doc["kind"] == kind
        if kind == "OBSTRUCTION_REPORT":
            assert doc["vanishes"] is True
        ok, _detail = recheck_certificate(doc)
        assert ok
        assert _run_cli(capsys, "recheck", str(out))[0] == 0
    _passline(7, "three pipeline scenarios give the expected kinds, exit codes, and recheck clean")


def test_criterion_8_byte_identical_runs(tmp_path):
    fam_path = tmp_path / "path_family.json"
    fam_path.write_text(document_to_text(PATH_FAMILY_DOC))
    fam_tri = tmp_path / "tri_family.json"
    fam_tri.write_text(document_to_text(TRIANGLE_FAMILY_DOC))
    path = tmp_path / "path.json"
    path.write_text(document_to_text(PATH_DOC))
    edge = tmp_path / "edge.json"
    edge.write_text(document_to_text(EDGE_DOC))

    battery = [  # (argv, expected exit code)
        (["build", "skeleton", "6", "2"], 0),
        (["build", "sd", str(path)], 0),
        (["build", "sd2", str(edge)], 0),
        (["nerve", str(fam_path)], 0),
        (["vk", str(path), "-d", "1"], 0),
        (["vkf-demo", "-d", "1"], 3),
        (["vkf-demo", "-d", "2"], 3),
        (["certificate", str(fam_tri), str(edge), "-d", "1"], 2),
        (["certificate", str(fam_path), str(path), "-d", "1"], 0),
        (["certificate", str(fam_path), str(path), "-d", "1", "--corrupt-witness", "0:37/2,1/2"], 2),
    ]
    # The subprocesses get a minimal environment, so point them at this package.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(nervecert.__file__)))

    def run_all(hash_seed: str) -> bytes:
        blob = b""
        for argv, expected in battery:
            proc = subprocess.run(
                [sys.executable, "-m", "nervecert.cli", *argv],
                capture_output=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir},
                cwd=str(tmp_path),
            )
            assert proc.returncode == expected, (argv, proc.returncode, proc.stderr)
            assert proc.stdout.strip(), (argv, proc.stderr)
            blob += b"====\n" + proc.stdout + str(proc.returncode).encode() + b"\n"
        return blob

    first = run_all("1")
    second = run_all("978")  # different hash seed: order must not leak from sets
    assert first == second
    _passline(8, f"two full CLI runs byte-identical across hash seeds ({len(battery)} commands)")
