"""Command surface: exit codes, documents, recheck, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import nervecert
from nervecert import certificates
from nervecert.certificates import (
    consistency_failure_cert,
    obstruction_report,
    recheck_certificate,
    run_pipeline,
    vkf_demo,
)
from nervecert.cli import main
from nervecert.complexes import (
    PairIndex,
    complex_from_facets,
    disjoint_simplex_pairs,
    skeleton_complex,
)
from nervecert.errors import ParseError
from nervecert.fileio import (
    complex_from_doc,
    complex_to_doc,
    document_to_text,
    family_from_doc,
    family_to_doc,
    format_rational,
    parse_rational,
)
from nervecert.nerve import nerve_exhaustive
from nervecert.obstruction import Placement, moment_curve_placement
from conftest import random_complexes
from test_gf2 import torus


def write(path, doc) -> str:
    path.write_text(document_to_text(doc) if isinstance(doc, dict) else doc)
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def load(path) -> dict:
    return json.loads(path.read_text())


def run_module(tmp_path, *argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m nervecert` in a minimal environment that writes no bytecode."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(nervecert.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "nervecert", *argv],
        capture_output=True, text=True, cwd=str(tmp_path),
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir, "PYTHONDONTWRITEBYTECODE": "1"},
        **kwargs,
    )


EDGE = {"facets": [[1, 2]]}
PATH = {"facets": [[1, 2], [2, 3]]}
TRIANGLE_FAMILY = {
    "ambient": 2,
    "bodies": [
        {"label": 0, "box": {"lo": ["0", "0"], "hi": ["2", "1"]}},
        {"label": 1, "box": {"lo": ["1", "0"], "hi": ["3", "1"]}},
        {"label": 2, "box": {"lo": ["2", "0"], "hi": ["4", "1"]}},
    ],
}
# nerve of this family is the subdivided path 0-3-1-4-2
PATH_FAMILY = {
    "ambient": 2,
    "bodies": [
        {"label": 0, "box": {"lo": ["0", "0"], "hi": ["10", "1"]}},
        {"label": 1, "box": {"lo": ["18", "0"], "hi": ["30", "1"]}},
        {"label": 2, "box": {"lo": ["38", "0"], "hi": ["50", "1"]}},
        {"label": 3, "box": {"lo": ["8", "0"], "hi": ["20", "1"]}},
        {"label": 4, "box": {"lo": ["28", "0"], "hi": ["40", "1"]}},
    ],
}
INTERVAL_FAMILY = {
    "ambient": 1,
    "bodies": [
        {"label": 1, "box": {"lo": ["0"], "hi": ["2"]}},
        {"label": 2, "box": {"lo": ["1"], "hi": ["3"]}},
        {"label": 3, "box": {"lo": ["2"], "hi": ["4"]}},
    ],
}


def test_build_skeleton(tmp_path, capsys):
    out = tmp_path / "k5.json"
    code, _ = run(capsys, "build", "skeleton", "4", "1", "-o", str(out))
    assert code == 0
    doc = load(out)
    assert len(doc["facets"]) == 10


def test_build_sd_includes_labels(tmp_path, capsys):
    src = write(tmp_path / "tri.json", {"facets": [[1, 2, 3]]})
    out = tmp_path / "sd.json"
    code, _ = run(capsys, "build", "sd", src, "-o", str(out))
    assert code == 0
    doc = load(out)
    assert len(doc["vertex_labels"]) == 7
    assert doc["base"] == {"facets": [[1, 2, 3]]}


def test_build_sd2(tmp_path, capsys):
    src = write(tmp_path / "edge.json", EDGE)
    out = tmp_path / "sd2.json"
    code, stdout = run(capsys, "build", "sd2", src, "-o", str(out))
    assert code == 0
    assert "(5, 4)" in stdout  # twice-subdivided edge is a 5-vertex path
    doc = load(out)
    assert len(doc["vertex_labels"]) == 5
    assert len(doc["base"]["vertex_labels"]) == 3


def test_build_rejects_garbage(tmp_path, capsys):
    code, _ = run(capsys, "build", "skeleton", "2")
    assert code == 1
    bad = write(tmp_path / "bad.json", "{not json")
    code, _ = run(capsys, "build", "sd", bad)
    assert code == 1


def test_nerve_modes_agree(tmp_path, capsys):
    # the command runs the Helly engine; the exhaustive engine is the reference
    fam = write(tmp_path / "fam.json", INTERVAL_FAMILY)
    out = tmp_path / "h.json"
    assert run(capsys, "nerve", fam, "-o", str(out))[0] == 0
    reference = nerve_exhaustive(family_from_doc(INTERVAL_FAMILY))
    assert out.read_text() == document_to_text(complex_to_doc(reference))
    assert load(out)["facets"] == [[1, 2, 3]]


@pytest.mark.parametrize(
    "argv",
    [
        ["nerve"],
        ["nerve", "fam.json", "--mode", "helly"],
        ["vk", "k4.json", "-d", "abc"],
        ["certificate", "fam.json", "path.json", "-d", "1", "--corrupt-stage", "x"],
        [],
        ["bogus"],
        ["build", "skeleton", "2"],
        ["build", "skeleton", "2", "x"],
        ["build", "sd"],
        ["build", "sd", "fam.json", "fam.json"],
        ["build", "cube", "3"],
    ],
    ids=[
        "missing-family", "removed-mode", "non-integer-d", "bad-choice", "no-command",
        "unknown-command", "build-skeleton-one-argument", "build-skeleton-non-integer",
        "build-sd-without-file", "build-sd-two-files", "build-unknown-kind",
    ],
)
def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch, argv):
    # exit 2 belongs to mismatch-class certificates, so a usage error is a parse error
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "fam.json", INTERVAL_FAMILY)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: nervecert")
    assert "error: nervecert" in captured.err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["nerve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nervecert")


def test_vk_exit_codes(tmp_path, capsys):
    k5 = tmp_path / "k5.json"
    run(capsys, "build", "skeleton", "4", "1", "-o", str(k5))
    k4 = tmp_path / "k4.json"
    run(capsys, "build", "skeleton", "3", "1", "-o", str(k4))
    d26 = tmp_path / "d26.json"
    run(capsys, "build", "skeleton", "6", "2", "-o", str(d26))

    out = tmp_path / "r1.json"
    code, stdout = run(capsys, "vk", str(k4), "-d", "1", "-o", str(out))
    assert code == 0 and "vanishes" in stdout
    assert recheck_certificate(load(out)) == (True, "obstruction verdict confirmed")

    code, stdout = run(capsys, "vk", str(k5), "-d", "1", "-o", str(out))
    assert code == 3 and "nonvanishing" in stdout
    assert recheck_certificate(load(out))[0]

    code, _ = run(capsys, "vk", str(d26), "-d", "2", "-o", str(out))
    assert code == 3
    assert recheck_certificate(load(out))[0]


@pytest.mark.parametrize(
    "argv, line, code",
    [
        (["build", "skeleton", "4", "1"], "skeleton(4,1): f-vector (5, 10)", 0),
        (["build", "sd", "tri.json"], "sd: f-vector (7, 12, 6)", 0),
        (["build", "sd2", "path.json"], "sd2: f-vector (9, 8)", 0),
        (["nerve", "fam.json"], "nerve: f-vector (3, 3, 1)", 0),
        (["vk", "k4.json", "-d", "1"], "vanishes: cocycle of weight 1 is a coboundary", 0),
        (
            ["vk", "k5.json", "-d", "1"],
            "nonvanishing: cocycle of weight 5 outside the rank-14 row space",
            3,
        ),
        (["vkf-demo", "-d", "1"], "VKF_CERTIFICATE: [1, 3] and [2, 4] cross at (5/2, 7)", 3),
    ],
    ids=["skeleton", "sd", "sd2", "nerve-helly", "vk-k4", "vk-k5", "vkf-demo"],
)
def test_summary_line_and_exit_code(tmp_path, capsys, monkeypatch, argv, line, code):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "tri.json", {"facets": [[1, 2, 3]]})
    write(tmp_path / "path.json", PATH)
    write(tmp_path / "fam.json", INTERVAL_FAMILY)
    write(tmp_path / "k4.json", {"facets": [list(e) for e in combinations(range(4), 2)]})
    write(tmp_path / "k5.json", {"facets": [list(e) for e in combinations(range(5), 2)]})
    for out in ([], ["-o", "out.json"]):  # the line comes first either way
        result, stdout = run(capsys, *argv, *out)
        assert (result, stdout.splitlines()[0]) == (code, line)
    assert stdout == line + "\n"
    assert load(tmp_path / "out.json")


def test_vk_duplicate_params_fail_generically(tmp_path, capsys):
    k4 = tmp_path / "k4.json"
    run(capsys, "build", "skeleton", "3", "1", "-o", str(k4))
    assert main(["vk", str(k4), "-d", "1", "--params", "1,2,2,4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "genericity failure: placement parameters must be distinct; reseed and retry\n"
        "hint: pass --params with fresh distinct rationals\n"
    )


def test_certificate_nerve_mismatch(tmp_path, capsys):
    fam = write(tmp_path / "fam.json", TRIANGLE_FAMILY)
    edge = write(tmp_path / "edge.json", EDGE)
    out = tmp_path / "cert.json"
    code, stdout = run(capsys, "certificate", fam, edge, "-d", "1", "-o", str(out))
    assert code == 2
    assert "NERVE_MISMATCH" in stdout
    doc = load(out)
    assert doc["kind"] == "NERVE_MISMATCH"
    assert doc["direction"] == "extra_face"
    assert doc["witness_face"] == [0, 1]
    assert recheck_certificate(doc)[0]


def test_certificate_honest_run_reports_vanishing(tmp_path, capsys):
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    out = tmp_path / "cert.json"
    code, stdout = run(capsys, "certificate", fam, path, "-d", "1", "-o", str(out))
    assert code == 0
    assert "vanishes" in stdout
    doc = load(out)
    assert doc["kind"] == "OBSTRUCTION_REPORT"
    assert doc["vanishes"] is True
    assert recheck_certificate(doc)[0]


def test_certificate_corrupted_witness_hits_the_lemma(tmp_path, capsys):
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    out = tmp_path / "cert.json"
    code, stdout = run(
        capsys,
        "certificate", fam, path, "-d", "1",
        "--corrupt-witness", "0:37/2,1/2",
        "-o", str(out),
    )
    assert code == 2
    assert "LEMMA_VIOLATION" in stdout
    doc = load(out)
    assert doc["kind"] == "LEMMA_VIOLATION"
    assert (doc["alpha"], doc["beta"]) == ([0], [1])
    assert recheck_certificate(doc)[0]


def test_certificate_corruption_at_witness_stage(tmp_path, capsys):
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    out = tmp_path / "cert.json"
    code, stdout = run(
        capsys,
        "certificate", fam, path, "-d", "1",
        "--corrupt-witness", "0:37/2,1/2", "--corrupt-stage", "witness",
        "-o", str(out),
    )
    assert code == 2
    assert "WITNESS_VIOLATION" in stdout
    doc = load(out)
    assert doc["kind"] == "WITNESS_VIOLATION"
    assert doc["face"] == [0]
    assert recheck_certificate(doc)[0]


@pytest.mark.parametrize(
    "family, complex_doc, code",
    [(PATH_FAMILY, PATH, 0), (TRIANGLE_FAMILY, EDGE, 2)],
    ids=["clean", "mismatch"],
)
def test_certificate_enumerates_no_nerve(
    tmp_path, capsys, monkeypatch, family, complex_doc, code
):
    # witness_points checks sd L face by face; no engine builds the nerve
    import nervecert.cli
    import nervecert.nerve
    import nervecert.witness

    calls = []
    for name in ("nerve_matches", "nerve_helly", "nerve_exhaustive"):
        real = getattr(nervecert.nerve, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in (nervecert.nerve, nervecert.witness, nervecert.cli):
            monkeypatch.setattr(module, name, counted, raising=False)
    fam = write(tmp_path / "fam.json", family)
    src = write(tmp_path / "src.json", complex_doc)
    assert run(capsys, "certificate", fam, src, "-d", "1")[0] == code
    assert calls == []


@pytest.mark.parametrize(
    "stage, code",
    [(None, 0), ("witness", 2), ("lemma", 2)],
    ids=["clean", "witness-stage", "lemma-stage"],
)
def test_certificate_audits_membership_once(tmp_path, capsys, monkeypatch, stage, code):
    # Each computed point passed its centre's check, so the membership audit
    # reads the hook's point alone, and a clean run reads no body row at all.
    import nervecert.certificates
    import nervecert.convex
    import nervecert.witness

    audits, row_reads = [], []
    real_audit = nervecert.witness.verify_witness_membership
    real_row = nervecert.convex.HPolytope.violated_row

    def audit(*args, **kwargs):
        audits.append(args)
        return real_audit(*args, **kwargs)

    def violated_row(self, point):
        row_reads.append(point)
        return real_row(self, point)

    for module in (nervecert.witness, nervecert.certificates):
        monkeypatch.setattr(module, "verify_witness_membership", audit)
    monkeypatch.setattr(nervecert.convex.HPolytope, "violated_row", violated_row)
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    extra = ["--corrupt-witness", "0:37/2,1/2", "--corrupt-stage", stage] if stage else []
    assert run(capsys, "certificate", fam, path, "-d", "1", *extra)[0] == code
    if stage is None:
        assert audits == [] and row_reads == []
    else:
        assert len(audits) == 1
        assert audits[0][1] == {(0,): (Fraction(37, 2), Fraction(1, 2))}


@pytest.mark.parametrize(
    "corruption, code, audits, stage",
    [
        (None, 0, 0, None),
        ("0:37/2,1/2", 2, 1, None),  # leaves body 0 and meets p({1})
        ("0:1,1/2", 0, 0, None),  # moves p({0}) inside body 0: containment accepts
        ("0,3:12,1/2", 0, 1, None),  # leaves body 0 but meets no remote image
        ("0:1,1/2", 0, 0, "witness"),  # inside body 0: nothing to report
        ("0:37/2,1/2", 2, 0, "witness"),  # outside: reported, never audited
    ],
    ids=["clean", "violation", "contained", "audit-clears",
         "witness-contained", "witness-violation"],
)
def test_certificate_proves_the_lemma_by_containment(
    tmp_path, capsys, monkeypatch, corruption, code, audits, stage
):
    import nervecert.certificates
    import nervecert.cli
    import nervecert.convex
    import nervecert.witness

    calls = {"audit": 0, "hulls": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    audit = counted("audit", nervecert.witness.verify_remote_disjointness)
    for module in (nervecert.witness, nervecert.certificates):
        monkeypatch.setattr(module, "verify_remote_disjointness", audit)
    hulls = counted("hulls", nervecert.convex.hulls_intersect)
    for module in (nervecert.convex, nervecert.witness, nervecert.cli, nervecert.certificates):
        monkeypatch.setattr(module, "hulls_intersect", hulls)
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    clean = tmp_path / "clean.json"
    clean_stdout = run(capsys, "certificate", fam, path, "-d", "1", "-o", str(clean))[1]
    assert calls == {"audit": 0, "hulls": 0}
    if corruption is None:
        return
    out = tmp_path / "cert.json"
    extra = ["--corrupt-stage", stage] if stage else []
    result = run(
        capsys, "certificate", fam, path, "-d", "1",
        "--corrupt-witness", corruption, *extra, "-o", str(out),
    )
    assert result[0] == code
    assert calls["audit"] == audits
    if stage == "witness" and code:
        assert load(out)["kind"] == "WITNESS_VIOLATION"
    if code == 0:  # a corruption the lemma clears changes no byte
        assert result[1] == clean_stdout
        assert out.read_bytes() == clean.read_bytes()


def test_certificate_has_no_body_cap(tmp_path, capsys):
    # 61 touching boxes in a row realize sd of a 31-vertex path: vertex i sits
    # at [2i, 2i+1], edge {i, i+1} (sd label 31 + i) at [2i+1, 2i+2].  Neither
    # the certificate's check nor the nerve command caps the family's size.
    left = {i: 2 * i for i in range(31)} | {31 + i: 2 * i + 1 for i in range(30)}
    family = {
        "ambient": 2,
        "bodies": [
            {"label": v, "box": {"lo": [str(x), "0"], "hi": [str(x + 1), "1"]}}
            for v, x in sorted(left.items())
        ],
    }
    fam = write(tmp_path / "fam.json", family)
    path = write(tmp_path / "path.json", {"facets": [[i, i + 1] for i in range(30)]})
    code, stdout = run(capsys, "certificate", fam, path, "-d", "1")
    assert code == 0
    assert "OBSTRUCTION_REPORT: clean run" in stdout
    nerve, sd = tmp_path / "nerve.json", tmp_path / "sd.json"
    assert run(capsys, "nerve", fam, "-o", str(nerve)) == (0, "nerve: f-vector (61, 60)\n")
    assert run(capsys, "build", "sd", path, "-o", str(sd))[0] == 0
    assert load(nerve)["facets"] == load(sd)["facets"]


def test_a_clean_run_on_k5_is_a_consistency_failure(tmp_path, capsys, monkeypatch):
    # No family in R^2 realizes sd K5, so no genuine run ends clean on it;
    # with the nerve check stubbed to pass, the obstruction of K5 is the
    # verdict, and a clean run against it is the library-fault sentinel.
    import nervecert.certificates

    monkeypatch.setattr(nervecert.certificates, "witness_points", lambda F, K: {})
    family = {
        "ambient": 2,
        "bodies": [{"label": v, "box": {"lo": [str(v), "0"], "hi": [str(v + 1), "1"]}}
                   for v in range(15)],
    }
    line, doc = run_pipeline(family_from_doc(family), skeleton_complex(4, 1), 1)
    assert line == "CONSISTENCY_FAILURE: clean run contradicts the nonvanishing obstruction"
    assert recheck_certificate(doc) == (True, "embedded nonvanishing certificate confirmed")
    fam = write(tmp_path / "fam.json", family)
    k5 = write(tmp_path / "k5.json", complex_to_doc(skeleton_complex(4, 1)))
    assert run(capsys, "certificate", fam, k5, "-d", "1") == (5, line + "\n" + document_to_text(doc))


def test_certificate_validation_errors(tmp_path, capsys):
    fam = write(tmp_path / "fam.json", INTERVAL_FAMILY)  # ambient 1, need 2
    edge = write(tmp_path / "edge.json", EDGE)
    assert run(capsys, "certificate", fam, edge, "-d", "1")[0] == 1
    tri = write(tmp_path / "tri.json", {"facets": [[1, 2, 3]]})
    fam2 = write(tmp_path / "fam2.json", PATH_FAMILY)
    assert run(capsys, "certificate", fam2, tri, "-d", "1")[0] == 1


def test_vkf_demo(tmp_path, capsys):
    out = tmp_path / "demo.json"
    code, stdout = run(capsys, "vkf-demo", "-d", "1", "-o", str(out))
    assert code == 3
    doc = load(out)
    assert doc["gamma"] == [1, 3]
    assert doc["delta"] == [2, 4]
    assert doc["point"] == ["5/2", "7"]
    assert recheck_certificate(doc)[0]
    code, _ = run(capsys, "vkf-demo", "-d", "2", "-o", str(out))
    assert code == 3
    assert recheck_certificate(load(out))[0]


def test_recheck_cli_confirms_and_refutes(tmp_path, capsys):
    out = tmp_path / "demo.json"
    run(capsys, "vkf-demo", "-d", "1", "-o", str(out))
    assert run(capsys, "recheck", str(out))[0] == 0
    doc = load(out)
    doc["point"] = ["5/2", "8"]  # tamper
    tampered = write(tmp_path / "tampered.json", doc)
    code, stdout = run(capsys, "recheck", tampered)
    assert code == 5
    assert "REFUTED" in stdout
    assert run(capsys, "recheck", str(tmp_path / "missing.json"))[0] == 1


def test_main_runs_the_command_bound_at_call_time(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; the subcommand's function is
    # still looked up on every call, so a later rebinding is the one that runs.
    import nervecert.cli

    out = tmp_path / "demo.json"
    run(capsys, "vkf-demo", "-d", "1", "-o", str(out))
    assert run(capsys, "recheck", str(out))[0] == 0
    seen = []
    monkeypatch.setattr(nervecert.cli, "cmd_recheck", lambda args: seen.append(args) or 42)
    assert run(capsys, "recheck", str(out))[0] == 42
    assert [args.certificate for args in seen] == [str(out)]
    assert nervecert.cli._build_parser() is nervecert.cli._build_parser()


def _corrupt_witness_cert(tmp_path, capsys) -> dict:
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    out = tmp_path / "cert.json"
    run(
        capsys,
        "certificate", fam, path, "-d", "1",
        "--corrupt-witness", "0:37/2,1/2", "--corrupt-stage", "witness",
        "-o", str(out),
    )
    return load(out)


def _lemma_cert(tmp_path, capsys) -> dict:
    """LEMMA_VIOLATION for the remote pair [0], [1] of the subdivided path."""
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    out = tmp_path / "cert.json"
    run(
        capsys,
        "certificate", fam, path, "-d", "1", "--corrupt-witness", "0:37/2,1/2", "-o", str(out),
    )
    return load(out)


def _extra_face_cert(tmp_path, capsys) -> dict:
    """NERVE_MISMATCH extra_face [0, 1]; the complex is the path 0-2-1."""
    fam = write(tmp_path / "fam.json", TRIANGLE_FAMILY)
    edge = write(tmp_path / "edge.json", EDGE)
    out = tmp_path / "cert.json"
    run(capsys, "certificate", fam, edge, "-d", "1", "-o", str(out))
    return load(out)


def _vk_cert(tmp_path, capsys, n: int = 3) -> dict:
    """The `vk -d 1` certificate of the complete graph on n + 1 vertices."""
    graph = tmp_path / "graph.json"
    run(capsys, "build", "skeleton", str(n), "1", "-o", str(graph))
    out = tmp_path / "vk.json"
    run(capsys, "vk", str(graph), "-d", "1", "-o", str(out))
    return load(out)


def _vk_k5_cert(tmp_path, capsys) -> dict:
    return _vk_cert(tmp_path, capsys, n=4)


def _consistency_cert(tmp_path, capsys) -> dict:
    """CONSISTENCY_FAILURE around the nonvanishing K5 certificate."""
    return consistency_failure_cert(_vk_k5_cert(tmp_path, capsys))


def _demo_cert(tmp_path, capsys) -> dict:
    out = tmp_path / "demo.json"
    run(capsys, "vkf-demo", "-d", "1", "-o", str(out))
    return load(out)


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _edit(key, change):
    def mutate(doc):
        doc[key] = change(doc[key])
    return mutate


def _set_inner(key, value):
    def mutate(doc):
        doc["obstruction"][key] = value
    return mutate


def _set_first_hpoly_rows(doc):
    doc["bodies"]["bodies"][0]["hpoly"]["A"] = [5]


def _repeat_first_param(doc):
    first, second = sorted(doc["params"], key=int)[:2]
    doc["params"][second] = doc["params"][first]


def _alias_first_param(doc):
    first = min(doc["params"], key=int)
    doc["params"]["0" + first] = "99"


INCREASING = "must list one or more labels in strictly increasing order"


@pytest.mark.parametrize(
    "make, mutate, message",
    [
        (_corrupt_witness_cert, _set("kind", []), "unknown certificate kind []"),
        (_corrupt_witness_cert, _set("point", 5), "'point' must be a list"),
        (_corrupt_witness_cert, _set_first_hpoly_rows, "hpoly row must be a list"),
        (_corrupt_witness_cert, _set("body_label", 7), "'body_label' 7 names no body"),
        (_corrupt_witness_cert, _set("body_label", True), "'body_label' must be an integer"),
        (_corrupt_witness_cert, _set("row", True), "'row' must be an integer"),
        (_corrupt_witness_cert, _set("face", [2]), "'body_label' 0 is not a member of 'face'"),
        (_corrupt_witness_cert, _set("face", [1, 4]), "'body_label' 0 is not a member of 'face'"),
        (_corrupt_witness_cert, _set("face", "junk"), "'face' must be a list"),
        (_corrupt_witness_cert, _set("face", [0, 9]), "'face' [0, 9] names labels outside"),
        (_corrupt_witness_cert, _set("face", [3, 0]), f"'face' {INCREASING}, got [3, 0]"),
        (_extra_face_cert, _set("witness_face", [2, 0]), f"'witness_face' {INCREASING}, got [2, 0]"),
        (_extra_face_cert, _set("witness_face", [0, 0]), f"'witness_face' {INCREASING}, got [0, 0]"),
        (_extra_face_cert, _set("witness_face", [0, 2, 0]), f"'witness_face' {INCREASING}"),
        (_extra_face_cert, _set("witness_face", []), f"'witness_face' {INCREASING}, got []"),
        (_demo_cert, _set("gamma", [3, 1]), f"'gamma' {INCREASING}, got [3, 1]"),
        (_demo_cert, _set("gamma", [1, 1]), f"'gamma' {INCREASING}, got [1, 1]"),
        (_demo_cert, _set("delta", [4, 2]), f"'delta' {INCREASING}, got [4, 2]"),
        (_lemma_cert, _set("alpha", []), f"'alpha' {INCREASING}, got []"),
        (_lemma_cert, _set("beta", [1, 1]), f"'beta' {INCREASING}, got [1, 1]"),
        (_demo_cert, _set("d", True), "'d' must be an integer"),
        (_vk_cert, _set("d", True), "'d' must be an integer"),
        (_vk_cert, _set("combination", None), "'combination' must be a hex string"),
        (_vk_k5_cert, _set("witness", None), "'witness' must be a hex string"),
        (_vk_cert, _set("n_pairs", [3]), "'n_pairs' must be an integer"),
        (_vk_cert, _set("n_rows", [1]), "'n_rows' must be an integer"),
        (_vk_k5_cert, _set("rank", "14"), "'rank' must be an integer"),
        (_vk_cert, _edit("combination", "0x{}".format), "'combination' is not a canonical hex"),
        (_vk_k5_cert, _edit("witness", "-{}".format), "'witness' is not a canonical hex"),
        (_vk_k5_cert, _edit("cocycle", "0_{}".format), "'cocycle' is not a canonical hex"),
        (_vk_k5_cert, _edit("cocycle", " {} ".format), "'cocycle' is not a canonical hex"),
        (_vk_k5_cert, _edit("witness", "0{}".format), "'witness' is not a canonical hex"),
        (_vk_k5_cert, _edit("witness", str.upper), "'witness' is not a canonical hex"),
        (_vk_k5_cert, _set("combination", "ffff"), "'combination' must be null when 'vanishes' is false"),
        (_vk_cert, _set("witness", "1"), "'witness' must be null when 'vanishes' is true"),
        (
            _consistency_cert, _set_inner("combination", "ffff"),
            "'combination' must be null when 'vanishes' is false",
        ),
        (_vk_cert, _repeat_first_param, "'params' repeats the value 1"),
        (_demo_cert, _repeat_first_param, "'params' repeats the value 1"),
        (_vk_cert, _alias_first_param, "'params' key '00' is not a canonical integer"),
    ],
    ids=[
        "kind-list",
        "point-int",
        "hpoly-row-int",
        "unknown-body-label",
        "bool-body-label",
        "bool-row",
        "face-without-body-label",
        "other-face-without-body-label",
        "string-face",
        "face-outside-family",
        "reversed-face",
        "reversed-witness-face",
        "repeated-witness-face",
        "revisiting-witness-face",
        "empty-witness-face",
        "reversed-gamma",
        "repeated-gamma",
        "reversed-delta",
        "empty-alpha",
        "repeated-beta",
        "bool-d-vkf",
        "bool-d-obstruction",
        "null-combination",
        "null-witness",
        "list-n-pairs",
        "list-n-rows",
        "string-rank",
        "0x-combination",
        "negative-witness",
        "underscore-cocycle",
        "spaced-cocycle",
        "leading-zero-witness",
        "uppercase-witness",
        "stray-combination",
        "stray-witness",
        "stray-combination-consistency",
        "repeated-params-obstruction",
        "repeated-params-vkf-demo",
        "aliased-params-key",
    ],
)
def test_recheck_rejects_malformed_fields(tmp_path, capsys, make, mutate, message):
    doc = make(tmp_path, capsys)
    assert recheck_certificate(doc)[0]  # the untouched certificate confirms
    mutate(doc)
    bad = write(tmp_path / "bad.json", doc)
    assert main(["recheck", bad]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err


# int() reads each of these as 0, but a document spells vertex 0 only as "0"
OTHER_ZEROS = ["+0", " 0", "00", "-0", "0_0", "\u0660"]


@pytest.mark.parametrize("key", OTHER_ZEROS)
def test_recheck_rejects_a_params_key_in_another_spelling(tmp_path, capsys, key):
    doc = _vk_cert(tmp_path, capsys)
    doc["params"][key] = doc["params"].pop("0")
    assert main(["recheck", write(tmp_path / "bad.json", doc)]) == 1
    assert f"'params' key {key!r} is not a canonical integer" in capsys.readouterr().err


@pytest.mark.parametrize("key", OTHER_ZEROS)
def test_a_vertex_labels_key_in_another_spelling_is_exit_1(tmp_path, capsys, key):
    sd = tmp_path / "sd.json"
    run(capsys, "build", "sd", write(tmp_path / "edge.json", EDGE), "-o", str(sd))
    doc = load(sd)
    doc["vertex_labels"][key] = doc["vertex_labels"].pop("0")
    assert main(["build", "sd", write(tmp_path / "bad.json", doc)]) == 1
    assert f"'vertex_labels' key {key!r} is not a canonical integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "point",
    [["37/2"], [], ["37/2", "1/2", "0"]],
    ids=["too-short", "empty", "too-long"],
)
def test_recheck_rejects_a_witness_point_of_the_wrong_length(tmp_path, capsys, point):
    doc = _corrupt_witness_cert(tmp_path, capsys)
    assert doc["point"] == ["37/2", "1/2"]
    doc["point"] = point
    bad = write(tmp_path / "bad.json", doc)
    assert main(["recheck", bad]) == 1
    captured = capsys.readouterr()
    assert f"'point' has {len(point)} entries, expected 2" in captured.err
    assert "confirmed" not in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize(
    "field, what",
    [
        (("box", "lo"), "box 'lo'"),
        (("box", "hi"), "box 'hi'"),
        (("hpoly", "A", 0), "hpoly row"),
        (("hpoly", "b"), "hpoly 'b'"),
        (None, "corruption point"),
    ],
    ids=["box-lo", "box-hi", "hpoly-row", "hpoly-b", "corruption-point"],
)
def test_every_list_of_rationals_is_read_at_its_length(tmp_path, capsys, field, what, delta):
    # One entry short or long: the field and both counts are named, exit 1.
    if field is None:
        size = 2
        point = ",".join(["1/2"] * (size + delta))
        argv = [
            "certificate", write(tmp_path / "fam.json", PATH_FAMILY),
            write(tmp_path / "path.json", PATH), "-d", "1", "--corrupt-witness", f"0:{point}",
        ]
    else:
        family = json.loads(json.dumps(TRIANGLE_FAMILY))
        if field[0] == "hpoly":
            family = family_to_doc(family_from_doc(family))
        inner = family["bodies"][0]
        for key in field[:-1]:
            inner = inner[key]
        values = inner[field[-1]]
        size = len(values)
        inner[field[-1]] = (values + values)[: size + delta]
        argv = ["nerve", write(tmp_path / "fam.json", family)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {what} has {size + delta} entries, expected {size}\n" in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_non_ascii_digits_are_not_rationals(tmp_path, capsys):
    # int() reads any Unicode decimal digit, so "\u0663/\u0664" used to parse
    # as 3/4 in a family body and in a certificate field alike
    family = json.loads(json.dumps(INTERVAL_FAMILY))
    family["bodies"][0]["box"]["hi"] = ["\u0663/\u0664"]
    fam = write(tmp_path / "fam.json", family)
    assert main(["nerve", fam]) == 1
    captured = capsys.readouterr()
    assert "'\u0663/\u0664'" in captured.err and "Traceback" not in captured.err
    doc = _corrupt_witness_cert(tmp_path, capsys)
    doc["point"][1] = "\u0663/\u0664"
    bad = write(tmp_path / "bad.json", doc)
    assert main(["recheck", bad]) == 1
    captured = capsys.readouterr()
    assert "'\u0663/\u0664'" in captured.err and "Traceback" not in captured.err
    assert "confirmed" not in captured.out


@pytest.mark.parametrize(
    "family, facets, direction, face, message",
    [
        # bodies 0 and 1 meet, and the complex shares no label with the family
        (
            {"ambient": 2, "bodies": TRIANGLE_FAMILY["bodies"][:2]},
            [[100], [101]],
            "extra_face",
            [0, 1],
            "'witness_face' [0, 1] names labels outside the family (the complex's vertices): [0, 1]",
        ),
        # bodies 0 and 1 are disjoint, and the whole family came along
        (
            PATH_FAMILY,
            [[0, 1]],
            "missing_face",
            [0, 1],
            "'bodies' holds the bodies [0, 1, 2, 3, 4], expected those of 'witness_face' [0, 1]",
        ),
    ],
    ids=["extra-face", "missing-face"],
)
def test_recheck_of_a_nerve_mismatch_checks_labels(
    tmp_path, capsys, family, facets, direction, face, message
):
    # `certificate` makes the family's labels the complex's vertices and embeds
    # the face's bodies, so the face must lie in the complex and name the bodies
    doc = {
        "kind": "NERVE_MISMATCH",
        "direction": direction,
        "witness_face": face,
        "bodies": family,
        "family_sha256": "0" * 64,
        "complex": {"facets": facets},
    }
    bad = write(tmp_path / "bad.json", doc)
    assert main(["recheck", bad]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == f"error: {message}"
    assert "confirmed" not in captured.out


@pytest.mark.parametrize("direction", ["extra_face", "missing_face"])
def test_recheck_of_a_nerve_mismatch_rejects_a_face_outside_the_family(
    tmp_path, capsys, direction
):
    # the complex's vertices are the family's labels {0, 1, 2}; label 9 is neither
    doc = {
        "kind": "NERVE_MISMATCH",
        "direction": direction,
        "witness_face": [0, 9],
        "bodies": TRIANGLE_FAMILY,
        "family_sha256": "0" * 64,
        "complex": {"facets": [[0, 1], [2]]},
    }
    assert main(["recheck", write(tmp_path / "bad.json", doc)]) == 1
    captured = capsys.readouterr()
    assert "'witness_face' [0, 9] names labels outside the family" in captured.err
    assert "REFUTED" not in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "point", [["5/2"], ["5/2", "7", "0"]], ids=["too-short", "too-long"]
)
def test_recheck_rejects_a_crossing_point_of_the_wrong_length(tmp_path, capsys, point):
    doc = _demo_cert(tmp_path, capsys)
    assert doc["point"] == ["5/2", "7"]
    doc["point"] = point
    assert main(["recheck", write(tmp_path / "bad.json", doc)]) == 1
    captured = capsys.readouterr()
    assert f"'point' has {len(point)} entries, expected 2" in captured.err
    assert "REFUTED" not in captured.out
    assert "Traceback" not in captured.err


def test_recheck_refuses_the_removed_pipeline_mode(tmp_path, capsys):
    # A VKF_CERTIFICATE of mode "pipeline", as `certificate` once wrote it:
    # no command writes that mode any more, and recheck no longer reads it.
    doc = {
        "kind": "VKF_CERTIFICATE",
        "mode": "pipeline",
        "gamma": [1, 2],
        "delta": [3, 4],
        "d": 1,
        "piece_a": [["0", "0"], ["2", "2"]],
        "piece_b": [["0", "2"], ["2", "0"]],
        "source": {"facets": [[1, 2], [3, 4]]},
    }
    assert main(["recheck", write(tmp_path / "old.json", doc)]) == 1
    captured = capsys.readouterr()
    assert "unknown VKF certificate mode 'pipeline'" in captured.err
    assert "confirmed" not in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("position", ["at", "far"])
@pytest.mark.parametrize(
    "make, key, size_key",
    [(_vk_cert, "combination", "n_rows"), (_vk_k5_cert, "witness", "n_pairs")],
    ids=["K4-combination", "K5-witness"],
)
def test_recheck_rejects_a_bit_past_the_system(tmp_path, capsys, make, key, size_key, position):
    # A combination names matrix rows and a witness names pair columns; a
    # bit at or above their count names nothing and must not be ignored.
    doc = make(tmp_path, capsys)
    size = doc[size_key]
    doc[key] = format(int(doc[key], 16) | 1 << (size if position == "at" else 4000), "x")
    bad = write(tmp_path / "bad.json", doc)
    assert main(["recheck", bad]) == 1
    captured = capsys.readouterr()
    assert f"'{key}' has a bit at or above {size_key} = {size}" in captured.err
    assert "confirmed" not in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("rank", [999, 13, 15])
def test_recheck_refutes_a_wrong_rank(tmp_path, capsys, rank):
    doc = _vk_k5_cert(tmp_path, capsys)
    assert doc["rank"] == 14
    doc["rank"] = rank
    code, stdout = run(capsys, "recheck", write(tmp_path / "bad.json", doc))
    assert code == 5
    assert "REFUTED: stated rank disagrees" in stdout


def _flip_bit_0(key):
    return _edit(key, lambda text: format(int(text, 16) ^ 1, "x"))


def _claim(direction, face):
    """Claim ``face`` of TRIANGLE_FAMILY in ``direction``, with the bodies it names."""
    def mutate(doc):
        doc["direction"], doc["witness_face"] = direction, face
        doc["bodies"]["bodies"] = [b for b in TRIANGLE_FAMILY["bodies"] if b["label"] in face]
    return mutate


def _shrink_body_0(doc):
    doc["bodies"]["bodies"][0]["hpoly"]["b"][0] = "1/2"  # x <= 1/2 misses body 1


def _embed_the_k4_report(doc):
    doc["obstruction"] = obstruction_report(skeleton_complex(3, 1), 1)[1]


def _flip_inner_cocycle(doc):
    _flip_bit_0("cocycle")(doc["obstruction"])


# One case per REFUTED branch of `recheck`, each a minimal edit of a genuine
# certificate.  Where an edit also fails a later check, that check names
# another reason, so deleting any one guard changes a line asserted here.
REFUTATIONS = [
    (_extra_face_cert, _claim("missing_face", [0, 1]), "claimed missing face is not a face of the complex"),
    (_extra_face_cert, _claim("missing_face", [0, 2]), "claimed missing face has a common point after all"),
    (_extra_face_cert, _claim("extra_face", [0, 2]), "claimed extra face is a face of the complex"),
    (_extra_face_cert, _shrink_body_0, "claimed extra face has no common point after all"),
    (_corrupt_witness_cert, _set("point", ["1", "1/2"]), "witness point satisfies the named constraint row"),
    (_lemma_cert, _set("beta", [3]), "named pair is not remote in the nerve"),
    (_lemma_cert, _set("piece_b", [["24", "1/2"]]), "named pieces do not intersect"),
    (_demo_cert, _set("gamma", [1, 2]), "simplices share a vertex"),
    (_demo_cert, _set("gamma", [1, 3, 5]), "simplices do not have dimension d"),
    (_demo_cert, _set("gamma", [1, 6]), "pair is not a pair of complex faces"),
    (_demo_cert, _set("delta", [4, 5]), "pair [1, 3], [4, 5] does not cross under the placement"),
    (
        _demo_cert, _set("point", ["5/2", "8"]),
        "intersection point disagrees: the pair crosses at (5/2, 7)",
    ),
    (_vk_cert, _edit("n_pairs", lambda n: n + 1), "pair index size disagrees"),
    (_vk_k5_cert, _flip_bit_0("cocycle"), "recomputed cocycle disagrees"),
    (_vk_cert, _edit("n_rows", lambda n: n + 1), "coboundary row count disagrees"),
    (_vk_k5_cert, _flip_bit_0("witness"), "certificate fails against the rebuilt system"),
    (_vk_k5_cert, _edit("rank", lambda r: r - 1), "stated rank disagrees with the rebuilt system"),
    (_consistency_cert, _embed_the_k4_report, "embedded obstruction is not a nonvanishing certificate"),
    (
        _consistency_cert, _flip_inner_cocycle,
        "embedded obstruction failed: recomputed cocycle disagrees",
    ),
]


@pytest.mark.parametrize(
    "make, mutate, reason",
    REFUTATIONS,
    ids=[
        "missing-not-a-face", "missing-meets", "extra-is-a-face", "extra-empty",
        "witness-row-holds", "lemma-not-remote", "lemma-pieces-apart",
        "vkf-shared-vertex", "vkf-wrong-dimension", "vkf-not-faces", "vkf-no-crossing",
        "vkf-point", "obstruction-n-pairs", "obstruction-cocycle", "obstruction-n-rows",
        "obstruction-witness", "obstruction-rank", "consistency-vanishing",
        "consistency-inner-cocycle",
    ],
)
def test_recheck_reaches_every_refutation(tmp_path, capsys, make, mutate, reason):
    doc = make(tmp_path, capsys)
    assert recheck_certificate(doc)[0]  # the untouched certificate confirms
    mutate(doc)
    code, stdout = run(capsys, "recheck", write(tmp_path / "bad.json", doc))
    assert (code, stdout) == (5, f"REFUTED: {reason}\n")


def _nerve_of(bodies):
    """`nerve` on a one-body-list family in R^1."""
    def argv(tmp_path, capsys):
        return ["nerve", write(tmp_path / "fam.json", {"ambient": 1, "bodies": bodies})]
    return argv


def _recheck_edited(make, mutate):
    """`recheck` of a genuine certificate after ``mutate``."""
    def argv(tmp_path, capsys):
        doc = make(tmp_path, capsys)
        assert recheck_certificate(doc)[0]  # the untouched certificate confirms
        mutate(doc)
        return ["recheck", write(tmp_path / "bad.json", doc)]
    return argv


def _nerve_of_a_list(tmp_path, capsys):
    return ["nerve", write(tmp_path / "list.json", "[]")]


def _nerve_of_a_missing_file(tmp_path, capsys):
    return ["nerve", str(tmp_path / "missing.json")]


def _demo_into_a_missing_directory(tmp_path, capsys):
    return ["vkf-demo", "-d", "1", "-o", str(tmp_path / "missing" / "demo.json")]


def _corruption_without_a_colon(tmp_path, capsys):
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    return ["certificate", fam, write(tmp_path / "path.json", PATH), "-d", "1", "--corrupt-witness", "0"]


def _shared_vertex_on_a_malformed_complex(doc):
    doc["gamma"], doc["delta"], doc["complex"] = [1, 2], [2, 3], []


def _argv(*words):
    return lambda tmp_path, capsys: list(words)


def _add_body(family, i):
    def mutate(doc):
        doc["bodies"]["bodies"].append(family["bodies"][i])
    return mutate


def _drop_last_body(doc):
    doc["bodies"]["bodies"].pop()


def _old_layout(family):
    """The layout before `bodies`: the whole family, and no sha256."""
    def mutate(doc):
        del doc["bodies"], doc["family_sha256"]
        doc["family"] = family
    return mutate


# One case per refusal of a malformed document or call that no other test
# names; each exits 1 with no verdict, and its last line of stderr is its
# message in full ({tmp} is the test's directory).  In full, since `vkf-demo
# -d 0` would get a longer message from the placement without its own check.
DOCUMENT_REFUSALS = [
    (_nerve_of([{"box": {"lo": ["0"], "hi": ["1"]}}]), "body entry needs a 'label'"),
    (_nerve_of([{"label": 0, "box": {"lo": ["0"]}}]), "'box' needs 'lo' and 'hi'"),
    (_nerve_of_a_list, "top-level document must be an object"),
    (
        _nerve_of_a_missing_file,
        "cannot read {tmp}/missing.json: [Errno 2] No such file or directory: '{tmp}/missing.json'",
    ),
    (
        _recheck_edited(_vk_cert, _edit("params", lambda p: {"x": "9", **p})),
        "'params' key 'x' is not a canonical integer",
    ),
    (
        _demo_into_a_missing_directory,
        "cannot write {tmp}/missing/demo.json: [Errno 2] No such file or directory: "
        "'{tmp}/missing/demo.json'",
    ),
    (_corruption_without_a_colon, "corruption spec must look like 'v1,v2:c1,c2'"),
    (_argv("vkf-demo", "-d", "0"), "d must be at least 1"),
    (_recheck_edited(_extra_face_cert, _set("direction", "sideways")), "unknown mismatch direction 'sideways'"),
    (_recheck_edited(_corrupt_witness_cert, _set("row", 4)), "'row' 4 is out of range"),
    (_recheck_edited(_corrupt_witness_cert, _set("row", -1)), "'row' -1 is out of range"),
    (_recheck_edited(_vk_cert, _set("vanishes", "true")), "'vanishes' must be a boolean"),
    (_recheck_edited(_vk_cert, _set("d", 0)), "d must be at least 1, got 0"),
    (_recheck_edited(_demo_cert, _set("d", 0)), "d must be at least 1, got 0"),
    (
        _recheck_edited(_demo_cert, _shared_vertex_on_a_malformed_complex),
        "complex document must be an object",
    ),
    (_argv("build", "skeleton", "2", "5"), "skeleton dimension 5 exceeds simplex dimension 2"),
    (
        _recheck_edited(_extra_face_cert, _add_body(TRIANGLE_FAMILY, 2)),
        "'bodies' holds the bodies [0, 1, 2], expected those of 'witness_face' [0, 1]",
    ),
    (
        _recheck_edited(_extra_face_cert, _drop_last_body),
        "'bodies' holds the bodies [0], expected those of 'witness_face' [0, 1]",
    ),
    (
        _recheck_edited(_corrupt_witness_cert, _add_body(PATH_FAMILY, 1)),
        "'bodies' holds the bodies [0, 1], expected only that of 'body_label' 0",
    ),
    (
        _recheck_edited(_corrupt_witness_cert, _drop_last_body),
        "'bodies' holds the bodies [], expected only that of 'body_label' 0",
    ),
    (
        _recheck_edited(_extra_face_cert, _set("complex", {"facets": [[0, 2]]})),
        "'witness_face' [0, 1] names labels outside the family (the complex's vertices): [1]",
    ),
    (
        _recheck_edited(_corrupt_witness_cert, _set("labels", [1, 2, 3, 4])),
        "'face' [0] names labels outside the family",
    ),
    (
        _recheck_edited(_extra_face_cert, _set("family_sha256", "0" * 63)),
        f"'family_sha256' must be 64 lowercase hex digits, got '{'0' * 63}'",
    ),
    (
        _recheck_edited(_extra_face_cert, _set("family_sha256", "F" * 64)),
        f"'family_sha256' must be 64 lowercase hex digits, got '{'F' * 64}'",
    ),
    (
        _recheck_edited(_corrupt_witness_cert, _set("family_sha256", None)),
        "'family_sha256' must be 64 lowercase hex digits, got None",
    ),
    (
        _recheck_edited(_extra_face_cert, _old_layout(TRIANGLE_FAMILY)),
        "certificate is missing field 'bodies'",
    ),
    (
        _recheck_edited(_corrupt_witness_cert, _old_layout(PATH_FAMILY)),
        "certificate is missing field 'bodies'",
    ),
]


@pytest.mark.parametrize(
    "make, message",
    DOCUMENT_REFUSALS,
    ids=[
        "body-without-label", "box-without-hi", "top-level-list", "unreadable-path",
        "non-numeric-params-key", "unwritable-out", "corruption-spec-without-colon",
        "vkf-demo-d0", "unknown-direction", "row-past-the-end", "row-minus-1",
        "string-vanishes", "obstruction-d0", "vkf-d0",
        "vkf-malformed-complex-before-shared-vertex", "build-skeleton-too-deep",
        "mismatch-extra-body", "mismatch-missing-body", "witness-extra-body",
        "witness-no-body", "mismatch-face-outside-the-complex", "witness-face-outside-labels",
        "short-family-sha256", "uppercase-family-sha256", "null-family-sha256",
        "old-layout-mismatch", "old-layout-witness",
    ],
)
def test_a_malformed_document_or_call_exits_1(tmp_path, capsys, make, message):
    argv = make(tmp_path, capsys)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == f"error: {message.format(tmp=tmp_path)}"
    assert captured.out == ""


def test_recheck_refuses_a_certificate_that_is_not_an_object():
    # `recheck` reads only objects from a file; an in-process caller may pass anything
    with pytest.raises(ParseError, match="^certificate must be an object$"):
        recheck_certificate([])


@pytest.mark.parametrize("out_first", [True, False], ids=["out-before-kind", "out-after-kind"])
def test_build_takes_out_before_or_after_the_kind(tmp_path, capsys, out_first):
    out = ["-o", str(tmp_path / "k5.json")]
    kind = ["skeleton", "4", "1"]
    code, stdout = run(capsys, "build", *(out + kind if out_first else kind + out))
    assert (code, stdout) == (0, "skeleton(4,1): f-vector (5, 10)\n")
    assert load(tmp_path / "k5.json") == complex_to_doc(skeleton_complex(4, 1))


def test_vkf_demo_refuses_a_placement_without_a_crossing_pair(monkeypatch):
    # the total crossing parity of the demo complex is odd, so some pair
    # crosses; a placement whose every pair reads 0 breaks that invariant
    monkeypatch.setattr(Placement, "crossing_parity", lambda self, gamma, delta: 0)
    with pytest.raises(AssertionError, match="^no crossing pair found; the parity invariant is broken$"):
        main(["vkf-demo", "-d", "1"])


def test_module_entry_point_runs_vk(tmp_path, capsys):
    k4 = tmp_path / "k4.json"
    run(capsys, "build", "skeleton", "3", "1", "-o", str(k4))
    proc = run_module(tmp_path, "vk", str(k4), "-d", "1")
    assert proc.returncode == 0, proc.stderr
    assert "vanishes" in proc.stdout


HUGE_COMPLEX = {"facets": [list(range(40))]}  # 2^40 faces in its closure
PLACEMENT_REFUSAL = (1, "", "error: complex has dimension 39, placement expects dimension <= 1\n")


def _vk_huge(tmp_path, capsys) -> list[str]:
    return ["vk", write(tmp_path / "huge.json", HUGE_COMPLEX), "-d", "1"]


def _certificate_huge(tmp_path, capsys) -> list[str]:
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    return ["certificate", fam, write(tmp_path / "huge.json", HUGE_COMPLEX), "-d", "1"]


def _certificate_huge_at_d0(tmp_path, capsys) -> list[str]:
    return _certificate_huge(tmp_path, capsys)[:-1] + ["0"]


def _certificate_huge_in_the_plane(tmp_path, capsys) -> list[str]:
    return _certificate_huge(tmp_path, capsys)[:-1] + ["39"]


def _certificate_huge_at_its_dimension(tmp_path, capsys) -> list[str]:
    box = {"lo": ["0"] * 78, "hi": ["1"] * 78}
    fam = write(tmp_path / "fam.json", {"ambient": 78, "bodies": [{"label": 0, "box": box}]})
    return ["certificate", fam, write(tmp_path / "huge.json", HUGE_COMPLEX), "-d", "39"]


def _recheck_huge(make, *keys):
    """`recheck` of ``make``'s certificate with HUGE_COMPLEX at the key path ``keys``."""
    def argv(tmp_path, capsys) -> list[str]:
        doc = make(tmp_path, capsys)
        inner = doc
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = HUGE_COMPLEX
        return ["recheck", write(tmp_path / "huge.json", doc)]
    return argv


@pytest.mark.parametrize(
    "make, expected",
    [
        (_vk_huge, PLACEMENT_REFUSAL),
        (_certificate_huge, (1, "", "error: source complex has dimension 39, expected 1\n")),
        (_certificate_huge_at_d0, (1, "", "error: d must be at least 1\n")),
        (
            _certificate_huge_in_the_plane,
            (1, "", "error: family ambient is 2, expected 2d = 78\n"),
        ),
        (
            _certificate_huge_at_its_dimension,
            (1, "", f"error: family has 1 bodies, sd L has at least {2 ** 40 - 1} vertices\n"),
        ),
        (_recheck_huge(_vk_k5_cert, "complex"), PLACEMENT_REFUSAL),
        (_recheck_huge(_consistency_cert, "obstruction", "complex"), PLACEMENT_REFUSAL),
        (_recheck_huge(_demo_cert, "complex"), PLACEMENT_REFUSAL),
        (
            _recheck_huge(_extra_face_cert, "complex"),
            (5, "REFUTED: claimed extra face is a face of the complex\n", ""),
        ),
        (
            _recheck_huge(_lemma_cert, "nerve"),
            (1, "", "error: 'piece_a' point has 2 entries, expected 78\n"),
        ),
    ],
    ids=[
        "vk", "certificate", "certificate-d0", "certificate-ambient", "certificate-d39", "recheck-obstruction", "recheck-consistency", "recheck-vkf",
        "recheck-nerve-mismatch", "recheck-lemma",
    ],
)
def test_an_over_dimensional_facet_is_refused_before_its_closure(tmp_path, capsys, make, expected):
    # A complex is held by its maximal faces, so no command builds the 2^40
    # faces: those that know d refuse the facet with the message a small
    # over-dimensional complex gets, `certificate` at d = 39 refuses one body
    # for sd L's 2^40 - 1 vertices, and the two kinds that carry no d end on
    # their own checks, reading membership and dimension off the one facet.
    proc = run_module(tmp_path, *make(tmp_path, capsys), timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize(
    "d, message",
    [(0, "d must be at least 1"), (39, "family ambient is 2, expected 2d = 78")],
    ids=["d0", "ambient"],
)
def test_run_pipeline_raises_the_refusals_certificate_prints(d, message):
    F, L = family_from_doc(PATH_FAMILY), complex_from_doc(HUGE_COMPLEX)
    with pytest.raises(ParseError) as refusal:
        run_pipeline(F, L, d)
    assert str(refusal.value) == message


@pytest.mark.parametrize(
    "bodies, count",
    [
        (PATH_FAMILY["bodies"][:4], 4),
        (PATH_FAMILY["bodies"] + [{"label": 5, "box": {"lo": ["0", "0"], "hi": ["1", "1"]}}], 6),
    ],
    ids=["one-short", "one-over"],
)
def test_certificate_refuses_a_body_count_unlike_the_face_count_of_l(tmp_path, capsys, bodies, count):
    # PATH has 5 faces, so sd PATH has 5 vertices; both counts clear the
    # 2^(d+1) - 1 = 3 bound and are refused against the face count instead
    fam = write(tmp_path / "fam.json", {"ambient": 2, "bodies": bodies})
    proc = run_module(tmp_path, "certificate", fam, write(tmp_path / "path.json", PATH), "-d", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: family has {count} bodies, sd L has 5 vertices\n"
    )


PATH_EDGES = 200_000  # a path of this many edges is a 3.4 MB complex document


def _path_doc(n: int) -> dict:
    return {"facets": [[i, i + 1] for i in range(n)]}


def _lemma_on_a_long_path(tmp_path, capsys) -> list[str]:
    doc = _lemma_cert(tmp_path, capsys)
    doc["nerve"] = _path_doc(PATH_EDGES)
    return ["recheck", write(tmp_path / "long.json", doc)]


def _sd_of_a_long_path(tmp_path, capsys) -> list[str]:
    path = write(tmp_path / "long.json", _path_doc(PATH_EDGES // 4))
    return ["build", "sd", path, "-o", str(tmp_path / "sd.json")]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))


@pytest.mark.parametrize(
    "make, expected",
    [
        (_lemma_on_a_long_path, (5, "REFUTED: named pair is not remote in the nerve\n", "")),
        (_sd_of_a_long_path, (0, "sd: f-vector (100001, 100000)\n", "")),
    ],
    ids=["recheck-lemma", "build-sd"],
)
def test_many_small_facets_are_read_in_linear_memory(tmp_path, capsys, make, expected):
    # Finding the maximal faces of many small facets must cost memory in
    # proportion to the document: an index that grew with facets times
    # vertices would need gigabytes here, past the 300 MB address-space cap.
    proc = run_module(tmp_path, *make(tmp_path, capsys), timeout=60, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_build_sd_of_an_eight_label_facet_builds_no_face_set(tmp_path):
    # sd of one 8-label facet has 40,320 facets and over a million faces; the
    # f-vector is counted from the facet's, so no face set of sd is built,
    # which needed more than this 150 MB address-space cap.
    facet = write(tmp_path / "facet.json", {"facets": [list(range(8))]})
    out = tmp_path / "sd.json"
    proc = run_module(
        tmp_path, "build", "sd", facet, "-o", str(out), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (150 << 20, 150 << 20)),
    )
    line = "sd: f-vector (255, 6050, 46620, 166824, 317520, 332640, 181440, 40320)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0abf630b2fbd2440ac7ee4546e11a4fff7b534e480c9bb91d8557b482cb2d11f"
    )


def test_build_prints_the_f_vector_of_the_complex_it_writes(tmp_path, capsys):
    out = tmp_path / "out.json"
    for n in range(6):
        for k in range(n + 1):
            _, stdout = run(capsys, "build", "skeleton", str(n), str(k), "-o", str(out))
            K = complex_from_doc(load(out))
            assert stdout == f"skeleton({n},{k}): f-vector {K.f_vector()}\n"
    for i, K in enumerate(random_complexes(seed=41, count=4)):
        src = write(tmp_path / f"k{i}.json", complex_to_doc(K))
        for kind in ("sd", "sd2"):
            _, stdout = run(capsys, "build", kind, src, "-o", str(out))
            written = complex_from_doc(load(out))
            assert stdout == f"{kind}: f-vector {written.f_vector()}\n"


def _nested_arrays(tmp_path, capsys) -> list[str]:
    return ["recheck", write(tmp_path / "nested.json", "[" * 200_000)]


def _deep_base_chain(depth: int):
    """`build sd` of an edge whose document carries ``depth`` nested 'base' documents."""
    def argv(tmp_path, capsys) -> list[str]:
        # spelled out, since `json.dumps` of the chain would itself run out of depth here
        text = '{"base": ' * depth + '{"facets": [[1, 2]]}' + ', "facets": [[1, 2]]}' * depth
        path = write(tmp_path / "deep.json", text)
        return ["build", "sd", path, "-o", str(tmp_path / "out.json")]
    return argv


@pytest.mark.parametrize(
    "make, may_pass",
    [
        (_nested_arrays, False),
        (_deep_base_chain(985), True),
        (_deep_base_chain(990), True),
        (_deep_base_chain(100_000), False),
    ],
    ids=["recheck-arrays", "build-sd-985", "build-sd-990", "build-sd-100000"],
)
def test_deeply_nested_json_is_an_error_not_a_traceback(tmp_path, capsys, make, may_pass):
    # Near the interpreter's recursion limit either the reader or the writer
    # of a document runs out of depth; both report it as a bad document.
    # Whether a chain 985 or 990 deep is read depends on the interpreter;
    # 100,000 levels are past any limit.
    proc = run_module(tmp_path, *make(tmp_path, capsys), timeout=30)
    assert "Traceback" not in proc.stderr
    if may_pass and proc.returncode == 0:
        return
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "too deeply" in proc.stderr


def test_stdout_runs_are_byte_identical(tmp_path, capsys):
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    runs = [
        run(capsys, "certificate", fam, path, "-d", "1")[1] for _ in range(2)
    ]
    assert runs[0] == runs[1]
    demos = [run(capsys, "vkf-demo", "-d", "1")[1] for _ in range(2)]
    assert demos[0] == demos[1]


# `vk -d 2` at the benchmark's size, each with one fixed shuffled parameter
# order: (complex document, params, exit code, certificate sha256 as the
# combination-carrying elimination wrote it).
VK_D2_PINNED = {
    "skeleton(9,2)": (
        {"facets": [list(f) for f in combinations(range(10), 3)]},
        [9, 4, 2, 5, 8, 1, 10, 7, 3, 6],
        3,
        "84a0395c9efbe9473022ed69e358822500cd65303c044059cc08fbcb02fb1035",
    ),
    "torus6": (
        {"facets": [list(f) for f in torus(6).facets()]},
        [32, 25, 11, 6, 30, 28, 9, 24, 15, 13, 29, 23, 35, 16, 1, 20, 31, 8,
         22, 36, 14, 3, 34, 7, 17, 2, 19, 12, 33, 18, 27, 5, 4, 26, 10, 21],
        0,
        "846211696dae4141b85916a0639d50b646e4592ea2e8c9c84b677421b564f550",
    ),
}


@pytest.mark.parametrize("name", list(VK_D2_PINNED))
def test_vk_d2_certificates_are_pinned_and_recheck(tmp_path, capsys, name):
    doc, params, code, digest = VK_D2_PINNED[name]
    out = tmp_path / "vk.json"
    assert run(
        capsys, "vk", write(tmp_path / "K.json", doc), "-d", "2",
        "--params", ",".join(map(str, params)), "-o", str(out),
    )[0] == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    code, stdout = run(capsys, "recheck", str(out))
    assert code == 0 and stdout.startswith("confirmed"), stdout


# `vk -d 3` on skeleton(9,3) with the default parameters: nonvanishing with
# nullity 1575 - 1449 = 126, so the witness depends on the pivot columns
# the elimination picks.  The sha256 is the certificate as the elimination
# over rows with column j at bit j wrote it.
VK_D3_DIGEST = "c19efe1628f6cbe42d5e7bd783991d146855c1cfafc9396ea4b5665ddc126cd3"


def test_vk_d3_certificate_is_pinned_and_rechecks(tmp_path, capsys):
    out = tmp_path / "vk.json"
    K = write(tmp_path / "K.json", {"facets": [list(f) for f in combinations(range(10), 4)]})
    assert run(capsys, "vk", K, "-d", "3", "-o", str(out))[0] == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VK_D3_DIGEST
    doc = load(out)
    assert (doc["n_pairs"], doc["rank"], doc["vanishes"]) == (1575, 1449, False)
    code, stdout = run(capsys, "recheck", str(out))
    assert code == 0 and stdout.startswith("confirmed"), stdout


# `vk -d d` on Delta_{2d+2}^(d), the paper's case, with the default
# parameters: (d, rank, sha256).  Nearly every coboundary row is dependent
# (rows outnumber pairs d + 1 to 1), so these pin the certificate that the
# elimination over rows wrote where an elimination organized otherwise
# would reduce most differently.
VK_SKELETON_DIGESTS = [
    (4, 1385, "6c647fd6c52b019142e31f9d526033a9203b5837d26c1e2bf7d3b3fb561a6af4"),
    (5, 6005, "0483881097fc5ec1b852381779410a1b32205a39e0da04a35455e32d5369710f"),
]


@pytest.mark.parametrize("d, rank, digest", VK_SKELETON_DIGESTS)
def test_vk_on_the_paper_skeleton_is_pinned_and_rechecks(tmp_path, capsys, d, rank, digest):
    out = tmp_path / "vk.json"
    facets = [list(f) for f in combinations(range(2 * d + 3), d + 1)]
    K = write(tmp_path / "K.json", {"facets": facets})
    assert run(capsys, "vk", K, "-d", str(d), "-o", str(out))[0] == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    doc = load(out)
    assert (doc["rank"], doc["vanishes"]) == (rank, False)
    code, stdout = run(capsys, "recheck", str(out))
    assert code == 0 and stdout.startswith("confirmed"), stdout


# `vkf-demo`, one exact crossing solve each: (d, --params, first stdout line,
# certificate sha256 as written before `crossing` shared its hull system
# with `hulls_intersect`).
VKF_PINNED = {
    "d1": (
        1, None, "VKF_CERTIFICATE: [1, 3] and [2, 4] cross at (5/2, 7)",
        "0040d68d11c48b67b9090c6fa12b694e27c888edb0f81ff2a473e3ebe2e12360",
    ),
    "d2": (
        2, None, "VKF_CERTIFICATE: [1, 3, 5] and [2, 4, 6] cross at (7/2, 27/2, 56, 246)",
        "ab473a0a9e90dee5f072bc7e2312900738c49e83e720e3fa11768501e3f79ba0",
    ),
    "d3": (
        3, None,
        "VKF_CERTIFICATE: [1, 3, 5, 7] and [2, 4, 6, 8] cross at "
        "(9/2, 22, 459/4, 631, 3627, 21652)",
        "f15daa2d98392ddadf6da73e7ac7a2f1154eca0c01881a596baea0c8b8ba1bff",
    ),
    "d2-params": (
        2, "3,1/2,7,2,5,11/3,4",
        "VKF_CERTIFICATE: [1, 2, 5] and [3, 4, 6] cross at "
        "(877/272, 379/34, 11149/272, 5467/34)",
        "795e1c733e0f7180e917d7b5c1f71025e1af59bc37199b0abc67e21826ad0058",
    ),
}


def _vkf_by_command(tmp_path, capsys, d, params):
    out = tmp_path / "vkf.json"
    extra = [] if params is None else ["--params", params]
    code, stdout = run(capsys, "vkf-demo", "-d", str(d), *extra, "-o", str(out))
    assert code == 3
    return stdout.splitlines()[0], out.read_bytes()


def _vkf_in_process(tmp_path, capsys, d, params):
    line, doc = vkf_demo(d, None if params is None else [Fraction(t) for t in params.split(",")])
    return line, document_to_text(doc).encode()


@pytest.mark.parametrize(
    "name, make",
    [(name, _vkf_by_command) for name in VKF_PINNED]
    + [(name, _vkf_in_process) for name in VKF_PINNED],
    ids=list(VKF_PINNED) + [f"{name}-in-process" for name in VKF_PINNED],
)
def test_vkf_certificates_are_pinned_and_recheck(tmp_path, capsys, name, make):
    d, params, first_line, digest = VKF_PINNED[name]
    line, text = make(tmp_path, capsys, d, params)
    assert line == first_line
    assert hashlib.sha256(text).hexdigest() == digest
    out = tmp_path / "vkf.json"
    out.write_bytes(text)
    code, stdout = run(capsys, "recheck", str(out))
    assert code == 0 and stdout.startswith("confirmed"), stdout


@pytest.mark.parametrize("name", list(VKF_PINNED))
def test_vkf_demo_builds_no_pair_index(tmp_path, capsys, monkeypatch, name):
    # the first crossing pair is read off the faces, not off a list of every pair
    def refuse(cls, K, d):
        raise AssertionError("vkf_demo listed the disjoint pairs")

    monkeypatch.setattr(PairIndex, "build", classmethod(refuse))
    d, params, first_line, digest = VKF_PINNED[name]
    line, text = _vkf_in_process(tmp_path, capsys, d, params)
    assert line == first_line
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("d", [1, 2, 3])
def test_vkf_demo_takes_the_first_crossing_pair_the_pair_index_lists(d):
    # under any parameter order, as the search over every disjoint pair would
    rng = random.Random(d)
    K = complex_from_facets(combinations(range(1, 2 * d + 4), d + 1))
    for _ in range(40):
        params = rng.sample(range(-20, 21), 2 * d + 3)
        placement = moment_curve_placement(K, d, params)
        first = next(p for p in disjoint_simplex_pairs(K, d) if placement.crossing_parity(*p))
        _, doc = vkf_demo(d, params)
        assert (tuple(doc["gamma"]), tuple(doc["delta"])) == first


@pytest.mark.parametrize("d", range(1, 7))
def test_vkf_demo_holds_the_complex_complex_from_facets_builds(monkeypatch, d):
    # `combinations` yields the d-faces in canonical order, all of them
    # maximal, so vkf_demo holds them as they come
    placed = []
    place = certificates.moment_curve_placement
    monkeypatch.setattr(
        certificates, "moment_curve_placement", lambda K, *args: placed.append(K) or place(K, *args)
    )
    vkf_demo(d)
    assert placed == [complex_from_facets(combinations(range(1, 2 * d + 4), d + 1))]


def test_vkf_demo_refuses_d_0():
    with pytest.raises(ParseError, match="^d must be at least 1$"):
        vkf_demo(0)


@pytest.mark.parametrize("n", [3, 4], ids=["K4", "K5"])
def test_obstruction_report_writes_the_bytes_of_vk(tmp_path, capsys, n):
    K = skeleton_complex(n, 1)
    out = tmp_path / "vk.json"
    run(capsys, "vk", write(tmp_path / "K.json", complex_to_doc(K)), "-d", "1", "-o", str(out))
    cert, doc = obstruction_report(K, 1)
    assert out.read_text() == document_to_text(doc)
    assert cert.vanishes == (n == 3)


# body 0 stops short of body 2, so sd of the edge misses its face (0, 2)
GAP_FAMILY = {
    "ambient": 2,
    "bodies": [
        {"label": 0, "box": {"lo": ["0", "0"], "hi": ["1", "1"]}},
        {"label": 1, "box": {"lo": ["5", "0"], "hi": ["6", "1"]}},
        {"label": 2, "box": {"lo": ["2", "0"], "hi": ["5", "1"]}},
    ],
}

# One `certificate -d 1` document per outcome: (family, complex, extra
# arguments, exit code, first stdout line, certificate sha256).
CERTIFICATE_PINNED = {
    "clean": (
        PATH_FAMILY, PATH, [], 0,
        "OBSTRUCTION_REPORT: clean run",
        "02dd0d563b4d6a7f0bcb8ceac8de120638868c4c8d44c2bcc57db11a7d655690",
    ),
    "missing-face": (
        GAP_FAMILY, EDGE, [], 2,
        "NERVE_MISMATCH: missing_face [0, 2]",
        "bdb5abc16c016525ffada3d514c295164b35cdb8cb025e67a0a5f9d62c5edce7",
    ),
    "extra-face": (
        TRIANGLE_FAMILY, EDGE, [], 2,
        "NERVE_MISMATCH: extra_face [0, 1]",
        "8c9fcad0032a691162fd16b07ea50023662d12eaa53411a3529b145ad6fb5907",
    ),
    "witness": (
        PATH_FAMILY, PATH, ["--corrupt-witness", "0:37/2,1/2", "--corrupt-stage", "witness"], 2,
        "WITNESS_VIOLATION",
        "649c418abd65f69b6a2148b5870c32d9dba7a3adf5167c83f449878b07a22867",
    ),
    "lemma": (
        PATH_FAMILY, PATH, ["--corrupt-witness", "0:37/2,1/2"], 2,
        "LEMMA_VIOLATION",
        "a37be70b7bb4bf02ed07a636b9b3b87cf10fe34ba50a1f7d8538584c31058aa4",
    ),
}


@pytest.mark.parametrize("name", list(CERTIFICATE_PINNED))
def test_certificates_are_pinned_and_recheck(tmp_path, capsys, name):
    family, complex_doc, extra, code, first_line, digest = CERTIFICATE_PINNED[name]
    out = tmp_path / "cert.json"
    result, stdout = run(
        capsys, "certificate", write(tmp_path / "fam.json", family),
        write(tmp_path / "K.json", complex_doc), "-d", "1", *extra, "-o", str(out),
    )
    assert result == code
    assert stdout.startswith(first_line), stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    code, stdout = run(capsys, "recheck", str(out))
    assert code == 0 and stdout.startswith("confirmed"), stdout


DATA = Path(__file__).parent / "data"

# One `certificate -d 2` document per outcome on a checked-in family and its
# source complex: (data file, extra arguments, exit code, first stdout line,
# certificate sha256 as the walk wrote it while it still finished every
# face's point on the spot; the missing-face one as it is written with only
# the witness face's bodies).  The missing-face family is the benchmark's
# first mutant at seed 11; the lemma hook moves p(0) onto p(3), so the
# pieces of the remote pair carry points of the walk.
D2_PINNED = {
    "clean": (
        "pipeline_d2_seed11.json", [], 0,
        "OBSTRUCTION_REPORT: clean run",
        "740c7be4187c8d207ce2d17283955e1717ddcb0a7f978dac750124b325ca2a53",
    ),
    "missing-face": (
        "missing_face_d2_seed11.json", [], 2,
        "NERVE_MISMATCH: missing_face [0, 6, 12]",
        "faa91361b05f918148d041f96a3cb6db50fe511e2eb0e569f00dc9d5a5fe83f9",
    ),
    "lemma": (
        "pipeline_d2_seed11.json", ["--corrupt-witness", "0:22159/364,-75/364,1/2,1/2"], 2,
        "LEMMA_VIOLATION: remote pair [0], [3]",
        "51a4b191411da6b4b4d9f2839ba93a31d2634e5ecfa8df1dd7e8d7485785c50d",
    ),
}


@pytest.mark.parametrize("name", list(D2_PINNED))
def test_d2_certificates_are_pinned_and_recheck(tmp_path, capsys, name):
    data, extra, code, first_line, digest = D2_PINNED[name]
    doc = json.loads((DATA / data).read_text())
    out = tmp_path / "cert.json"
    result, stdout = run(
        capsys, "certificate", write(tmp_path / "fam.json", doc["family"]),
        write(tmp_path / "K.json", {"facets": doc["facets"]}), "-d", "2", *extra,
        "-o", str(out),
    )
    assert result == code
    assert stdout.startswith(first_line), stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    code, stdout = run(capsys, "recheck", str(out))
    assert code == 0 and stdout.startswith("confirmed"), stdout


def _double_first_row(body):
    hp = body["hpoly"]
    hp["A"][0] = [format_rational(2 * parse_rational(v)) for v in hp["A"][0]]
    hp["b"][0] = format_rational(2 * parse_rational(hp["b"][0]))


def test_a_mismatch_certificate_names_its_family_file_by_sha256(tmp_path, capsys):
    # The certificate embeds only the witness face's bodies; `family_sha256`
    # is the sha256 of the family file when that file is written canonically.
    doc = json.loads((DATA / "missing_face_d2_seed11.json").read_text())
    family = doc["family"]
    assert document_to_text(family_to_doc(family_from_doc(family))) == document_to_text(family)
    complex_path = write(tmp_path / "K.json", {"facets": doc["facets"]})

    def certify(name):
        fam = tmp_path / f"{name}.json"
        out = tmp_path / f"{name}.cert.json"
        write(fam, family)
        code, stdout = run(capsys, "certificate", str(fam), complex_path, "-d", "2", "-o", str(out))
        assert code == 2
        cert = load(out)
        assert cert["family_sha256"] == hashlib.sha256(fam.read_bytes()).hexdigest()
        return stdout, cert

    line, cert = certify("fam")
    face = cert["witness_face"]
    assert [body["label"] for body in cert["bodies"]["bodies"]] == face == [0, 6, 12]
    # a body outside the face, respelled as the same set: only the hash moves
    _double_first_row(next(b for b in family["bodies"] if b["label"] not in face))
    edited_line, edited = certify("edited")
    assert edited_line == line
    assert edited.pop("family_sha256") != cert.pop("family_sha256")
    assert edited == cert


@pytest.mark.parametrize("data", ["pipeline_d2_seed11.json", "missing_face_d2_seed11.json"])
def test_a_corruption_face_outside_the_subdivision_exits_1(tmp_path, capsys, data):
    # The face is checked before the nerve walk, so a family whose nerve
    # mismatches gives the same exit as a clean one, and no certificate.
    doc = json.loads((DATA / data).read_text())
    out = tmp_path / "cert.json"
    code = main([
        "certificate", write(tmp_path / "fam.json", doc["family"]),
        write(tmp_path / "K.json", {"facets": doc["facets"]}), "-d", "2",
        "--corrupt-witness", "0,999:0,0,0,0", "-o", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "corruption face (0, 999) is not a face of the subdivision" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("spelling", ["+0", "٠", " 0", "0_0", "00"])
def test_a_corruption_face_label_in_another_spelling_exits_1(tmp_path, capsys, spelling):
    # int() reads each of these as 0, and "0,3" does corrupt p([0, 3])
    fam, path = write(tmp_path / "fam.json", PATH_FAMILY), write(tmp_path / "path.json", PATH)
    out = tmp_path / "cert.json"

    def corrupt(label):
        argv = ["certificate", fam, path, "-d", "1", "--corrupt-witness"]
        return main([*argv, f"{label},3:-1000,-1000", "--corrupt-stage", "witness", "-o", str(out)])

    assert corrupt("0") == 2
    out.unlink()
    capsys.readouterr()
    assert corrupt(spelling) == 1
    captured = capsys.readouterr()
    assert f"corruption face label {spelling!r} is not a canonical integer" in captured.err
    assert captured.out == "" and not out.exists()
