"""Command surface: exit codes, documents, recheck, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import nervecert
from nervecert.certificates import consistency_failure_cert, recheck_certificate
from nervecert.cli import main
from nervecert.fileio import complex_to_doc, document_to_text, family_from_doc
from nervecert.nerve import nerve_exhaustive
from test_gf2 import torus


def write(path, doc) -> str:
    path.write_text(document_to_text(doc) if isinstance(doc, dict) else doc)
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def load(path) -> dict:
    return json.loads(path.read_text())


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
    ],
    ids=[
        "missing-family", "removed-mode", "non-integer-d", "bad-choice", "no-command",
        "unknown-command",
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
    code, _ = run(capsys, "vk", str(k4), "-d", "1", "--params", "1,2,2,4")
    assert code == 4


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
    "stage, code", [(None, 0), ("witness", 2)], ids=["clean", "witness-stage"]
)
def test_certificate_audits_membership_once(tmp_path, capsys, monkeypatch, stage, code):
    import nervecert.cli
    import nervecert.witness

    real = nervecert.witness.verify_witness_membership
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (nervecert.witness, nervecert.cli):
        monkeypatch.setattr(module, "verify_witness_membership", counted)
    fam = write(tmp_path / "fam.json", PATH_FAMILY)
    path = write(tmp_path / "path.json", PATH)
    extra = ["--corrupt-witness", "0:37/2,1/2", "--corrupt-stage", stage] if stage else []
    assert run(capsys, "certificate", fam, path, "-d", "1", *extra)[0] == code
    assert len(calls) == 1


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
    for module in (nervecert.witness, nervecert.cli):
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
    return consistency_failure_cert(_vk_k5_cert(tmp_path, capsys), "planted")


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
    doc["family"]["bodies"][0]["hpoly"]["A"] = [5]


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
    assert f"'point' has {len(point)} coordinates, ambient is 2" in captured.err
    assert "confirmed" not in captured.out
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
    "family, facets, direction, face, labels",
    [
        # bodies 0 and 1 meet, and the complex shares no label with the family
        (
            {"ambient": 2, "bodies": TRIANGLE_FAMILY["bodies"][:2]},
            [[100], [101]],
            "extra_face",
            [0, 1],
            "[0, 1] != complex vertices [100, 101]",
        ),
        # bodies 0 and 1 are disjoint, and the complex lacks labels 2, 3 and 4
        (
            PATH_FAMILY,
            [[0, 1]],
            "missing_face",
            [0, 1],
            "[0, 1, 2, 3, 4] != complex vertices [0, 1]",
        ),
    ],
    ids=["extra-face", "missing-face"],
)
def test_recheck_of_a_nerve_mismatch_checks_labels(
    tmp_path, capsys, family, facets, direction, face, labels
):
    # `certificate` refuses a family whose labels are not the complex's vertices
    doc = {
        "kind": "NERVE_MISMATCH",
        "direction": direction,
        "witness_face": face,
        "family": family,
        "complex": {"facets": facets},
    }
    bad = write(tmp_path / "bad.json", doc)
    assert main(["recheck", bad]) == 1
    captured = capsys.readouterr()
    assert f"family labels {labels}" in captured.err
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
        "family": TRIANGLE_FAMILY,
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
    assert f"'point' has {len(point)} coordinates, ambient is 2d = 2" in captured.err
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


def test_module_entry_point_runs_vk(tmp_path, capsys):
    k4 = tmp_path / "k4.json"
    run(capsys, "build", "skeleton", "3", "1", "-o", str(k4))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(nervecert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "nervecert", "vk", str(k4), "-d", "1"],
        capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir},
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert b"vanishes" in proc.stdout


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
        "4c1a31a51ea60e25d5a619f2228740a409114e199d8a28e49b743e89e6362c44",
    ),
    "extra-face": (
        TRIANGLE_FAMILY, EDGE, [], 2,
        "NERVE_MISMATCH: extra_face [0, 1]",
        "882ab3c8efa6a2325a9ce6b23343a8132e5ee64a965412d1257cf144709549a6",
    ),
    "witness": (
        PATH_FAMILY, PATH, ["--corrupt-witness", "0:37/2,1/2", "--corrupt-stage", "witness"], 2,
        "WITNESS_VIOLATION",
        "c1e4abebe99851c35c17046265fc72f3ee2de2ece6c10511f1b997b44fb68265",
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
# face's point on the spot).  The missing-face family is the benchmark's
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
        "3dd56efd5e33e9dcce1ad55bf43b3b96c4a1d493f68c79a2e75e44514579e81b",
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
