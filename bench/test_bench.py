"""Checks of the benchmark itself: generator, judge, trace and exit paths.

Run with `python3 -m pytest bench` from the repository root.  The traced
checks run one batch of every workload, so this takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layertrace
import run
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 31)


def _inputs(jobs):
    return [(j.argv, j.docs) for j in jobs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_valid_and_deterministic_across_seeds(name):
    # Each family generator raises if the planar oracle disagrees with sd L.
    generate = workloads.WORKLOADS[name]
    for seed in SEEDS:
        assert generate(seed)
    assert _inputs(generate(1)) == _inputs(generate(1))
    assert _inputs(generate(1)) != _inputs(generate(2))


def test_mutants_state_the_targeted_faces():
    for seed in SEEDS:
        by_name = {j.name: j.expect["fields"] for j in workloads.mutants(seed)}
        for k in range(workloads.MISSING_FACE_FAMILIES):
            assert by_name[f"missing_face_d2_{k}"] == {"direction": "missing_face",
                                                      "witness_face": [0, 6, 12]}
        for k in range(workloads.D1_MUTANT_ROUNDS):
            assert by_name[f"extra_face_d1_{k}"] == {"direction": "extra_face",
                                                    "witness_face": [0, 1]}


def test_planar_oracle_sees_missing_and_extra_faces():
    square = workloads.hull_rows([(0, 0), (2, 0), (2, 2), (0, 2)])
    far = workloads.hull_rows([(5, 5), (6, 5), (6, 6)])
    touching = workloads.hull_rows([(2, 2), (3, 3)])
    assert workloads.planar_nerve([square, far]) == {(0,), (1,)}
    assert (0, 1) in workloads.planar_nerve([square, touching])


def _prepare(name: str, seed: int, tmp_path: Path):
    cli = run._import_package(ROOT)
    return cli, workloads.write_jobs(workloads.WORKLOADS[name](seed), tmp_path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d1_trees_and_mutants_give_the_stated_verdicts(seed, tmp_path):
    cli, prepared = _prepare("mutants", seed, tmp_path)
    trees = [p for p in workloads.write_jobs(workloads.pipeline_d1(seed), tmp_path)
             if p[0].name.startswith("tree")]
    runner = run.Batches(cli, [p for p in prepared if "_d1_" in p[0].name] + trees)
    runner.batch(recheck_s=0)
    assert runner.failures == []


def test_judge_reports_every_kind_of_mismatch(tmp_path):
    job = workloads.Job("j", [], {}, {"exit": 2, "kind": "LEMMA_VIOLATION",
                                      "fields": {"alpha": [0], "beta": [13]}})
    cert = tmp_path / "cert.json"
    assert "exit 0" in run.judge(job, 0, str(cert))
    assert "no certificate" in run.judge(job, 2, str(cert))
    cert.write_text(json.dumps({"kind": "NERVE_MISMATCH"}))
    assert "kind" in run.judge(job, 2, str(cert))
    cert.write_text(json.dumps({"kind": "LEMMA_VIOLATION", "alpha": [0], "beta": [12]}))
    assert "beta" in run.judge(job, 2, str(cert))
    cert.write_text(json.dumps({"kind": "LEMMA_VIOLATION", "alpha": [0], "beta": [13]}))
    assert run.judge(job, 2, str(cert)) is None


def test_trace_wraps_every_binding_and_restores_them(tmp_path):
    cli, _ = _prepare("vk_d2", 1, tmp_path)
    convex = sys.modules["nervecert.convex"]
    witness = sys.modules["nervecert.witness"]
    nerve = sys.modules["nervecert.nerve"]
    certificates = sys.modules["nervecert.certificates"]
    before = (convex.solve_lp, witness.hulls_intersect, cli.hulls_intersect,
              certificates.hulls_intersect, nerve.nerve_matches.__defaults__)
    with layertrace.LayerTrace():
        assert convex.solve_lp.__wrapped__ is before[0]
        for module in (witness, cli, certificates):
            assert module.hulls_intersect.__wrapped__ is before[1]
        engine = nerve.nerve_matches.__wrapped__.__defaults__[0]
        assert engine is nerve.nerve_helly and engine.__wrapped__ is not None
    after = (convex.solve_lp, witness.hulls_intersect, cli.hulls_intersect,
             certificates.hulls_intersect, nerve.nerve_matches.__defaults__)
    assert after == before


def test_speed_probe_samples_during_a_phase_and_leaves_out_its_own_time():
    with speed.SpeedProbe() as probe:
        probe.phase = "busy"
        net, wall = probe.clock(), time.perf_counter()
        while time.perf_counter() - wall < 1.0:
            sum(range(1000))
        net, wall = probe.clock() - net, time.perf_counter() - wall
        probe.phase = "idle"
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    samples = probe.samples["busy"]
    assert len(samples) >= 3
    assert wall - net >= sum(samples) > 0
    assert probe.factor("busy") == speed.REFERENCE_S * len(samples) / sum(samples)
    every = [s for phase in probe.samples.values() for s in phase]
    assert probe.factor("never") == speed.REFERENCE_S * len(every) / sum(every)
    assert speed.reference_loop() == speed.reference_loop()


# The layer each workload must reach, as in the README's layer map.
DESIGNATED = {
    "pipeline_d1": ["linprog.solve_lp", "convex.hulls_intersect", "nerve.nerve_helly",
                    "witness.verify_remote_disjointness", "complexes.is_remote"],
    "pipeline_d2": ["linprog.solve_lp", "convex.inscribed_ball", "convex.hulls_intersect",
                    "witness.witness_points", "complexes.barycentric_subdivision"],
    "mutants": ["linprog.solve_lp", "convex.polytope_is_empty", "nerve.nerve_matches",
                "certificates.recheck_certificate", "fileio.load_document"],
    "vk_d2": ["linprog.gauss_solve", "convex.crossing", "obstruction.gf2_solve",
              "certificates.recheck_certificate", "fileio.load_document"],
}


@pytest.mark.parametrize("name", sorted(DESIGNATED))
def test_every_layer_has_calls_on_its_workload(name, tmp_path):
    cli, prepared = _prepare(name, 1, tmp_path)
    runner = run.Batches(cli, prepared)
    runner.batch(recheck_s=0)
    with layertrace.LayerTrace() as tracer:
        runner.batch(recheck_s=0)
        first = tracer.metrics()
        calls = dict(tracer.calls)
        if name == "mutants":  # the cheapest workload checks that counts repeat
            tracer.reset()
            runner.batch(recheck_s=0)
            second = tracer.metrics()
            assert {k: v for k, v in first.items() if not k.endswith("s")} == \
                   {k: v for k, v in second.items() if not k.endswith("s")}
    assert runner.failures == []
    assert len(runner.digests) == 1, "traced and untraced certificates differ"
    for span in DESIGNATED[name]:
        assert calls.get(span, 0) > 0, f"{span} has no calls on {name}"
    if name == "vk_d2":
        assert first["linprog.solve_lp.calls"] == 0
        assert first["obstruction.rank"] == (1449 + 2124) * workloads.VK_ORDERS
    if name == "pipeline_d1":
        assert first["nerve.nerve_matches.calls"] == 2 * len(prepared)
    if name == "pipeline_d2":
        assert first["cli.vkf.hull_tests"] == 36 * 36
        assert first["convex.inscribed_ball.calls"] == 50


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mutants", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
