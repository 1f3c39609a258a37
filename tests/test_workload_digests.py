"""The benchmark's workloads still write the same certificate bytes.

`bench/run.py` prints one digest per workload: a sha256 over each job's
name, a NUL byte and the sha256 of its certificate, in job order.  This
test loads `bench/workloads.py` by path, runs the jobs of seeds 11 and 12
once each through the CLI and compares that digest with the one recorded in
`BENCH_25.json` (`mutants` in `BENCH_36.json`, whose mismatch certificates
carry only their witness bodies), so a change to the certificate bytes of
any workload shows in the tier-1 suite.  A certificate's `family_sha256`
must be the sha256 of the family file its job read.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

import pytest

from nervecert.cli import main

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# (workload, seed) -> digest, as recorded in BENCH_25.json (mutants: BENCH_36.json)
DIGESTS = {
    ("mutants", 11): "b0c968e4e371268fddd0bd7c356fb96da9643d6310cf0ab60e1d4c5c7663eec6",
    ("pipeline_d1", 11): "1a7c5cff65e212498213c6a2f7e19ef0cfe1e61478f8b75fecb58d98db0e938b",
    ("pipeline_d2", 11): "07264b6f8c125e12b784d7b940c9b777ecf74b9c012c53af857cd60a67f93891",
    ("vk_d2", 11): "162090e7d2d77869c078386c631a0dec40720b5b01b26233ba60f5fd8f1dcfb6",
    ("mutants", 12): "1e9145e9a62940d7845cd5e106869276b9978376576de3165e6f404a9554d69b",
    ("pipeline_d1", 12): "e66cd4210ed4c2ca15e98d1b217096982f95bb4b6fde971544201ea31f8cf1df",
    ("pipeline_d2", 12): "07264b6f8c125e12b784d7b940c9b777ecf74b9c012c53af857cd60a67f93891",
    ("vk_d2", 12): "d17e72bd0ec7689e888d1242be3e6504329d2def7fa7da76f31e230776b2aec9",
}


def _load_workloads():
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH_DIR, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize(
    "workload, seed", list(DIGESTS),
    ids=[w if s == 11 else f"{w}@{s}" for w, s in DIGESTS],  # seed 11, where the bench is measured, unmarked
)
def test_workload_certificates_match_the_recorded_digest(tmp_path, workload, seed):
    workloads = _load_workloads()
    hashes = hashlib.sha256()
    for job, argv, cert in workloads.write_jobs(workloads.WORKLOADS[workload](seed), tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == job.expect["exit"], job.name
        with open(cert, "rb") as fh:
            data = fh.read()
        hashes.update(job.name.encode() + b"\0" + hashlib.sha256(data).digest())
        sha = json.loads(data).get("family_sha256")
        if sha is not None:  # the bench writes each family as the package does
            with open(argv[1], "rb") as fh:
                assert sha == hashlib.sha256(fh.read()).hexdigest(), job.name
    assert hashes.hexdigest() == DIGESTS[workload, seed]
