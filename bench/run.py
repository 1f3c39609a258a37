"""nervecert benchmark: seeded certificate workloads through the public CLI.

    python3 bench/run.py --workload pipeline_d1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process, no threads: a closed loop with one caller that runs
the workload's jobs back to back through `nervecert.cli.main([...])`, each
followed by rechecks of the certificate it emitted.  One pass over the jobs
is a batch; batches repeat until the next one would overrun --seconds, and
each time metric is the median over the run's batches.  Every verdict is
judged against what the generator states; a mismatch is a failure and is
never retried.

--trace 0 prints the end-to-end metrics, in seconds at the reference speed
of bench/speed.py, which samples the machine's speed all through the run.
--trace 1 runs one untraced batch first, then traced batches
(bench/layertrace.py), and prints the per-layer metrics of one batch, in
plain wall seconds.  The last line of standard output is the JSON result;
bench/README.md defines every metric.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # every run compiles the package from source
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import SpeedProbe, WallClock  # noqa: E402

PACKAGE = "nervecert"
# Set-up repeats at least this often and for at least this long; a set-up
# of 50 ms is otherwise as noisy as the rechecks below.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# Rechecks of small certificates take milliseconds, and on a shared 2-vCPU
# KVM guest (Xeon) speed swings by up to half within a second.  Repeating
# each for this long makes their mean cover several probe samples, not one
# reading.
RECHECK_S = 1.0
END_TO_END = [
    ("verdict_s", "s"),
    ("recheck_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _import_package(root: Path):
    """Import nervecert afresh from ``root/src``; refuse any other copy."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import nervecert.cli  # noqa: F401  (imports every layer)

    where = Path(sys.modules[PACKAGE].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"{PACKAGE} imported from {where}, not from {src}")
    return sys.modules[PACKAGE + ".cli"]


def _call(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def judge(job: workloads.Job, code: int, cert: str) -> str | None:
    """None when the call gave exactly the stated verdict, else what differs."""
    want = job.expect
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    try:
        doc = json.loads(Path(cert).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"no certificate: {exc}"
    if doc.get("kind") != want["kind"]:
        return f"kind {doc.get('kind')}, expected {want['kind']}"
    for key, value in want["fields"].items():
        if doc.get(key) != value:
            return f"{key} = {doc.get(key)!r}, expected {value!r}"
    return None


class Batches:
    """Runs batches of one workload; keeps failures and certificate digests."""

    def __init__(self, cli, prepared, probe=None) -> None:
        self.cli = cli
        self.prepared = prepared
        self.probe = probe or WallClock()
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.cert_bytes = 0

    def _fail(self, job: workloads.Job, what: str) -> None:
        self.failures.append(f"{job.name}: {what}")

    def batch(self, recheck_s: float = RECHECK_S) -> tuple[float, float, float]:
        """Every job once, each followed by rechecks of its certificate.

        A certificate is rechecked until the rechecks have taken
        ``recheck_s`` seconds (at least once), so that each job's rechecks
        span several probe samples.  Returns the verdict pass's seconds and
        the sum over jobs of the mean recheck, both at reference speed, and
        the verdict pass's net wall seconds.  Each job's verdict and its
        rechecks are scaled by the probe samples taken during them.  Means,
        not medians, match the probe's factor, which is a mean over wall
        time.
        """
        probe, clock = self.probe, self.probe.clock
        probe.reset()
        hashes = hashlib.sha256()
        size = 0
        verdict = recheck = wall = 0.0
        for k, (job, argv, cert) in enumerate(self.prepared):
            if os.path.exists(cert):
                os.remove(cert)
            self.attempted += 1
            probe.phase = ("verdict", k)
            start = clock()
            try:
                code, _ = _call(self.cli, argv)
            except Exception as exc:  # a traceback is a failed job, not a crash
                code = None
                self._fail(job, f"raised {exc!r}")
            spent = clock() - start
            probe.phase = "idle"
            wall += spent
            verdict += spent * probe.factor(("verdict", k))
            if code is not None:
                problem = judge(job, code, cert)
                if problem:
                    self._fail(job, problem)
            if not os.path.exists(cert):
                continue
            data = Path(cert).read_bytes()
            hashes.update(job.name.encode() + b"\0" + hashlib.sha256(data).digest())
            size += len(data)
            samples: list[float] = []
            probe.phase = ("recheck", k)
            while not samples or sum(samples) < recheck_s:
                self.attempted += 1
                start = clock()
                try:
                    code, text = _call(self.cli, ["recheck", cert])
                except Exception as exc:
                    code, text = None, f"raised {exc!r}"
                samples.append(clock() - start)
                if code != 0 or not text.startswith("confirmed"):
                    self._fail(job, f"recheck exit {code}: {text.strip()}")
                    break
            probe.phase = "idle"
            recheck += sum(samples) / len(samples) * probe.factor(("recheck", k))
        self.digests.add(hashes.hexdigest())
        self.cert_bytes = size
        return verdict, recheck, wall


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return f"cpu={cpu!r} nproc={os.cpu_count()} python={platform.python_version()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Untraced runs report seconds at reference speed (bench/speed.py);
    # traced runs report plain wall seconds.
    probe = WallClock() if args.trace else SpeedProbe()
    try:
        with probe:
            # Set-up is import, generation and writing the documents; it runs
            # several times and reports the median.  The first time counts from
            # the top of this file, so it includes the standard-library imports.
            setup = []
            probe.phase = "setup"
            start = PROCESS_START
            while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
                try:
                    cli = _import_package(root)
                except ImportError as exc:
                    print(f"error: cannot import {PACKAGE} from {root / 'src'}: {exc}",
                          file=sys.stderr)
                    return 2
                jobs = workloads.WORKLOADS[args.workload](args.seed)
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                prepared = workloads.write_jobs(jobs, work)
                setup.append(probe.clock() - start)
                # The replaced modules sit in reference cycles; free them so that
                # the number of set-ups does not show in peak_rss_mb.
                gc.collect()
                start = probe.clock()
            probe.phase = "idle"
            setup = [s * probe.factor("setup") for s in setup]
            return measure(args, cli, prepared, setup, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()


def measure(args, cli, prepared, setup: list[float], probe) -> int:
    runner = Batches(cli, prepared, probe)
    verdicts: list[float] = []
    rechecks: list[float] = []
    walls: list[float] = []
    layer_samples: list[dict] = []
    untraced: list[float] = []
    clock = time.perf_counter()

    def fits() -> bool:
        spent = time.perf_counter() - clock
        done = len(verdicts) + len(untraced)
        return spent + spent / done <= args.seconds

    if args.trace:
        from layertrace import LayerTrace

        untraced.append(runner.batch(recheck_s=0)[0])
        with LayerTrace() as tracer:
            while not layer_samples or fits():
                tracer.reset()
                verdict, _, _ = runner.batch(recheck_s=0)  # same calls in every batch
                verdicts.append(verdict)
                sample = tracer.metrics()
                sample["certificates.cert_bytes"] = runner.cert_bytes
                layer_samples.append(sample)
    else:
        while not verdicts or fits():
            verdict, recheck, wall = runner.batch()
            verdicts.append(verdict)
            rechecks.append(recheck)
            walls.append(wall)

    failed = len(runner.failures)
    consistent = len(runner.digests) == 1
    print(f"machine: {machine()}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} batches={len(verdicts)} jobs/batch={len(prepared)} "
          "loop=closed, 1 caller, no threads")
    for problem in runner.failures[:20]:
        print(f"FAILED {problem}")
    print(f"certificates: sha256 {'identical' if consistent else 'DIFFER'} across "
          f"{len(verdicts) + len(untraced)} batches: {sorted(runner.digests)[0]}")

    if args.trace:
        metrics, unsteady = trace_metrics(layer_samples, verdicts, untraced)
        failed += len(unsteady)
    else:
        stats = {"verdict_s": summary(verdicts), "recheck_s": summary(rechecks),
                 "setup_s": summary(setup)}
        print(f"speed: {probe.ticks} probe samples; verdict_s median "
              f"{statistics.median(walls):.6f} s of net wall time")
        for name, s in stats.items():
            print(f"{name}: median {s['median']:.6f} s at reference speed (q1 {s['q1']:.6f}, "
                  f"q3 {s['q3']:.6f}, n={s['n']})")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"peak_rss_mb: {peak:.3f} MB")
        values = {name: s["median"] for name, s in stats.items()} | {"peak_rss_mb": peak}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"fail_share: {failed}/{runner.attempted} = {failed / runner.attempted:.4f}")
    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(samples: list[dict], traced: list[float], untraced: list[float]):
    """Per-layer metrics of one batch, and the counts that did not repeat.

    Counts come from the first traced batch and must be equal in every other
    one; times are medians over the traced batches.
    """
    from layertrace import METRICS

    units = dict(METRICS) | {"certificates.cert_bytes": "bytes", "trace.overhead_s": "s"}
    out = {}
    unsteady = []
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif unit == "s":
            value = statistics.median(s[name] for s in samples)
        else:
            value = samples[0][name]
            if any(s[name] != value for s in samples):
                unsteady.append(name)
                print(f"FAILED {name} differs between identical batches")
        out[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6f} {unit}" if unit == "s" else f"{name}: {value} {unit}")
    return out, unsteady


if __name__ == "__main__":
    sys.exit(main())
