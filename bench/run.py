#!/usr/bin/env python3
"""pcurv benchmark: run one workload through the public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above ``bench/``, and the
program is imported from its ``src/``.  One process, one thread, closed
loop: jobs run one at a time, each a CLI-equivalent call
(``cli.run_scenario`` + ``Report.to_json``, or ``cli.identity_suite``).
A pass runs the workload's fixed job list once; passes repeat while the
next one fits in ``--seconds``.  Set-up (importing pcurv and writing the
inputs) is timed before the first job and again after each untraced pass.
Every job's output goes through the correctness gate in ``inputs.check``;
a failure, an exception or a timeout is counted, never fatal.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on traced ones, and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; the lines above it give every metric
by name with its unit.  A record of the run (and, traced, its spans) is
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5     # before the first job, and again after each untraced pass
JOB_CAP_S = 60        # per-job wall-clock cap; the slowest job takes about 9 s
HARD_LIMIT_S = 150    # no job starts after this, so the run ends within 180 s

clock = tracing.clock


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("wall-clock cap reached")


# -- set-up -----------------------------------------------------------------------


def import_pcurv():
    """A fresh import of the package from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "pcurv" or m.startswith("pcurv.")]:
        del sys.modules[name]
    cli = importlib.import_module("pcurv.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pcurv was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, work: Path, times: list):
    """Import pcurv and write the inputs, ``SETUP_REPEATS`` times, appending
    each time to ``times``; the last import and job list are the ones used.
    Returns (cli, jobs)."""
    for _ in range(SETUP_REPEATS):
        # Free the modules of the previous import first, so that neither this
        # time nor the run's peak memory depends on the benchmark's own garbage.
        gc.collect()
        start = clock()
        cli = import_pcurv()
        jobs = inputs.prepare(workload, seed, ROOT, work)
        times.append(clock() - start)
    return cli, jobs


# -- the closed loop ----------------------------------------------------------------


def execute(cli, job: inputs.Job):
    """One CLI-equivalent call: (report, exit code, report JSON)."""
    if job.command == "identities":
        report = cli.identity_suite(
            job.p, job.n, seed=job.seed,
            trials=inputs.IDENTITY_TRIALS, degree=inputs.IDENTITY_DEGREE,
        )
        code = cli.EXIT_OK if report.passed else cli.EXIT_MATH_FAILURE
    else:
        report, code = cli.run_scenario(job.path, job.command)
    return report, code, report.to_json()


class Runner:
    """Runs passes over a job list and keeps every job's times, its first
    report (later ones must match it byte for byte) and every failure."""

    def __init__(self, cli, jobs, deadline: float, cap: int = JOB_CAP_S):
        self.cli, self.jobs, self.deadline, self.cap = cli, jobs, deadline, cap
        self.times = {job.name: [] for job in jobs}
        self.reports: dict[str, str] = {}
        self.attempted = 0
        self.failures: list = []    # (job name, reason)
        self.tracer: tracing.Tracer | None = None

    def run_job(self, job: inputs.Job):
        self.attempted += 1
        remaining = int(self.deadline - clock())
        if remaining < 1:
            self.failures.append((job.name, "not started: run deadline reached"))
            return
        if self.tracer is not None:
            self.tracer.job = job.name
        cap = min(self.cap, remaining)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(cap)
        start = clock()
        try:
            report, code, text = execute(self.cli, job)
            reason = inputs.check(job, report, code, text)
        except JobTimeout:
            reason = f"timeout after {cap} s"
        except Exception as err:  # counted against the job, never fatal
            reason = f"{type(err).__name__}: {str(err)[:200]}"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        self.times[job.name].append(clock() - start)
        if reason is None and self.reports.setdefault(job.name, text) != text:
            reason = "report differs from an earlier pass"
        if reason is not None:
            self.failures.append((job.name, reason))

    def run_pass(self) -> float:
        start = clock()
        for job in self.jobs:
            self.run_job(job)
        return clock() - start

    def run_passes(self, budget: float, on_pass=None) -> list:
        """Passes while the next one fits in ``budget`` seconds (at least one)."""
        durations = []
        start = clock()
        while True:
            durations.append(self.run_pass())
            if on_pass is not None:
                on_pass()
            expected = statistics.median(durations)
            now = clock()
            if now - start + expected > budget or now + expected > self.deadline:
                return durations


# -- metrics ---------------------------------------------------------------------------


def end_to_end(setup_times, pass_times, job_times, runner) -> dict:
    per_job = [statistics.median(t) for t in job_times.values() if t]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_max_s": (max(per_job), "s"),
        "failed_frac": (len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_passes(runner: Runner, budget: float):
    """Traced passes with the tracer installed, then removed.  Returns
    (pass times, per-pass layer metrics, spans, restored?)."""
    tracer = tracing.Tracer()
    before = tracing.snapshot()
    per_pass = []

    def collect():
        per_pass.append(tracing.layer_metrics(tracer.stats))
        tracer.reset()

    runner.tracer = tracer
    tracer.install()
    try:
        durations = runner.run_passes(budget, on_pass=collect)
    finally:
        tracer.uninstall()
        runner.tracer = None
    return durations, per_pass, tracer.spans, tracing.snapshot() == before


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- entry point -------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = clock()
    if not (SRC / "pcurv" / "__init__.py").is_file():
        print(f"error: no pcurv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        try:
            cli, jobs = setup(args.workload, args.seed, work, setup_times)
        except (ImportError, OSError) as err:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            return 2
        runner = Runner(cli, jobs, deadline=started + HARD_LIMIT_S)

        def set_up_again():
            # Set-up samples taken at one moment all share that moment's
            # machine load; spreading them over the run steadies their median.
            # The next pass runs on the fresh import, as a new CLI process would.
            runner.cli, runner.jobs = setup(args.workload, args.seed, work, setup_times)

        layers, spans, per_pass, restored = {}, [], [], True
        if args.trace:
            pass_times = runner.run_passes(args.seconds / 2, on_pass=set_up_again)
            job_times = {name: list(t) for name, t in runner.times.items()}
            traced, per_pass, spans, restored = traced_passes(runner, args.seconds / 2)
            layers = {
                name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
            }
            layers["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(pass_times) - 1
            )
        else:
            pass_times = runner.run_passes(args.seconds, on_pass=set_up_again)
            job_times = runner.times
        e2e = end_to_end(setup_times, pass_times, job_times, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not restored:
        print("FAILED tracer: uninstall left pcurv attributes patched")
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "seconds": args.seconds,
        "jobs_per_pass": len(jobs), "passes": len(pass_times),
        "traced_passes": len(per_pass),
    }
    if args.trace:
        reported = {name: (value, tracing.LAYER_UNITS[name]) for name, value in layers.items()}
    else:
        reported = {k: v for k, v in e2e.items() if k != "failed_frac"}

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**e2e, **(reported if args.trace else {})}.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'failed':<40} {len(runner.failures)} of {runner.attempted} jobs")
    for name, reason in runner.failures:
        print(f"FAILED {name}: {reason}")

    record = {
        **env,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "per_layer": layers,
        "job_median_s": {n: statistics.median(t) for n, t in job_times.items() if t},
        "failures": runner.failures,
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")

    result = {
        "correct": restored and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
