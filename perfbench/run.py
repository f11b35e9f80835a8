"""Benchmark of the qgcheck command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives ``python3 -m qgcheck.cli`` in a closed loop: one
subprocess per job, jobs back to back and never concurrent, passes over
the workload's job list until the measuring window is used up (at least
two passes, so that every pass after the first can be checked against
the first for identical check ids and statuses under the same seed).
Every job's exit code and report are checked; a job with the wrong
verdict counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over the passes):
wall time of one pass, peak RSS of the largest job, set-up time and the
number of checks executed.  ``--trace 1`` runs one plain pass and one
pass with every job under cProfile, reduces the profiles to per-layer
metrics (reduce.py), times the scalar and linalg primitives on the
workload's headline model (primitives.py) and reports error_rate, the
share of jobs with the wrong verdict.  Both modes print error_rate.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from reduce import reduce_files
from verdict import executed, judge
from workloads import WORKLOADS, headline_model, jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 5      # set-ups per run; setup_s is their median
MIN_PASSES = 2      # the seed check needs a second pass to compare
JOB_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "checks_executed": "count"}


@dataclass
class PassResult:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    records: dict[str, list] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)  # job -> reason
    attempted: int = 0

    @property
    def checks_executed(self) -> int:
        return sum(executed(r) for r in self.records.values())


def child_env() -> dict[str, str]:
    """The jobs' environment: the caller's, with the checkout's sources."""
    return dict(os.environ, PYTHONPATH=SRC)


def spawn(argv: list[str], log: str) -> tuple[int, object]:
    """Run one child to completion; its exit code and own rusage."""
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_pass(job_list, argv_of, logdir: str) -> PassResult:
    """Run every job once, back to back; judge them after the pass."""
    for job in job_list:
        for path in (job.report, job.output):
            if path and os.path.exists(path):
                os.remove(path)
    finished = []
    t0 = time.perf_counter()
    for job in job_list:
        finished.append(spawn(argv_of(job),
                              os.path.join(logdir, f"{job.name}.log")))
    wall = time.perf_counter() - t0
    result = PassResult(
        wall, max(u.ru_maxrss for _, u in finished) / 1024.0,
        sum(u.ru_utime + u.ru_stime for _, u in finished),
        attempted=len(job_list))
    for job, (rc, _) in zip(job_list, finished):
        records, problem = judge(job, rc)
        result.records[job.name] = records
        if problem:
            result.errors[job.name] = problem
    return result


def same_seed_check(first: PassResult, later: PassResult):
    """A later pass with the same seed must give the same check ids and
    statuses as the first; a job that differs counts as failed."""
    for name, records in later.records.items():
        if records != first.records.get(name):
            later.errors.setdefault(name, "check ids or statuses differ "
                                    "from the first pass under the same seed")


def setup(workload: str, inputs: str, logdir: str) -> tuple[float, float]:
    """Cold-import the CLI and generate the inputs, SETUP_REPS times.

    Returns the median set-up time and the median import time.  The
    children are waited for with spawn(), whose blocking wait adds no
    polling delay to the times.
    """
    steps = ([sys.executable, "-c", "import qgcheck.cli"],
             [sys.executable, os.path.join(HERE, "inputs.py"), workload,
              inputs])
    totals, imports = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        stamps = [time.perf_counter()]
        for argv in steps:
            log = os.path.join(logdir, "setup.log")
            rc, _ = spawn(argv, log)
            if rc != 0:
                raise RuntimeError(f"set-up step {argv[1:]} exited with "
                                   f"{rc}; see {log}")
            stamps.append(time.perf_counter())
        imports.append(stamps[1] - stamps[0])
        totals.append(stamps[2] - stamps[0])
    return statistics.median(totals), statistics.median(imports)


def cli_argv(job) -> list[str]:
    return [sys.executable, "-m", "qgcheck.cli", *job.argv]


def end_to_end(job_list, seconds: float, logdir: str, setup_s: float):
    passes: list[PassResult] = []
    t0 = time.perf_counter()
    while True:
        p = run_pass(job_list, cli_argv, logdir)
        if passes:
            same_seed_check(passes[0], p)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(q.wall_s for q in passes)
        # end nearest to ``seconds``: a run ends within half a pass of it
        if len(passes) >= MIN_PASSES and elapsed + typical / 2 > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": setup_s,
        "checks_executed": statistics.median_low(p.checks_executed
                                             for p in passes),
    }
    return passes, metrics


def traced(workload: str, job_list, inputs: str, logdir: str,
           import_s: float):
    plain = run_pass(job_list, cli_argv, logdir)
    profiles = {job.name: os.path.join(logdir, f"{job.name}.prof")
                for job in job_list}
    tracer = os.path.join(HERE, "traced.py")
    under_profile = run_pass(
        job_list,
        lambda job: [sys.executable, tracer, profiles[job.name], *job.argv],
        logdir)
    same_seed_check(plain, under_profile)
    metrics = reduce_files([profiles[j.name] for j in job_list])
    primitive = subprocess.run(
        [sys.executable, os.path.join(HERE, "primitives.py"),
         headline_model(workload, inputs)],
        check=True, capture_output=True, text=True, env=child_env(),
        timeout=120, cwd=ROOT)
    metrics.update(json.loads(primitive.stdout.strip().splitlines()[-1]))
    metrics["cli.import_s"] = import_s
    metrics["proc.cpu_s"] = plain.cpu_s
    metrics["trace.overhead_s"] = under_profile.wall_s - plain.wall_s
    return [plain, under_profile], metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "error_rate":
        return "share"
    return {"_s": "s", "_ms": "ms", "_us": "us"}.get(
        "_" + name.rsplit("_", 1)[-1], "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qgcheck", "cli.py")):
        print(f"error: no qgcheck sources under {SRC}; run from the root "
              "of a qgcheck checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the dual verdict parses the written model

    work = os.path.join(WORK, args.workload)
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(out)
    setup_s, import_s = setup(args.workload, inputs, out)
    job_list = jobs(args.workload, inputs, out, args.seed)

    if args.trace:
        passes, metrics = traced(args.workload, job_list, inputs, out,
                                 import_s)
    else:
        passes, metrics = end_to_end(job_list, args.seconds, out, setup_s)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.errors) for p in passes)
    if args.trace:
        # 0 on correct code, so it cannot be an end-to-end metric, whose
        # bound is a share of the parent's median; per-layer metrics have
        # no bound, and 0 is a valid value among them.
        metrics["error_rate"] = failed / attempted
    for p in passes:
        for name, reason in p.errors.items():
            print(f"wrong verdict: {name}: {reason}", file=sys.stderr)
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"passes: {len(passes)}  trace: {args.trace}")
    print("pass wall times: "
          + ", ".join(f"{p.wall_s:.3f}" for p in passes) + " s")
    metrics_text = dict(metrics, error_rate=failed / attempted)
    for name, value in metrics_text.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"failed jobs: {failed} of {attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
