"""hsos benchmark runner.

    python3 perfbench/run.py --workload {scan,certify,invariants,cli_cold} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The runner imports hsos from `src/`, builds
the workload's inputs from the seed, warms up, then runs the workload's fixed
job list closed-loop: one client, one job at a time, whole passes over the
list.  The number of passes is S divided by the workload's pass time at the
seed commit (at least enough for 11 jobs), so a run measures about S seconds
there and every run of a workload times the same jobs.  Afterwards every
output is checked against references that share no code with hsos.

--trace 0 prints the end-to-end metrics:
  jobs_per_s   jobs per second: the job list's length over a typical pass,
               the sum of each job's median wall time across passes
  job_p50_s    median job wall time
  job_tail_s   the slowest job's median wall time across passes
  cpu_s        CPU seconds of this process and its children per job, from
               each job's median across passes
  peak_rss_mb  peak resident memory of the process running the jobs
  setup_s      median of three set-ups (import, input generation, warm-up),
               one here and two in fresh child processes
Job times are wall-clock seconds and cpu_s is CPU seconds, both in reference
seconds for the workloads that run in this process (scan, certify,
invariants): they are divided by the run's slowdown, the mean time of a fixed
calibration loop (pure-Python exact arithmetic, no hsos code) timed after
every job, over CALIBRATION_REF_S.  On a shared 2-core virtual machine the
CPU speed a process sees flips between two levels about 1.8x apart, for
seconds to minutes at a time, which moved raw medians by up to 1.5x between
runs; the run mean follows the share of time spent at each level.  cli_cold's
jobs run in child processes, whose speed the loop in this process does not
follow (scaling by it widened cli_cold's run-to-run spread), so its times are
raw, as is setup_s everywhere.  Before each job the heap is collected and
frozen (outside the timed region), so that collections inside a job do not
traverse the outputs kept for checking, whose number grows with the run.

--trace 1 runs a warm-up pass and an untraced pass, then wraps the layer
functions (see tracing.py) for the traced passes, and prints the per-layer
metrics (seconds and counts per job) with trace.overhead_s, the traced
minus untraced time per job.  Spans are written to
.bench_out/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it say which job job_tail_s
is, over how many passes, and why any job failed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_SAMPLES = 11
# Mean wall time of one calibration loop at reference speed: the mean over
# both speed levels of the 2-core x86-64 virtual machine this benchmark was
# written on.
CALIBRATION_REF_S = 0.0025
SETUP_CHILDREN = 2

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["scan", "certify", "invariants", "cli_cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time, exit")
    return p.parse_args(argv)


def cpu_now() -> float:
    """CPU seconds of this process and of its children that have been waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def pass_count(workload, jobs: int, seconds: float) -> int:
    """Passes for a run of `seconds`: fixed by the pass time measured at the seed commit.

    A fixed count keeps the sample count the same on every run and on both
    sides of a comparison; a time-limited loop would flip between pass counts
    near a boundary.
    """
    return max(round(seconds / workload.pass_s), -(-MIN_SAMPLES // jobs))


def calibrate() -> float:
    """Mean wall seconds of a fixed exact-arithmetic loop that runs no hsos code."""
    t = time.perf_counter()
    for _ in range(7):
        acc = Fraction(0)
        for k in range(1, 300):
            acc = acc * Fraction(k, k + 1) + Fraction(1, k * k + 1)
            if k % 50 == 0:
                acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 + 1)
    return (time.perf_counter() - t) / 7


def closed_loop(jobs, passes: int, tracer=None):
    """`passes` whole passes over `jobs`, one job at a time.

    Returns the (job id, output, error) results, each job's raw wall and CPU
    seconds in run order, the loop's wall time, and the run's slowdown
    relative to reference (see the module docstring).
    """
    results, durations, cpus, calibrations = [], [], [], [calibrate()]
    start = time.perf_counter()
    for p in range(passes):
        for job_id, fn in jobs:
            if tracer is not None:
                tracer.job = f"{p}:{job_id}"
            gc.collect()
            gc.freeze()
            cpu = cpu_now()
            t = time.perf_counter()
            try:
                output, error = fn(), None
            except Exception as exc:  # a failing job is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - t)
            cpus.append(cpu_now() - cpu)
            results.append((job_id, output, error))
            calibrations.append(calibrate())
    gc.unfreeze()
    return results, durations, cpus, time.perf_counter() - start, statistics.mean(calibrations) / CALIBRATION_REF_S


def typical_pass(values: list[float], jobs: int) -> float:
    """Sum over the job list of each job's median across passes.

    A pass time made of per-job medians ignores a job slowed by a burst of load
    from outside, which a mean over the loop would absorb.
    """
    return sum(statistics.median(values[j::jobs]) for j in range(jobs))


def slowest_job(durations: list[float], jobs: int) -> tuple[float, int]:
    """(median across passes, index in the job list) of the job with the largest median.

    The runs are too short for a high percentile with 10 samples above it
    (cli_cold makes one pass of 12 jobs), and a percentile below the top
    never reaches the slowest members of a job list, such as the dim-300 scan
    or the audit quadrature.
    """
    medians = [statistics.median(durations[j::jobs]) for j in range(jobs)]
    return max((value, j) for j, value in enumerate(medians))


def child_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def summarize(workload, results) -> tuple[bool, int]:
    verdicts = workload.check(results)
    failed = [note for verdict, note in verdicts if verdict != "ok"]
    for note in sorted(set(failed)):
        print(f"failed: {note} (x{failed.count(note)})")
    print(f"fail_ratio {len(failed) / len(verdicts):.4f}: {len(failed)} of {len(verdicts)} jobs failed")
    return all(verdict != "wrong" for verdict, _ in verdicts), len(failed)


def run_end_to_end(args, workload, setup_s: float) -> dict:
    setups = [setup_s] + [child_setup(args) for _ in range(SETUP_CHILDREN)]
    jobs = workload.jobs()
    passes = pass_count(workload, len(jobs), args.seconds)
    results, durations, cpus, elapsed, slowdown = closed_loop(jobs, passes)
    scale = 1 / slowdown if workload.in_process else 1.0
    durations, cpus = [d * scale for d in durations], [c * scale for c in cpus]
    peak = workload.peak_rss_mb(results)
    tail_s, slowest = slowest_job(durations, len(jobs))
    print(f"{args.workload} seed {args.seed}: {len(durations)} jobs in {passes} passes, {elapsed:.3f} s raw wall, "
          f"slowdown {slowdown:.3f} against reference, times scaled by {scale:.3f}; job_tail_s is the median of {passes} "
          f"pass(es) of {jobs[slowest][0]}; set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    correct, failed = summarize(workload, results)
    values = {
        "jobs_per_s": len(jobs) / typical_pass(durations, len(jobs)),
        "job_p50_s": statistics.median(durations),
        "job_tail_s": tail_s,
        "cpu_s": typical_pass(cpus, len(jobs)) / len(jobs),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return {"correct": correct, "attempted": len(durations), "failed": failed, "metrics": metrics}


def run_traced(args, workload) -> dict:
    import tracing

    imports = tracing.import_times(str(SRC))
    jobs = workload.jobs(traced=True)
    warm_results, *_ = closed_loop(jobs, 1)
    base_results, base_durations, *_ = closed_loop(jobs, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, durations, _, elapsed, _ = closed_loop(jobs, pass_count(workload, len(jobs), args.seconds), tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    layers = tracing.layer_metrics(tracer.spans, len(durations))
    layers.update(imports)
    layers["trace.overhead_s"] = statistics.mean(durations) - statistics.mean(base_durations)
    print(f"{args.workload} seed {args.seed} traced: {len(durations)} jobs, {len(tracer.spans)} spans, "
          f"{elapsed:.3f} s; {statistics.mean(durations):.4f} s per traced job vs "
          f"{statistics.mean(base_durations):.4f} s untraced")
    all_results = warm_results + base_results + results
    correct, failed = summarize(workload, all_results)
    metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in sorted(layers.items())}
    return {"correct": correct, "attempted": len(all_results), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hsos" / "__init__.py").is_file():
        print(f"run.py: no hsos sources under {SRC}; run from the root of an hsos checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")  # hsos warns on non-diagonal forms and non-positive probes
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](work)
        if args.trace:
            workload.setup(args.seed)
            result = run_traced(args, workload)
        else:
            workload.setup(args.seed)
            setup_s = time.perf_counter() - T_START
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            result = run_end_to_end(args, workload, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
