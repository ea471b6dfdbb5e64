"""The utchar benchmark: seeded CLI jobs, timed end to end, with an opt-in
traced run for the per-layer breakdown.

    python3 perfbench/run.py --workload closed-forms --seed 0 --seconds 30 --trace 0

Load model: closed loop, one client, one job at a time, in this single
process with no threads.  A workload is a seeded list of `utchar` command
lines (see workloads.py); each goes through `utchar.cli.main`, so its JSON
and exit code are what the `utchar` command gives.  One pass runs the whole
list; passes repeat until `--seconds` have elapsed.  A job's time is its
median over the passes, and a workload's time the sum of its jobs' times.
Set-up (a fresh import of utchar, the fields, the job list) is timed
SETUP_REPEATS times before every untraced pass, and setup_s is the median.

Times are reported at a reference host speed.  The speed of a shared host
drifts by tens of percent within minutes, so a fixed pure-Python loop
(`calibrate`) runs before and after every timed interval, and a short slice
of it also every PROBE_INTERVAL_S inside a job; the interval is scaled by
the ratio of the loop's reference time to its mean time around and within
the interval: the time the interval would take on a host where the loop
takes REFERENCE_CAL_S.  The unscaled times are printed and recorded beside
them (`*_raw_s`); per-layer times, which come from spans, are unscaled.

`--trace 0` reports the end-to-end metrics with tracing off.  `--trace 1`
spends the first half of the time on untraced passes and the second half
with spans and counters installed (tracing.py), and reports the per-layer
metrics.  Outputs are gated after the timed passes (gate.py); a job that
exits non-zero, raises, or fails a check counts as failed.  The last line
of standard output is the result object; a run record with every per-pass
value goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import fnmatch
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

from gate import (check_output, cross_check, load_oracles, load_validators,
                  prime_power, sha256)
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, make_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 10
CALIBRATION_STEPS = 60_000
REFERENCE_CAL_S = 0.02
PROBE_STEPS = 3_000
PROBE_INTERVAL_S = 0.25

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Wrapped labels (fnmatch patterns) that a workload's commands never call.
# Every other wrapped label must be reached in a traced run; one that is not
# means a rebinding was missed and its layer is under-reported.  No CLI
# command calls ClassFunction.inner (so characters.inner.calls reads 0),
# Field.div, or CyclotomicNumber subtraction, conjugation and Galois maps.
NOT_REACHED = {
    "closed-forms": (
        "characters.ClassFunction.inner", "characters.supercharacter",
        "characters.xi", "cli.cmd_[cokt]*", "scalars.CyclotomicNumber.__sub__",
        "scalars.CyclotomicNumber.conjugate",
        "scalars.CyclotomicNumber.galois", "scalars.Field.div"),
    "generic-chains": (
        "algebra.GroupElement.*", "algebra.NilAlgebra.[efg]*",
        "algebra.Subspace.*", "algebra.ideal_check", "algebra.solution_space",
        "algebra.trunc_exp", "chain.quasimonomial_kernels", "characters.*",
        "cli.cmd_[ekotv]*", "duals.Functional.evaluate_group", "duals.act_*",
        "duals.is_quasi_monomial", "duals.orbit", "duals.shape", "exotic.*",
        "scalars.AdditiveCharacter.*", "scalars.CyclotomicNumber.*",
        "scalars.Field.div", "scalars.cyclotomic_polynomial",
        "scalars.root_of_unity_order"),
    "desk-tables": (
        "algebra.Subspace.restrict_to_zero", "algebra.Subspace.sum_with",
        "algebra.ideal_check", "algebra.solution_space",
        "chain.quasimonomial_kernels", "characters.ClassFunction.inner",
        "cli.cmd_[cev]*", "duals.is_quasi_monomial", "duals.shape",
        "exotic.[abe]*", "exotic.closed_form_chain",
        "exotic.verify_chain_closed_forms",
        "scalars.CyclotomicNumber.[_cg]*", "scalars.Field.div"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up and passes


def set_up(workload, seed):
    """Import utchar afresh, build the fields the jobs use and generate the
    jobs.  Returns (seconds, utchar.cli, jobs)."""
    for name in [m for m in sys.modules
                 if m == "utchar" or m.startswith("utchar.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    cli = importlib.import_module("utchar.cli")
    jobs = make_jobs(workload, seed)
    for q in sorted({job.q for job in jobs}):
        sys.modules["utchar.scalars"].field_make(*prime_power(q))
    return time.perf_counter() - start, cli, jobs


def run_job(cli, job):
    """(exit code, stdout) of one CLI invocation; a job that raises gets a
    description of the exception as its code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:      # argparse rejected the arguments
        code = exc.code
    except Exception as exc:       # a failed job, not a failed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def calibrate(steps=CALIBRATION_STEPS):
    """(wall, CPU) seconds of a fixed loop shaped like the program's inner
    loops: tuple keys, dict reads and writes, modular arithmetic."""
    acc = {}
    cpu = time.process_time()
    wall = time.perf_counter()
    for i in range(steps):
        key = (i % 37, i % 41)
        acc[key] = (acc.get(key, 0) + i * i) % 101
    return time.perf_counter() - wall, time.process_time() - cpu


def scaled(seconds, cal_before, cal_after):
    """seconds at the reference speed, from the loop times around them."""
    return seconds * 2 * REFERENCE_CAL_S / (cal_before + cal_after)


def timed_job(cli, job):
    """Run one job with a probe of the host's speed every PROBE_INTERVAL_S
    (a SIGALRM handler runs a short calibration).  Returns the exit code,
    the output, the job's wall and CPU seconds without the probes, and the
    probes' (wall, CPU) seconds per calibration step."""
    probes = []

    def probe(signum, frame):
        probes.append(calibrate(PROBE_STEPS))

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    cpu = time.process_time()
    wall = time.perf_counter()
    try:
        code, text = run_job(cli, job)
    finally:
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    return (code, text, wall - sum(w for w, _ in probes),
            cpu - sum(c for _, c in probes),
            [(w / PROBE_STEPS, c / PROBE_STEPS) for w, c in probes])


def run_pass(cli, jobs):
    """Run every job once, between two calibrations and with speed probes
    inside it; returns the per-job times (scaled and raw) and exit codes,
    and the outputs.  A job is scaled by the mean per-step time of the
    calibrations around it and the probes within it."""
    gc.collect()
    raw, raw_cpu, speeds, codes, texts = [], [], [], [], []
    cal = [calibrate()]
    for job in jobs:
        code, text, wall, cpu, probes = timed_job(cli, job)
        cal.append(calibrate())
        samples = [(w / CALIBRATION_STEPS, c / CALIBRATION_STEPS)
                   for w, c in cal[-2:]] + probes
        speeds.append([sum(s[i] for s in samples) / len(samples)
                       for i in (0, 1)])
        raw.append(wall)
        raw_cpu.append(cpu)
        codes.append(code)
        texts.append(text)
    step_s = REFERENCE_CAL_S / CALIBRATION_STEPS
    return {"job_s": [t * step_s / s[0] for t, s in zip(raw, speeds)],
            "job_cpu_s": [t * step_s / s[1] for t, s in zip(raw_cpu, speeds)],
            "job_raw_s": raw, "job_cpu_raw_s": raw_cpu,
            "step_s": speeds, "codes": codes,
            "digests": [sha256(text) for text in texts]}, texts


def before_end(passes, until):
    """Whether another pass ends closer to `until` than stopping now."""
    return time.perf_counter() + sum(passes[-1]["job_raw_s"]) / 2 < until


def per_job_medians(passes, key):
    """Median over passes of each job's time."""
    return [median(p[key][k] for p in passes)
            for k in range(len(passes[0][key]))]


def command_seconds(jobs, job_medians):
    """Per-command wall time: the command's per-job medians, summed."""
    out = {}
    for job, dt in zip(jobs, job_medians):
        key = f"{job.command}_s"
        out[key] = out.get(key, 0.0) + dt
    return out


# ---------------------------------------------------------------------------
# the output gate


def recorded_digests(workload, seed):
    """{argv string: sha256} recorded at the seed commit for the default
    seed, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS.read_text())["workloads"][workload]
    return {" ".join(entry["argv"]): entry["sha256"] for entry in recorded}


def gate(jobs, texts, passes, recorded=None):
    """Check the first pass's outputs in full (the schema, the verdicts, the
    closed forms, the recorded digests and the independent cross-checks),
    and every later execution by exit code and digest against the first.
    Returns (failed executions, problems by job index)."""
    validators = load_validators(ROOT / "schemas")
    oracles = load_oracles(ROOT)
    first = passes[0]
    problems = {}
    for k, job in enumerate(jobs):
        digest = None
        if recorded is not None:
            digest = recorded.get(" ".join(job.argv), "not recorded")
        found = check_output(job, first["codes"][k], texts[k], validators,
                             digest)
        if not found:
            found = cross_check(oracles, job, texts[k])
        if found:
            problems[k] = found
    failed = 0
    for p in passes:
        for k in range(len(jobs)):
            if (k in problems or p["codes"][k] != 0
                    or p["digests"][k] != first["digests"][k]):
                failed += 1
    return failed, problems


# ---------------------------------------------------------------------------
# the run record


def git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine():
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------


def measure(args):
    """The timed passes: untraced ones, then (with --trace 1) traced ones,
    with their per-layer metrics and counters."""
    run = {"setup_s_samples": [], "setup_raw_s_samples": [], "passes": [],
           "traced_passes": [], "layers": [], "counters": []}
    start = time.perf_counter()
    untraced_until = start + args.seconds / (2 if args.trace else 1)
    passes, texts = run["passes"], None
    while not passes or before_end(passes, untraced_until):
        cal = calibrate()[0]
        for _ in range(SETUP_REPEATS):
            seconds, cli, jobs = set_up(args.workload, args.seed)
            after = calibrate()[0]
            run["setup_s_samples"].append(scaled(seconds, cal, after))
            run["setup_raw_s_samples"].append(seconds)
            cal = after
        record, pass_texts = run_pass(cli, jobs)
        passes.append(record)
        texts = texts or pass_texts
    run["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced, pass_starts = run["traced_passes"], []
        while not traced or before_end(traced, start + args.seconds):
            before = tracer.counters()
            pass_starts.append(len(tracer.starts))
            traced.append(run_pass(cli, jobs)[0])
            run["layers"].append(layer_metrics(tracer, pass_starts[-1],
                                               len(tracer.starts)))
            after = tracer.counters()
            run["counters"].append({k: after[k] - before[k] for k in after})
        run["unreached"] = tracer.unreached()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz",
                     pass_starts)
    run["measured_s"] = time.perf_counter() - start
    return run, jobs, texts


def reach_problems(workload, unreached):
    """Wrapped labels the workload should have reached but did not."""
    missed = [label for label in unreached
              if not any(fnmatch.fnmatchcase(label, pattern)
                         for pattern in NOT_REACHED[workload])]
    return [f"wrapped names never reached: {missed}"] if missed else []


def layer_report(run, texts, untraced_wall_s):
    """The per-layer metrics of a traced run: times are medians over the
    traced passes, counts are those of the first traced pass.  Like the
    spans they come from, these times are not scaled."""
    layers = run["layers"]
    metrics = {key: layers[0][key] if LAYER_METRICS[key] == "count"
               else median(p[key] for p in layers) for key in layers[0]}
    metrics.update(run["counters"][0])
    metrics["cli.json_bytes"] = sum(len(t.encode()) for t in texts)
    metrics["trace.wall_s"] = sum(per_job_medians(run["traced_passes"],
                                                  "job_raw_s"))
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced_wall_s
    return {key: metrics[key] for key in LAYER_METRICS}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "utchar" / "cli.py").is_file():
        print(f"error: no utchar sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    run, jobs, texts = measure(args)

    executions = run["passes"] + run["traced_passes"]
    failed, problems = gate(jobs, texts, executions,
                            recorded_digests(args.workload, args.seed))
    attempted = len(jobs) * len(executions)
    harness = (reach_problems(args.workload, run["unreached"])
               if args.trace else [])
    job_s = per_job_medians(run["passes"], "job_s")
    end_to_end = {
        "wall_s": sum(job_s),
        "cpu_s": sum(per_job_medians(run["passes"], "job_cpu_s")),
        "setup_s": median(run["setup_s_samples"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = {"wall_raw_s": sum(per_job_medians(run["passes"], "job_raw_s")),
           "cpu_raw_s": sum(per_job_medians(run["passes"], "job_cpu_raw_s")),
           "setup_raw_s": median(run["setup_raw_s_samples"])}
    commands = command_seconds(jobs, job_s)
    if args.trace:
        metrics = layer_report(run, texts, raw["wall_raw_s"])
        units = LAYER_METRICS
    else:
        metrics, units = end_to_end, END_TO_END

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "jobs": [job.argv for job in jobs],
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "problems": {" ".join(jobs[k].argv): found
                           for k, found in problems.items()},
              "harness_problems": harness,
              "end_to_end": end_to_end, "raw": raw, "commands": commands,
              "per_layer": metrics if args.trace else None, **run}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(run['passes'])} untraced, {len(run['traced_passes'])} "
          f"traced  jobs/pass {len(jobs)}")
    rows = [(name, end_to_end[name], unit)
            for name, unit in END_TO_END.items()]
    rows += [(name, value, "s (unscaled)") for name, value in raw.items()]
    rows += [(name, value, "s") for name, value in commands.items()]
    rows.append(("failed_frac", failed / attempted,
                 f"({failed}/{attempted} jobs)"))
    if args.trace:
        rows += [(name, metrics[name], unit)
                 for name, unit in LAYER_METRICS.items()]
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for argv, found in record["problems"].items():
        print(f"failed job {argv}: {'; '.join(found)}", file=sys.stderr)
    for problem in harness:
        print(f"benchmark problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not harness,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
