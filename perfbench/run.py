#!/usr/bin/env python3
"""truncalg benchmark: one closed-loop client with one job in flight.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_corpus, tower_check, oracle_fuzz, lambda_cw (perfbench/README.md
says what each one exercises).  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it runs the traced passes and prints the per-layer
metrics.  Every timing is CPU time; the timed runs make passes over a fixed
pool of jobs for S seconds and scale each job's CPU to a reference machine
speed measured between jobs (probe.py).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full record of the run, with the input digest, goes
to .perfbench_out/ (compare two of them with perfbench/compare.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from probe import PROBE_REF_S, job_speeds, probe, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cli_corpus", "tower_check", "oracle_fuzz", "lambda_cw")
# whole cycles in a timed run's job pool, independent of --seconds, so a seed
# always means the same jobs; one pass over the pool takes 2-5 s of CPU
POOL_CYCLES = {"cli_corpus": 1, "tower_check": 3, "oracle_fuzz": 4, "lambda_cw": 2}
# the traced run does this many cycles, so its counts repeat exactly for a seed
TRACE_CYCLES = {"cli_corpus": 1, "tower_check": 1, "oracle_fuzz": 2, "lambda_cw": 1}
# a timed run makes passes over its pool (in process: each in a forked child)
# until --seconds of wall time are used, at least this many
MIN_PASSES = 2
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the input digest and set-up CPU as JSON and exit (used for setup_s samples)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up


def make_workload(name, workdir):
    import workloads

    if name == "cli_corpus":
        return workloads.CliCorpus(ROOT, workdir)
    return {"tower_check": workloads.TowerCheck, "oracle_fuzz": workloads.OracleFuzz,
            "lambda_cw": workloads.LambdaCW}[name]()


def setup(args, workdir, cycles):
    """Import the program and generate the inputs; (workload, jobs, digest)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import truncalg.cli  # noqa: F401  (what every user of the tool loads)
    import workloads

    wl = make_workload(args.workload, workdir)
    jobs = wl.generate(random.Random(args.seed), cycles * len(wl.cycle))
    digest = workloads.digest_of(jobs)
    # A user's process holds one job's input, not a run's pool: move the pool
    # out of the collector's reach so it does not slow every collection a job
    # triggers (which made equal-shaped jobs differ by up to twofold).
    gc.collect()
    gc.freeze()
    return wl, jobs, digest


def timed_setup(args, workdir):
    """Set up, timed: (workload, jobs, digest, CPU seconds, the same at the
    probe's reference speed).  The CPU runs from process start to the end of
    set-up; the machine's speed is probed just before and just after set-up,
    and the probes' own CPU is left out."""
    t0 = time.process_time()
    before = probe()
    probe_cpu = time.process_time() - t0
    wl, jobs, digest = setup(args, workdir, POOL_CYCLES[args.workload])
    cpu = time.process_time() - probe_cpu
    after = probe()
    return wl, jobs, digest, cpu, scale(cpu, (before + after) / 2)


def setup_sample(args):
    """Set up in a fresh process: (scaled CPU, CPU, input digest)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}")
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return out["scaled_s"], out["cpu_s"], out["inputs_sha256"]


def import_sample():
    """CPU seconds of a child that only runs `import truncalg.cli`."""
    import workloads

    _, cpu, _ = workloads.run_child([sys.executable, "-c", "import truncalg.cli"],
                                    workloads.child_env(ROOT), ROOT)
    return cpu


# ---------------------------------------------------------------------------
# Passes over the jobs


class Pass:
    """One closed-loop pass: each job runs, is timed, then checked.  With a
    `probe`, the probe also runs before each job and after the last one."""

    def __init__(self, wl, jobs, runner, tracer=None, probe=None):
        self.probe_cpu = []     # len(jobs) + 1 probe times, with a probe
        self.per_job = []       # CPU of each job in order, None if it failed
        self.child_rss = []
        self.outputs = []
        self.failures = []      # one line per failed job
        self.failed_ids = set()
        child_cpu = 0.0
        gc.collect()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for job in jobs:
            if tracer is not None:
                tracer.job = job[0]
            if probe is not None:
                self.probe_cpu.append(probe())
            t0 = time.process_time()
            try:
                out = runner(job)
            except Exception as exc:  # a job that raises is a failed job
                self.failures.append(f"{job[0]}: {type(exc).__name__}: {exc}")
                self.failed_ids.add(job[0])
                self.outputs.append(None)
                self.per_job.append(None)
                continue
            dt = time.process_time() - t0
            if wl.name == "cli_corpus" and out[1] is not None:  # a child ran it
                dt = out[1]
                child_cpu += dt
                self.child_rss.append(out[2])
            self.outputs.append(out)
            bad = wl.check(job, out)
            if bad:
                self.failures.append(bad)
                self.failed_ids.add(job[0])
                self.per_job.append(None)
            else:
                self.per_job.append(dt)
        if probe is not None:
            self.probe_cpu.append(probe())
        self.cpu = time.process_time() - cpu0 + child_cpu
        self.wall = time.perf_counter() - wall0
        if tracer is not None:
            tracer.job = None


def forked_pass(wl, jobs):
    """One probed pass over `jobs` in a forked child: (CPU per job, probe
    times, failures, max RSS in MB).  The child starts from this process's
    warm state and takes what the jobs leave behind (caches, memo tables)
    with it when it exits, so no pass runs on results an earlier pass
    computed."""
    sys.stdout.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            p = Pass(wl, jobs, wl.run, probe=probe)
            with os.fdopen(wfd, "w") as fh:
                json.dump({"per_job": p.per_job, "probe": p.probe_cpu,
                           "failures": p.failures}, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"forked pass exited {os.waitstatus_to_exitcode(status)}")
    result = json.loads(data)
    return result["per_job"], result["probe"], result["failures"], usage.ru_maxrss / 1024.0


def scaled_job_cpu(p):
    """Scaled CPU of a probed pass's jobs, summed over the jobs that passed."""
    return sum(scale(cpu, speed) for cpu, speed in zip(p.per_job, job_speeds(p.probe_cpu))
               if cpu is not None)


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Fewer than 11 samples: the max."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0, 0
    idx = len(s) - 11
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - idx - 1


# ---------------------------------------------------------------------------
# Runs


def environment():
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import sympy
        sympy_version = sympy.__version__
    except ImportError:
        sympy_version = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "sympy": sympy_version}


def measure(args, workdir):
    import workloads

    wl, jobs, digest, cpu, scaled_cpu = timed_setup(args, workdir)
    setup_cpu, setup_scaled = [cpu], [scaled_cpu]
    failures = []
    for _ in range(SETUP_SAMPLES - 1):
        scaled_cpu, cpu, child_digest = setup_sample(args)
        setup_cpu.append(cpu)
        setup_scaled.append(scaled_cpu)
        if child_digest != digest:
            failures.append(f"set-up in a fresh process gave inputs {child_digest[:12]}, "
                            f"not {digest[:12]}")
    corpus_before = workloads.corpus_fingerprint(ROOT)
    raw = [[] for _ in jobs]        # each job's CPU in every pass
    scaled_runs = [[] for _ in jobs]  # the same, at the probe's reference speed
    probes = []
    pass_samples = []               # every pass's job order, CPU and probes
    peak_rss = 0.0
    passes = 0
    wall0 = time.perf_counter()
    # passes until --seconds are used: a job is timed once in each pass
    while passes < MIN_PASSES or (time.perf_counter() - wall0) * (passes + 1) / passes <= args.seconds:
        # each pass starts a third further on, so no job always runs first
        start = passes * len(jobs) // 3 % len(jobs)
        order = list(range(start, len(jobs))) + list(range(start))
        ordered = [jobs[i] for i in order]
        if wl.name == "cli_corpus":  # every job is a fresh child already
            p = Pass(wl, ordered, wl.run, probe=probe)
            per_job, probe_cpu, bad = p.per_job, p.probe_cpu, p.failures
            rss = max(p.child_rss, default=0.0)
        else:
            per_job, probe_cpu, bad, rss = forked_pass(wl, ordered)
        passes += 1
        failures += bad
        peak_rss = max(peak_rss, rss)
        probes += probe_cpu
        pass_samples.append({"order": order, "cpu": per_job, "probe": probe_cpu})
        for i, cpu, speed in zip(order, per_job, job_speeds(probe_cpu)):
            raw[i].append(cpu)
            if cpu is not None:
                scaled_runs[i].append(scale(cpu, speed))
    wall = time.perf_counter() - wall0
    if workloads.corpus_fingerprint(ROOT) != corpus_before:
        failures.append("corpus/ changed during the run")

    # a job's CPU is its median over the passes, each pass's scaled by the
    # machine's speed around it (probe.py)
    ok = [i for i in range(len(jobs)) if None not in raw[i]]
    job_cpu = [statistics.median(scaled_runs[i]) for i in ok]
    raw_cpu = [statistics.median(raw[i]) for i in ok]
    failed = len(jobs) - len(ok)
    if job_cpu:
        tail_value, tail_pct, tail_beyond = tail(job_cpu)
        p50 = statistics.median(job_cpu)
    else:
        tail_value, tail_pct, tail_beyond, p50 = 0.0, 0.0, 0, 0.0
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "job_cpu_s.p50": (p50, "s"),
        "job_cpu_s.tail": (tail_value, "s"),
        "jobs_per_cpu_s": (len(job_cpu) / sum(job_cpu) if job_cpu else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    info = {
        "inputs_sha256": digest, "setup_cpu_samples_s": setup_cpu,
        "setup_scaled_samples_s": setup_scaled,
        "failed_ratio": failed / len(jobs), "wall_s": wall, "passes": passes,
        "tail_percentile": tail_pct, "tail_samples_beyond": tail_beyond,
        "job_samples": len(job_cpu), "job_cpu_s": job_cpu,
        "unscaled_job_cpu_s": raw_cpu,
        "unscaled_job_cpu_s.p50": statistics.median(raw_cpu) if raw_cpu else 0.0,
        "probe_s.p50": statistics.median(probes), "probe_ref_s": PROBE_REF_S,
        "timed_cpu_s": sum(c for r in raw for c in r if c is not None) + sum(probes),
        "pass_samples": pass_samples,
    }
    return finish(args, wl.name, len(jobs), failed, failures, metrics, info)


def trace(args, workdir):
    import tracer as tr
    import workloads

    cycles = TRACE_CYCLES[args.workload]
    wl, jobs, digest = setup(args, workdir, cycles)
    cli = wl.name == "cli_corpus"
    runner = wl.run_in_process if cli else wl.run
    failures = []

    # counting pass first: it also pays every lazy first-call cost, so the
    # untraced and traced passes below both run warm
    counter = tr.OpCounter()
    counter.install()
    try:
        counted = Pass(wl, jobs, runner)
    finally:
        counter.uninstall()
    failures += counted.failures
    counts = counter.metrics()

    # untraced pass: the base of trace_overhead_ratio (both passes probed, so
    # the ratio compares CPU at the same machine speed)
    plain = Pass(wl, jobs, runner, probe=probe)
    failures += plain.failures
    job_cpu = [c for c in plain.per_job if c is not None]
    if cli:  # per-job CPU as users see it: one child per job
        children = Pass(wl, jobs, wl.run)
        failures += children.failures
        job_cpu = [c for c in children.per_job if c is not None]
    import_cpu = statistics.median(import_sample() for _ in range(IMPORT_SAMPLES))

    spans = tr.SpanTracer()
    spans.install()
    try:
        # inputs regenerated under the tracer must not change
        traced_jobs = wl.generate(random.Random(args.seed), len(jobs))
        traced_digest = workloads.digest_of(traced_jobs)
        gc.collect()
        gc.freeze()
        del spans.spans[:]
        spans.errors.clear()
        traced = Pass(wl, traced_jobs, runner, tracer=spans, probe=probe)
    finally:
        spans.uninstall()
    failures += traced.failures
    if traced_digest != digest:
        failures.append(f"traced inputs {traced_digest[:12]} differ from untraced {digest[:12]}")

    for label, other in (("traced", traced), ("counted", counted)):
        if other.outputs != plain.outputs:
            failures.append(f"{label} pass outputs differ from the untraced pass")

    layer = tr.layer_metrics(spans.spans, spans.errors)
    layer.update(counts)  # rings.errors comes from the counting pass
    failures += bypass_violations(wl.name, layer, spans.spans, tr)
    layer["cli.import_cpu_s"] = import_cpu
    layer["cli.startup_share"] = import_cpu / statistics.median(job_cpu) if job_cpu else 0.0
    plain_cpu, traced_cpu = scaled_job_cpu(plain), scaled_job_cpu(traced)
    layer["trace_overhead_ratio"] = traced_cpu / plain_cpu if plain_cpu > 0 else 0.0
    layer["wall_s"] = plain.wall

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    tr.write_spans(span_path, spans.spans)
    metrics = {name: (value, unit_of(name)) for name, value in sorted(layer.items())}
    info = {"inputs_sha256": digest, "spans": len(spans.spans), "spans_file": span_path,
            "untraced_cpu_s": plain_cpu, "traced_cpu_s": traced_cpu,
            "counted_cpu_s": counted.cpu}
    failed = set().union(*(x.failed_ids for x in (counted, plain, traced)))
    if cli:
        failed |= children.failed_ids
    return finish(args, wl.name, len(jobs), len(failed), failures, metrics, info)


def bypass_violations(workload, layer, spans, tr):
    """The predictions that must hold exactly, as failures if they do not."""
    bad = []
    if workload in ("tower_check", "lambda_cw"):
        for key in ("bruteforce.finite_module_calls", "bruteforce.subgroup_calls",
                    "bruteforce.elements_enumerated"):
            if layer[key] != 0:
                bad.append(f"{key} = {layer[key]} on {workload}, predicted 0")
        if any(rec[0].startswith("bruteforce.") for rec in spans):
            bad.append(f"bruteforce spans on {workload}, predicted none")
    if workload in ("tower_check", "oracle_fuzz"):
        if layer["linalg.snf_calls.localized"] != 0:
            bad.append(f"linalg.snf_calls.localized = {layer['linalg.snf_calls.localized']} "
                       f"on {workload}, predicted 0")
    bad += [f"solver call inside an oracle: {v}" for v in tr.oracle_solver_violations(spans)[:5]]
    return bad


def unit_of(name):
    if name.endswith("_s") or ".snf_self_s." in name:
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


def finish(args, workload, attempted, failed, failures, metrics, info):
    """Write the record and print the result.  `failed` counts failed jobs;
    `failures` also holds run-level problems, any of which makes the run
    incorrect."""
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "failures": failures, "metrics": {k: v for k, (v, _) in metrics.items()},
              "environment": environment(), **info}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"{workload} seed {args.seed}: {attempted} jobs, {failed} failed "
          f"(failed_ratio {failed / attempted:.4g}); inputs sha256 {info['inputs_sha256']}")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    for key in ("passes", "probe_s.p50", "unscaled_job_cpu_s.p50", "wall_s",
                "tail_percentile", "tail_samples_beyond", "timed_cpu_s", "spans",
                "untraced_cpu_s", "traced_cpu_s", "counted_cpu_s"):
        if key in info:
            print(f"  {key} {info[key]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  record {os.path.relpath(path, ROOT)}")
    line = {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(line))
    return 0


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in ("src/truncalg/__init__.py", "corpus")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a truncalg checkout, missing {missing}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.setup_only:
            _, _, digest, cpu, scaled_cpu = timed_setup(args, workdir)
            print(json.dumps({"inputs_sha256": digest, "cpu_s": cpu, "scaled_s": scaled_cpu}))
            return 0
        return trace(args, workdir) if args.trace else measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
