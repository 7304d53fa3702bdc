#!/usr/bin/env python3
"""Closed-loop benchmark of the groupoidal checker.

    python3 benchmark/run.py --workload axioms|search|calculus \
        --seed N --seconds S --trace 0|1

One process, one thread, one caller: each job is issued only after the
previous one returns.  The library is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` every job runs both untraced and traced, the verdicts
of the two runs must agree, and the run reports per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import jobs  # noqa: E402
import tracer  # noqa: E402

# A run is whole copies of the workload's pass (about 50 jobs, the same
# sizes in every copy): at least three, so at least 100 jobs a run.
MIN_COPIES = 3
JOB_TIMEOUT_S = 30.0
# A run that takes this many times --seconds (a program far slower than
# the one the mix was sized on) stops between two jobs.
OVERRUN = 3
MODULES = ("site_core", "backends", "groupoid", "action", "bundle",
           "bibundle", "morphism", "nerve", "cli")


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so that no handler
    in the library can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def load_library():
    """Import groupoidal afresh from src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "groupoidal", "__init__.py")):
        raise RuntimeError("no groupoidal package under %s" % SRC)
    for name in [m for m in sys.modules
                 if m == "groupoidal" or m.startswith("groupoidal.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("groupoidal")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError("groupoidal imported from %s, not %s"
                           % (pkg.__file__, SRC))
    mods = {m: importlib.import_module("groupoidal." + m) for m in MODULES}
    return types.SimpleNamespace(pkg=pkg, **mods)


def warmup_job(workload, seed, ids):
    if workload == "axioms":
        return jobs.finset_family_job(ids, (1, 2))
    if workload == "search":
        return jobs.zn_actions_job(ids, 2, 3)
    return jobs.orbit_job(random.Random(seed), ids, 2, 3)


def setup(workload, seed, spaces, ids):
    """One set-up: a fresh import of the library, one copy of the pass
    and one untimed warm-up job."""
    lib = load_library()
    pass_jobs = jobs.WORKLOADS[workload](random.Random(seed), ids, spaces)
    try:
        warmup_job(workload, seed, ids).run(lib)
    except Exception as exc:  # the timed jobs count a broken library
        print("warm-up job failed: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
    return lib, pass_jobs


def run_copies(args, spaces, do_job):
    """Set up and run copies of the pass, each in a fresh order, until
    MIN_COPIES copies are done and the run has reached the copy boundary
    nearest to --seconds.  The check is made between copies, so that every
    copy runs the whole mix.  Calls do_job(slot, job, lib) per job and
    returns the set-up times."""
    ids = random.Random("ids %d" % args.seed)
    setup_times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lib, pass_jobs = setup(args.workload, args.seed, spaces, ids)
        setup_times.append(time.perf_counter() - t0)
        order = list(range(len(pass_jobs)))
        ids.shuffle(order)
        for slot in order:
            if time.perf_counter() - start >= OVERRUN * args.seconds:
                print("overrun: stopped inside copy %d after %.1fs"
                      % (len(setup_times), time.perf_counter() - start))
                return setup_times
            do_job(slot, pass_jobs[slot], lib)
        now = time.perf_counter()
        # the next boundary is about one copy away: stop here if that is
        # further past --seconds than this one is short of it
        if (len(setup_times) >= MIN_COPIES
                and now - start + (now - t0) / 2 >= args.seconds):
            return setup_times


def run_job(job, lib):
    """(verdict or error string, ok, seconds); never raises."""
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        got = job.run(lib)
    except JobTimeout:
        got = "timeout after %.0fs" % JOB_TIMEOUT_S
    except Exception as exc:  # a failed job is counted, not fatal
        got = "%s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = time.perf_counter() - t0
    return got, got == job.expected, dt


def commit_id():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def percentile(values, q):
    """The q-th percentile, q in 1..99 (statistics.quantiles, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize > 0:
        print("refusing to run under python -O: the library's asserts are "
              "part of its checks", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    print("run: workload=%s seed=%d seconds=%g trace=%d machine=%s "
          "nproc=%d python=%s commit=%s" % (
              args.workload, args.seed, args.seconds, args.trace,
              platform.machine(), os.cpu_count(),
              platform.python_version(), commit_id()))
    # the finite-space census is the generators' fixed table, the same for
    # every seed: built once, outside the timed set-ups
    spaces = jobs.spaces_up_to_homeo(4)
    try:
        if args.trace:
            return traced_run(args, spaces)
        return timed_run(args, spaces)
    except (ImportError, RuntimeError) as exc:
        print("set-up failed: %s" % exc, file=sys.stderr)
        return 2


def timed_run(args, spaces):
    times = {}  # slot -> seconds of each copy
    shapes, failures = {}, []

    def do_job(slot, job, lib):
        got, ok, dt = run_job(job, lib)
        times.setdefault(slot, []).append(dt)
        shapes[slot] = (job.kind, job.describe())
        if not ok:
            failures.append((slot, job, got))

    setup_times = run_copies(args, spaces, do_job)
    attempted = sum(len(ts) for ts in times.values())
    failed_slots = {slot for slot, _, _ in failures}
    for _, job, got in failures[:20]:
        print("FAILED %s: got %r, expected %r" % (job.describe(), got,
                                                  job.expected))
    # A job's time is the median run of its shape (its kind and sizes,
    # whatever the ids) over every copy in the run: the blocks of one shape
    # in a pass (see jobs.py) give the shapes at job_s.p50 and job_s.p90
    # many runs each.
    runs = {}
    for slot, ts in times.items():
        runs.setdefault(shapes[slot], []).extend(ts)
    by_shape = {shape: statistics.median(ts) for shape, ts in runs.items()}
    measured = [by_shape[shapes[slot]] for slot in times]
    by_kind = {}
    for slot, (kind, _) in shapes.items():
        by_kind.setdefault(kind, []).append(by_shape[shapes[slot]])
    for kind, ts in sorted(by_kind.items()):
        print("kind %-22s jobs %-3d median run: median %.4fs max %.4fs"
              % (kind, len(ts), statistics.median(ts), max(ts)))
    print("as run: %d jobs in %d copies, %.4g jobs per job second"
          % (attempted, len(setup_times),
             attempted / sum(sum(ts) for ts in times.values())))
    ok_slots = len(measured) - len(failed_slots)
    metrics = {
        "job_s.p50": (statistics.median(measured), "s"),
        "job_s.p90": (percentile(measured, 90), "s"),
        "jobs_per_s": (ok_slots / sum(measured), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    samples = {"job_s.p50": len(measured), "job_s.p90": len(measured),
               "jobs_per_s": len(measured), "setup_s": len(setup_times),
               "peak_rss_mb": 1}
    for name, (value, unit) in metrics.items():
        print("metric %-12s %.6g %s (samples %d)"
              % (name, value, unit, samples[name]))
    print("metric %-12s %.6g %s (samples %d)"
          % ("failed_frac", len(failures) / attempted, "ratio", attempted))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def traced_run(args, spaces):
    tr = tracer.Tracer()
    count = {"attempted": 0, "failed": 0}
    seconds = {False: 0.0, True: 0.0}  # untraced, traced

    def run(job, lib, traced):
        if not traced:
            return run_job(job, lib)
        tr.install(lib.pkg)
        try:
            return run_job(job, lib)
        finally:
            tr.restore()

    def do_job(slot, job, lib):
        tr.job = count["attempted"]
        # alternate which side runs first, so that neither side is always
        # the second run of the job
        order = (True, False) if tr.job % 2 else (False, True)
        out = {}
        for traced in order:
            out[traced] = run(job, lib, traced)
            seconds[traced] += out[traced][2]
        (got, ok, _), (got_t, ok_t, _) = out[False], out[True]
        count["attempted"] += 1
        if not (ok and ok_t and got == got_t):
            count["failed"] += 1
            print("FAILED %s: untraced %r, traced %r, expected %r"
                  % (job.describe(), got, got_t, job.expected))

    run_copies(args, spaces, do_job)
    attempted, failed = count["attempted"], count["failed"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-%d.jsonl"
                        % (args.workload, args.seed))
    tr.write_spans(path, {"workload": args.workload, "seed": args.seed,
                          "jobs": attempted, "dropped": tr.dropped,
                          "columns": ["job", "depth", "function", "start",
                                      "end"]})
    metrics = tr.metrics(attempted, seconds[True] / seconds[False])
    print("spans: %d written to %s, %d more counted but not kept"
          % (len(tr.spans), path, tr.dropped))
    for name, (value, unit) in metrics.items():
        print("metric %-50s %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
