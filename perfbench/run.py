"""Benchmark runner for ncfps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (algebra, identity, analytic or cli) from the source tree
next to this directory, one job in flight at a time, whole rounds of the
workload's job shapes until S seconds have passed.  Every job's answer is
checked.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics (from wrapped, span-recording calls) with --trace 1.
Lines before it starting with '#' disclose the tail percentile, cache sizes
and known defects; a full report goes to perfbench/out/.  See README.md.
"""

import argparse
import bisect
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from refloop import REF_NOMINAL_S, reference_loop
from spans import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
JOB_TIMEOUT = 30.0
# The child times the reference loop around its own import, because its
# CPU may run at another speed than this process's.
IMPORT_SNIPPET = (
    "import time; from refloop import reference_loop as r; a = [r() for _ in range(3)]; "
    "t = time.perf_counter(); import ncfps.cli; t = time.perf_counter() - t; "
    "a += [r() for _ in range(3)]; print(t, sum(a) / len(a))"
)
# The host's speed drifts by tens of percent within seconds on a shared
# machine.  The reference loop, sampled between jobs, measures that speed, and
# end-to-end times are scaled by REF_NOMINAL_S over the loop's time.
REF_EVERY_S = 0.2


class JobTimeout(BaseException):
    """Raised by the interval timer inside a job that runs too long; a
    BaseException so that no handler in the library swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Speed:
    """Samples of the reference loop's duration over time."""

    def __init__(self):
        self.times, self.refs = [], []

    def sample(self):
        self.times.append(time.perf_counter())
        self.refs.append(reference_loop())

    def tick(self):
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, t0, t1):
        """Nominal over measured reference time, from the last sample before
        t0 through the first sample after t1."""
        i = max(bisect.bisect_right(self.times, t0) - 1, 0)
        j = bisect.bisect_left(self.times, t1)
        return REF_NOMINAL_S / statistics.fmean(self.refs[i : j + 1])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_subprocess(argv, timeout):
    """(exit code, stdout, stderr, timed out) of one child; the child is
    killed and reaped on timeout."""
    try:
        p = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, "", "", True
    return p.returncode, p.stdout, p.stderr, False


def run_cli_child(argv, timeout):
    return run_subprocess([sys.executable, "-m", "ncfps.cli"] + argv, timeout)


def run_cli_inproc(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue(), False


# ---------------------------------------------------------------------------
# caches


def _modules(api):
    return [getattr(api, m) for m in MODULES]


def lru_caches(api):
    out = {}
    for mod in _modules(api):
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{mod.__name__[6:]}.{attr}"] = obj
    return out


def memo_tables(api):
    """Module-level dict memos (names like _TABLES, _QL_CACHE)."""
    out = {}
    for mod in _modules(api):
        for attr, obj in vars(mod).items():
            if isinstance(obj, dict) and attr.isupper() and attr.endswith(("CACHE", "TABLES")):
                out[f"{mod.__name__[6:]}.{attr}"] = obj
    return out


def reset_caches(api):
    for fn in lru_caches(api).values():
        fn.cache_clear()
    for table in memo_tables(api).values():
        table.clear()


def cache_disclosure(api):
    info = {}
    for name, fn in lru_caches(api).items():
        ci = fn.cache_info()
        info[name] = {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}
    for name, table in memo_tables(api).items():
        info[name] = {"entries": len(table)}
    return info


# ---------------------------------------------------------------------------
# running one job


class Outcome:
    """One job's result.  `scaled` is `seconds` scaled to the nominal host
    speed for in-process work.  A child process's wall time stays raw: no
    reference loop timed in this process, or at the child's start, tracks
    the child's speed; their ratio spread wider than the raw times did."""

    __slots__ = ("shape", "start", "seconds", "status", "message", "child", "scaled")

    def __init__(self, shape, start, seconds, status, message="", child=False):
        self.shape, self.start, self.seconds, self.status, self.message = shape, start, seconds, status, message
        self.child = child
        self.scaled = seconds

    def rescale(self, speed):
        if not self.child:
            self.scaled = self.seconds * speed.scale(self.start, self.start + self.seconds)


def judge(job, result):
    """'ok', 'defect' (a known-defect probe still shows it) or 'failed', and
    a message."""
    import oracles

    try:
        verdict = job.check(result)
    except oracles.CheckFailed as exc:
        return "failed", str(exc)
    except Exception as exc:  # a check that crashes on the answer rejects it
        return "failed", f"check raised {type(exc).__name__}: {exc}"
    return ("defect", "known defect") if verdict == "defect" else ("ok", "")


def execute(job, cli=None):
    """Run one job, time it and check its answer.  A command-line job runs as
    a child process, or in-process through `cli` when that is given."""
    t0 = time.perf_counter()
    if job.argv is not None and cli is None:
        result = run_cli_child(job.argv, job.timeout)
        dt = time.perf_counter() - t0
        if result[3] and not job.probe:
            return Outcome(job.shape, t0, dt, "failed", f"timed out after {job.timeout}s", child=True)
        return Outcome(job.shape, t0, dt, *judge(job, result), child=True)
    run = job.run if job.argv is None else (lambda: run_cli_inproc(cli, job.argv))
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, job.timeout or JOB_TIMEOUT)
    try:
        result = run()
        dt = time.perf_counter() - t0
    except JobTimeout:
        return Outcome(job.shape, t0, time.perf_counter() - t0, "failed", "timed out")
    except Exception as exc:
        return Outcome(job.shape, t0, time.perf_counter() - t0, "failed", f"raised {type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return Outcome(job.shape, t0, dt, *judge(job, result))


# ---------------------------------------------------------------------------
# set-up


def measure_interpreter():
    t0 = time.perf_counter()
    if run_subprocess([sys.executable, "-c", "pass"], 60)[0] != 0:
        raise RuntimeError("the interpreter does not start")
    return time.perf_counter() - t0


def measure_import():
    """Seconds the import of ncfps.cli takes inside a fresh interpreter, raw
    and scaled by the reference loop timed in that interpreter."""
    rc, out, err, _ = run_subprocess([sys.executable, "-c", IMPORT_SNIPPET], 120)
    if rc != 0:
        raise RuntimeError(f"importing ncfps failed: {err.strip()[-300:]}")
    seconds, ref = map(float, out.split())
    return seconds, seconds * REF_NOMINAL_S / ref


def warm_up(api, makers, warmup, seed, rep, speed):
    """Clear every cache, then run the warm-up jobs of set-up `rep`."""
    reset_caches(api)
    rng = random.Random(f"{seed}:warmup:{rep}")
    outs = []
    for shape in warmup:
        job = makers[shape](rng)
        speed.tick()
        outs.append(execute(job))
    return outs


def setup(api, makers, warmup, seed, speed):
    """Set up SETUP_REPEATS times: a fresh interpreter importing ncfps,
    cleared caches, warm-up inputs from their own stream, warm-up jobs.
    Returns the scaled set-up seconds of each repeat, the import and
    interpreter timings, and any warm-up failures."""
    times, imports, interps, failures = [], [], [], []
    for rep in range(SETUP_REPEATS):
        interps.append(measure_interpreter())
        raw, scaled = measure_import()
        imports.append(raw)
        t0 = time.perf_counter()
        outs = warm_up(api, makers, warmup, seed, rep, speed)
        between = time.perf_counter() - t0 - sum(o.seconds for o in outs)
        speed.sample()
        for o in outs:
            o.rescale(speed)
            if o.status == "failed":
                failures.append(f"warm-up {o.shape}: {o.message}")
        times.append(scaled + between + sum(o.scaled for o in outs))
    return times, imports, interps, failures


# ---------------------------------------------------------------------------
# the measured loop


def in_process(job, api, tracer=None):
    """Run a job in this process, under `tracer` if one is given; a
    command-line job goes through ncfps.cli.main."""
    cli = api.cli if job.argv is not None else None
    if tracer is None:
        return execute(job, cli)
    with tracer:
        return execute(job, cli)


def measure(api, makers, rounds_of, seconds, seed, speed, tracer=None):
    """Whole rounds of job shapes, cycling through `rounds_of`, while the
    time spent plus half the last round's stays under `seconds`.  With a
    tracer, every job but the probes runs once in-process and traced: an
    in-process job instead of its untraced run, a command-line job after its
    child process.  Returns the outcomes, the rounds, the wall time and the
    traced outcomes."""
    rng = random.Random(f"{seed}:timed")
    outcomes, traced = [], []
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds == 0 or time.perf_counter() - start + last / 2 < seconds:
        order = rounds_of[rounds % len(rounds_of)]
        rounds += 1
        began = time.perf_counter()
        for shape in order:
            job = makers[shape](rng)
            speed.tick()
            if tracer is None or job.probe:
                outcomes.append(execute(job))
                continue
            if job.argv is not None:
                outcomes.append(execute(job))
            tracer.job = len(traced)
            traced.append(in_process(job, api, tracer))
            if job.argv is None:
                outcomes.append(traced[-1])
            elif traced[-1].status == "failed":
                traced[-1].message = "in-process: " + traced[-1].message
                outcomes[-1] = traced[-1]
        last = time.perf_counter() - began
    speed.sample()
    for o in outcomes + traced:
        o.rescale(speed)
    return outcomes, rounds, time.perf_counter() - start, traced


def replay(api, makers, rounds_of, warmup, seed, rounds, speed):
    """The in-process runs of a traced measure() again, untraced, for the
    tracing overhead: the first `rounds` rounds of the same stream, after
    the last set-up's warm-up has run again on cleared caches.  Each job so
    meets the inputs and the cache state of its traced run."""
    warm_up(api, makers, warmup, seed, SETUP_REPEATS - 1, speed)
    rng = random.Random(f"{seed}:timed")
    out = []
    for r in range(rounds):
        for shape in rounds_of[r % len(rounds_of)]:
            job = makers[shape](rng)
            speed.tick()
            if not job.probe:
                out.append(in_process(job, api))
    speed.sample()
    for o in out:
        o.rescale(speed)
    return out


def tail_index(n):
    """Index, in ascending order, of the highest percentile that leaves at
    least ten samples above it, and that percentile."""
    if n <= 10:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# metrics


def end_to_end(outcomes, setup_times, children):
    times = sorted(o.scaled for o in outcomes)
    n = len(times)
    failed = sum(o.status == "failed" for o in outcomes)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_p50_ms": (1000 * statistics.median(times), "ms"),
        "job_tail_ms": (1000 * times[tail_index(n)[0]], "ms"),
        "correct_share": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ncfps" / "__init__.py").is_file():
        print(f"error: no ncfps source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    api = workloads.Api()
    makers, rounds_of, warmup = workloads.build(args.workload, api, ROOT)
    speed = Speed()
    setup_times, imports, interps, failures = setup(api, makers, warmup, args.seed, speed)

    tracer = layers.make_tracer(api) if args.trace else None
    outcomes, rounds, wall, traced = measure(api, makers, rounds_of, args.seconds, args.seed, speed, tracer)

    failed = [o for o in outcomes if o.status == "failed"]
    defects = [o for o in outcomes if o.status == "defect"]
    failures += [f"{o.shape}: {o.message}" for o in failed]
    caches = cache_disclosure(api)
    n = len(outcomes)
    if args.trace:
        untraced = replay(api, makers, rounds_of, warmup, args.seed, rounds, speed)
        failures += [f"untraced {o.shape}: {o.message}" for o in untraced if o.status == "failed"]
        metrics = layers.per_layer(tracer, api, outcomes, traced, untraced, imports, interps, len(defects))
    else:
        metrics = end_to_end(outcomes, setup_times, args.workload == "cli")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "wall_s": wall,
        "jobs": n,
        "tail_percentile": tail_index(n)[1],
        "setup_s": setup_times,
        "reference_loop_ms": [1000 * r for r in speed.refs],
        "known_defects": [o.shape for o in defects],
        "failures": failures,
        "caches": caches,
        "peak_rss_mb": rss,
        "peak_rss_children_mb": rss_children,
        "jobs_ms": [(o.shape, 1000 * o.seconds, 1000 * o.scaled, o.status) for o in outcomes],
        "metrics": metrics,
    }
    if tracer is not None:
        report["spans"] = tracer.report()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))

    pct = report["tail_percentile"]
    print(f"# {args.workload} seed {args.seed}: {n} jobs in {rounds} rounds, {wall:.1f}s; tail is p{pct:.1f}")
    for line in failures:
        print(f"# FAILED {line}")
    if defects:
        print(f"# known defects still present: {', '.join(sorted({o.shape for o in defects}))} ({len(defects)} calls)")
    print(f"# peak RSS {rss:.1f} MB, children {rss_children:.1f} MB; caches {json.dumps(caches, sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": n,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
