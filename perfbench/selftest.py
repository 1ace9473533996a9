"""Self-test of the benchmark's answer checking.

    python3 perfbench/selftest.py

Shows that a job is counted as failed when it gives a wrong answer, raises,
or runs past its time limit (in-process and as a child process), and that
every workload's checks reject a corrupted answer.  Exits 0 when every case
is flagged as it should be, 1 otherwise.
"""

import random
import sys
import time

import run
from oracles import require


def _fake(shape, fn, check=lambda r: require(r == 42, f"answer {r!r} is not 42"), timeout=None):
    import workloads

    return workloads.Job(shape, run=fn, check=check, timeout=timeout)


def _corrupt(workload, result):
    """A wrong answer of the same kind as a workload's result."""
    if isinstance(result, list):  # a batch: corrupt its first answer
        return [_corrupt(workload, result[0])] + result[1:]
    if workload == "identity":
        return not result
    if workload == "algebra":
        if isinstance(result, tuple):  # msr jobs: (table, (ok, report))
            return result[0], (False, result[1][1])
        return result.scale(2)
    if workload == "analytic":
        if hasattr(result, "values"):  # an evaluation: nudge every value
            values = {w: v * (1 + 1e-6) if w else v for w, v in result.values.items()}
            r = result
            return type(r)(r.alphabet, r.inputs, r.path, r.bound, values, r.errors, r.excluded)
        first, second = result
        if isinstance(second, float):  # pairing jobs: move the ODE value
            return first, second + 1e-3
        return first, [second[0] + 1] + list(second[1:])  # derive jobs: change a_0
    rc, out, err, timed_out = result  # a command line: stray output, or success on bad input
    return (0, out + "\nx", err, timed_out) if rc == 0 else (0, out, err, timed_out)


def main():
    if not run.SRC.joinpath("ncfps", "__init__.py").is_file():
        print(f"error: no ncfps source tree at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import workloads

    results = []

    def expect(label, outcome, status):
        ok = outcome.status == status
        results.append(ok)
        print(f"{'ok  ' if ok else 'BAD '} {label}: {outcome.status} ({outcome.message})")

    expect("right answer", run.execute(_fake("right", lambda: 42)), "ok")
    expect("wrong answer", run.execute(_fake("wrong", lambda: 41)), "failed")
    expect("exception", run.execute(_fake("raises", lambda: 1 / 0)), "failed")
    expect("in-process timeout", run.execute(_fake("sleeps", lambda: time.sleep(5), timeout=0.3)), "failed")
    hang = workloads.Job(
        "hang", argv=["chen", "--inputs", "x0=1/(z-100000000000000000000000000003)", "--z0", "0", "--z", "1"],
        check=lambda r: None, timeout=1.0,
    )
    expect("child-process timeout", run.execute(hang), "failed")

    api = workloads.Api()
    for name in workloads.NAMES:
        makers, _, _ = workloads.build(name, api, run.ROOT)
        rng = random.Random(f"selftest:{name}")
        for shape, make in makers.items():
            job = make(rng)
            if job.argv is not None:
                result = run.run_cli_child(job.argv, job.timeout)
                if result[3]:
                    continue  # a known-defect probe that hangs: nothing to corrupt
            else:
                result = job.run()
            bad = _corrupt(name, result)
            status, message = run.judge(job, bad)
            ok = status == "failed"
            results.append(ok)
            print(f"{'ok  ' if ok else 'BAD '} {name} {shape} corrupted answer: {status} ({message[:80]})")

    print(f"{sum(results)} of {len(results)} cases flagged as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
