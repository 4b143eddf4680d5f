"""One benchmark process: set up a workload, run its tasks, write a result.

    python3 bench/worker.py --mode {setup,run,trace} --workload NAME
        --seed N --seconds S --out RESULT.json [--max-tasks N] [--quench-probe]

`setup` times a fresh process's import and input generation and exits;
`run` also runs a closed loop of tasks (one at a time) for S seconds,
stopping at the end of a whole round of task kinds, and with --quench-probe
the off-lattice quench probe after it. `trace` wraps the library's public
functions first, then runs traced and untraced rounds in turn: the traced
rounds give the per-layer metrics, and both together the tracing overhead.

The BLAS thread count is read from the environment before numpy is imported;
run.py sets it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def tail_percentile(times, beyond=10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, count) or None when there are too few tasks.
    The value is the (beyond+1)-th largest sample.
    """
    n = len(times)
    if n <= beyond:
        return None
    ordered = sorted(times)
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def run_task(workload, i, tracer=None):
    """Run task i; return (seconds, reason). A raised task is a failed task."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            reason = workload.task(i)
        else:
            reason = tracer.run_task(i, workload.task, i)
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, reason


def run_loop(workload, seconds, max_tasks=None):
    """Closed loop: one task at a time until `seconds` pass on a whole round.

    At least one whole round runs, unless `max_tasks` stops the loop first.
    """
    kinds = len(workload.kinds)
    times, failures = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if max_tasks is not None and i >= max_tasks:
            break
        if i and i % kinds == 0 and time.perf_counter() - start >= seconds:
            break
        dt, reason = run_task(workload, i)
        times.append(dt)
        if reason:
            failures.append((i, workload.kinds[i % kinds], reason))
        i += 1
    return times, failures, time.perf_counter() - start


def run_alternating(workload, seconds, tracer, max_tasks=None):
    """Untraced and traced whole rounds in pairs, after one warm-up round.

    Each pair of rounds runs the same tasks untraced and traced. Both
    conditions meet the host at the same moments, so the ratio of their wall
    times shows the cost of tracing rather than the host's drift. The loop
    ends on a whole pair once `seconds` pass; with `max_tasks`, each round is
    cut to that many tasks and one pair runs.
    Returns ({False: times, True: times}, failures, warm-up task count).
    """
    kinds = len(workload.kinds)
    size = kinds if max_tasks is None else min(kinds, max_tasks)
    times = {False: [], True: []}
    failures = []
    start = time.perf_counter()
    for r in itertools.count(-1):       # round -1 warms up, uncounted
        pair, second = divmod(r, 2)
        # pairs run untraced-traced, then traced-untraced, so drift cancels
        traced = r >= 0 and (pair + second) % 2 == 1
        tracer.on = traced
        first = (pair + 1) * size       # a pair runs the same tasks twice
        for i in range(first, first + size):
            dt, reason = run_task(workload, i, tracer if traced else None)
            if r >= 0:
                times[traced].append(dt)
            if reason:
                failures.append((i, workload.kinds[i % kinds], reason))
        if r < 0:
            start = time.perf_counter()
        elif second and (max_tasks is not None
                         or time.perf_counter() - start >= seconds):
            return times, failures, size


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-tasks", type=int)
    ap.add_argument("--out", required=True)
    ap.add_argument("--quench-probe", action="store_true",
                    help="after an evolve_d1 run, run the untimed quench probe")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    import workloads  # imports wignerlab: part of the timed set-up
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, ROOT, scratch)
    result = {"setup_s": time.perf_counter() - T_START}
    try:
        if args.mode == "run":
            times, failures, wall = run_loop(workload, args.seconds,
                                             args.max_tasks)
            result.update({
                "attempted": len(times),
                "failures": failures,
                "wall_s": wall,
                "tasks_per_s": len(times) / wall,
                "task_p50_s": statistics.median(times),
                "task_tail": tail_percentile(times),
            })
            if args.quench_probe and args.workload == "evolve_d1":
                result["quench_probe"] = workloads.quench_probe(args.seed)
        elif args.mode == "trace":
            times, failures, warm = run_alternating(
                workload, args.seconds, tracer, args.max_tasks)
            n = len(times[True])
            result.update({
                "attempted": warm + 2 * n,
                "failures": failures,
                "traced_tasks": n,
                "warm_up_tasks": warm,
                "untraced_wall_s": sum(times[False]),
                "traced_wall_s": sum(times[True]),
                "layers": tracer.layer_metrics(n),
            })
            spans = os.path.join(
                scratch, f"spans-{args.workload}-{args.seed}.csv")
            tracer.write(spans)
            result["spans_file"] = spans
    finally:
        workload.close()
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
