"""wignerlab benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload {evolve_d1,transform_d1,feedback_d2,cli_batch}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
`src/`. Every workload process is a fresh `bench/worker.py` with the BLAS
thread count fixed through the environment before numpy loads.

--trace 0: SETUPS fresh processes time the set-up (median reported), then
one process runs the closed task loop for S seconds and reports the
end-to-end metrics.
--trace 1: two thirds of the S seconds go to one process that runs each
round of tasks untraced, then traced (per-layer metrics, and the tracing
overhead from the two at the same moments); the last third to an untraced
loop with one BLAS thread (the single-threaded baseline).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The human-readable report above it gives units,
sample counts, tail percentiles, failure reasons and the environment.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("evolve_d1", "transform_d1", "feedback_d2", "cli_batch")
SETUPS = 5
DEADLINE_S = 170        # the whole run, all worker processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_THREADS = 2
REQUIRED = ("src/wignerlab/__init__.py", "configs/harmonic.json",
            "configs/feedback_levels.json")


class BenchError(Exception):
    pass


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(threads):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_worker(mode, workload, seed, seconds, threads, max_tasks=None,
               quench_probe=False):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"result-{os.getpid()}-{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", out]
    if max_tasks is not None:
        cmd += ["--max-tasks", str(max_tasks)]
    if quench_probe:
        cmd.append("--quench-probe")
    timeout = DEADLINE_S - (time.monotonic() - STARTED)
    try:
        proc = subprocess.run(cmd, env=child_env(threads), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker still running {DEADLINE_S} s "
                         "into the run; stopped")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(out) as f:
        result = json.load(f)
    os.remove(out)
    return result


def environment(seed, threads):
    import numpy  # the parent's numpy matches the workers'
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": nproc(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": threads, "seed": seed}


def report(name, value, unit, note):
    shown = value if isinstance(value, str) else f"{value:.6g}"
    return f"{name:12s} {shown} {unit} ({note})"


def end_to_end(workload, seed, seconds, threads, max_tasks=None):
    setups = [run_worker("setup", workload, seed, 0.0, threads)["setup_s"]
              for _ in range(SETUPS)]
    res = run_worker("run", workload, seed, seconds, threads, max_tasks,
                     quench_probe=True)
    n = res["attempted"]
    failed = len(res["failures"])
    lines = [
        report("setup_s", statistics.median(setups), "s",
               f"median of n={SETUPS} fresh processes"),
        report("tasks_per_s", res["tasks_per_s"], "1/s",
               f"n={n} tasks in {res['wall_s']:.3f} s"),
        report("task_p50_s", res["task_p50_s"], "s", f"n={n}"),
    ]
    tail = res["task_tail"]
    if tail is None:
        lines.append(report("task_tail_s", "n/a", "s",
                            f"n={n}: fewer than 11 tasks"))
    else:
        value, pct, count = tail
        lines.append(report("task_tail_s", value, "s",
                            f"p{pct:.1f}, n={count}, 10 beyond"))
    lines += [
        report("failed_frac", failed / n, "ratio", f"{failed} of n={n}"),
        report("peak_rss_mb", res["peak_rss_mb"], "MB",
               "n=1 workload process"),
    ]
    for i, kind, reason in res["failures"]:
        lines.append(f"failed task {i} ({kind}): {reason}")
    probe = res.get("quench_probe")
    if probe:
        bad = [(b, r) for b, r in probe if r]
        lines.append(f"quench probe (off-lattice breakpoint, not timed): "
                     f"{len(bad)}/{len(probe)} failed")
        for b, reason in probe:
            lines.append(f"  breakpoint {b:.6g}: {reason or 'ok'}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (res["tasks_per_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return lines, metrics, n, failed


def traced(workload, seed, seconds, threads, max_tasks=None):
    trace = run_worker("trace", workload, seed, seconds * 2 / 3, threads,
                       max_tasks)
    single = run_worker("run", workload, seed, seconds / 3, 1, max_tasks)
    metrics = {name: tuple(v) for name, v in trace["layers"].items()}
    # equal task counts, so 1 - traced/untraced tasks_per_s is a wall ratio
    metrics["trace.overhead_frac"] = (
        1.0 - trace["untraced_wall_s"] / trace["traced_wall_s"], "ratio")
    metrics["bench.one_thread.tasks_per_s"] = (single["tasks_per_s"], "1/s")
    metrics["bench.one_thread.task_p50_s"] = (single["task_p50_s"], "s")
    n = trace["traced_tasks"]
    wall = metrics["bench.task.wall_s"][0]
    covered = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    lines = [f"traced tasks: {n}; the same {n} untraced; warm-up "
             f"{trace['warm_up_tasks']}; one-thread {single['attempted']}",
             f"spans written to {os.path.relpath(trace['spans_file'], ROOT)}",
             f"accounting: sum(self_s) + other_s = "
             f"{covered + metrics['bench.task.other_s'][0]:.6g} s of "
             f"{wall:.6g} s traced task wall time"]
    shares = sorted(((v / wall if wall else 0.0, k[:-len(".self_s")])
                     for k, (v, _) in metrics.items()
                     if k.endswith(".self_s") and v > 0), reverse=True)
    for share_, name in shares[:6]:
        lines.append(f"  self share {share_:7.2%}  {name}")
    runs = (trace, single)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    for r in runs:
        for i, kind, reason in r["failures"]:
            lines.append(f"failed task {i} ({kind}): {reason}")
    return lines, metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-tasks", type=int,
                    help="stop each loop after this many tasks (smoke runs)")
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a wignerlab checkout, missing {missing}",
              file=sys.stderr)
        return 2
    threads = min(nproc(), MAX_THREADS)
    env = environment(args.seed, threads)
    mode = traced if args.trace else end_to_end
    try:
        lines, metrics, attempted, failed = mode(
            args.workload, args.seed, args.seconds, threads, args.max_tasks)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
