"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_smoke.py -q

Each workload runs at one task, untraced and traced; every metric that
BENCHMARK.json names is printed with its unit, and so is every end-to-end
metric of the human-readable report. A corrupted oracle field or classifier
witness counts as a failed task instead of stopping the run.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

REPORT_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s",
                "task_tail_s": "s", "failed_frac": "ratio",
                "peak_rss_mb": "MB"}


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--max-tasks", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_one_task(workload):
    report, result = bench(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    assert result["attempted"] == 1
    for name, unit in REPORT_UNITS.items():
        line = next(x for x in report if x.startswith(name + " "))
        assert f" {unit} (" in line and "n=" in line, line
    env = json.loads(next(x for x in report if x.startswith("env "))[4:])
    assert {"nproc", "cpu", "python", "numpy", "blas", "blas_threads",
            "seed"} <= set(env)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_one_task(workload):
    report, result = bench(workload, 1)
    check_metrics(result, SPEC["per_layer"])
    m = result["metrics"]
    covered = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
    wall = m["bench.task.wall_s"]["value"]
    assert covered + m["bench.task.other_s"]["value"] == pytest.approx(wall)
    assert any(x.startswith("accounting:") for x in report)


def test_corrupted_oracle_counts_as_failure(monkeypatch):
    real = workloads.moyal.von_neumann_oracle

    def corrupted(T0, hamiltonian, run):
        out = real(T0, hamiltonian, run)
        t, T = out[-1]
        bad = T.matrix.copy()
        bad[0, 0] += 1e-2
        out[-1] = (t, type(T)(bad, T.rep, T.space, T.tol))
        return out

    monkeypatch.setattr(workloads.moyal, "von_neumann_oracle", corrupted)
    times, failures, _ = worker.run_loop(workloads.EvolveD1(7), 0.0,
                                         max_tasks=1)
    assert len(times) == 1
    assert len(failures) == 1 and "vs oracle" in failures[0][2]


def test_corrupted_classifier_counts_as_failure(monkeypatch):
    real = workloads.feedback.classify_coupling

    def corrupted(K, layout):
        verdict = real(K, layout)
        return dataclasses.replace(verdict, witness_a=1.01 * verdict.witness_a)

    monkeypatch.setattr(workloads.feedback, "classify_coupling", corrupted)
    times, failures, _ = worker.run_loop(workloads.FeedbackD2(7), 0.0,
                                         max_tasks=1)
    assert len(times) == 1
    assert len(failures) == 1 and "witness_a" in failures[0][2]


def test_pair_by_time_rejects_shifted_times():
    times = [0.0, 0.1, 0.2]
    good = [(t, t) for t in times]
    shifted = [(0.0, 0), (0.0995, 1), (0.2, 2)]
    assert workloads.pair_by_time(good, good, times)[1] is None
    assert "moyal" in workloads.pair_by_time(shifted, good, times)[1]
    assert "oracle" in workloads.pair_by_time(good, good[:2], times)[1]
    assert np.isclose(worker.tail_percentile(list(range(20)))[0], 9)
