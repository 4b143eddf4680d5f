"""Size sweep: per-call medians of single layers at several sizes (not gated).

    python3 bench/sweep.py [--out PATH]

Times, at each size, the engine's forward (density_to_wigner) and inverse
(wigner_to_density) transforms, moyal_rhs, one RK4 step of evolve, the
oracle's eigh and save_field_csv. Each entry is the median over repeats
(at least 3, more while BUDGET_S seconds per entry last). The table is
printed and written as JSON (default .bench_out/sweep.json) with the
environment, so scaling claims (n^3 vs n^2 log n, d=1 vs d=2) have a source.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402

THREADS = min(bench_run.nproc(), bench_run.MAX_THREADS)
for _var in bench_run.THREAD_VARS:
    os.environ[_var] = str(THREADS)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from wignerlab import engine, feedback, hilbert, lattice, moyal, serialize, \
    states, weyl, wigner  # noqa: E402
import workloads  # noqa: E402


BUDGET_S = 1.0


def timed(fn, min_reps=3, max_reps=50):
    """Median seconds per call of fn() over repeats within BUDGET_S seconds."""
    samples = []
    start = time.perf_counter()
    while len(samples) < max_reps and (
            len(samples) < min_reps or time.perf_counter() - start < BUDGET_S):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples)


def grid_state(n, L):
    spec = lattice.make_phase_space(1, n, L, [[1.0]])
    return spec, states.random_mixed(spec, np.random.default_rng(0), rank=4)


def composite_state():
    s = workloads.spec32c()
    layout = feedback.SubsystemLayout({"P1": s, "C1": s})
    T = hilbert.tensor(hilbert.pure_density(states.displaced_state(s, 1.0, 0.0)),
                       hilbert.pure_density(states.ground_state(s)),
                       layout.system())
    return s, layout, T


def entries(scratch):
    osc1 = workloads.OSC
    osc2 = weyl.HamiltonianSymbol(
        (((2, 0), (0, 0), 0.5), ((0, 2), (0, 0), 0.5),
         ((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5)), d=2)
    for n, L in ((64, 10.0), (128, 14.0), (256, 20.0), (512, 28.0)):
        spec, T = grid_state(n, L)
        axes = spec.axis_geometry()
        W = engine.density_to_wigner(T.matrix, axes)
        yield ("engine.density_to_wigner", f"d=1 n={n}",
               timed(lambda: engine.density_to_wigner(T.matrix, axes)))
        yield ("engine.wigner_to_density", f"d=1 n={n}",
               timed(lambda: engine.wigner_to_density(W, axes)))
    s, layout, T = composite_state()
    axes = [(s.n_per_axis, s.half_width)] * 2
    W = engine.density_to_wigner(T.matrix, axes)
    yield ("engine.density_to_wigner", "d=2 n=32",
           timed(lambda: engine.density_to_wigner(T.matrix, axes)))
    yield ("engine.wigner_to_density", "d=2 n=32",
           timed(lambda: engine.wigner_to_density(W, axes)))

    for n, L in ((64, 10.0), (128, 14.0), (256, 20.0)):
        spec = lattice.make_phase_space(1, n, L, [[1.0]])
        W = states.analytic_gaussian_wigner(spec, 1.0, 0.5)
        gen = moyal.MoyalGenerator(osc1, spec, truncation=1)
        yield ("moyal.moyal_rhs", f"d=1 n={n} K=1",
               timed(lambda: moyal.moyal_rhs(W, gen)))
    spec2 = lattice.make_phase_space(2, s.n_per_axis, s.half_width,
                                     np.eye(2).tolist(), s.tol)
    W2 = states.analytic_gaussian_wigner(spec2, [1.0, 0.0], [0.0, 0.0])
    gen2 = moyal.MoyalGenerator(osc2, spec2, truncation=1)
    yield ("moyal.moyal_rhs", "d=2 n=32 K=1",
           timed(lambda: moyal.moyal_rhs(W2, gen2)))

    lab = workloads.lab64()
    W0 = wigner.wigner_from_density(
        hilbert.pure_density(states.displaced_state(lab, 2.0, 0.0)))
    gen = moyal.MoyalGenerator(osc1, lab, truncation=1)
    steps = 50
    run = moyal.EvolutionRun(dt=1e-3, t_end=steps * 1e-3, stride=steps)
    per_run, reps = timed(lambda: moyal.evolve(W0, gen, run))
    yield ("moyal.evolve RK4 step", "d=1 n=64 K=1", (per_run / steps, reps))

    for label, spec in (("D=64", lab),
                        ("D=256", lattice.make_phase_space(1, 256, 20.0,
                                                           [[1.0]]))):
        H = weyl.weyl_quantize(osc1, spec)
        yield ("oracle eigh", label, timed(lambda: np.linalg.eigh(H)))
    q = weyl.weyl_quantize(weyl.HamiltonianSymbol((((1,), (0,), 1.0),), d=1), s)
    h1 = weyl.weyl_quantize(osc1, s)
    H = feedback.build_general_hamiltonian(h1, h1, 0.4 * np.kron(q, q), layout)
    yield ("oracle eigh", "D=1024", timed(lambda: np.linalg.eigh(H)))

    for n, L in ((64, 10.0), (256, 20.0)):
        spec, T = grid_state(n, L)
        field = wigner.wigner_from_density(T)
        path = os.path.join(scratch, f"sweep-{os.getpid()}-{n}.csv")
        yield ("serialize.save_field_csv", f"d=1 n={n}",
               timed(lambda: serialize.save_field_csv(field, path)))
        os.remove(path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out",
                                                  "sweep.json"))
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    rows = []
    for name, size, (median, reps) in entries(scratch):
        rows.append({"name": name, "size": size, "median_ms": 1e3 * median,
                     "repeats": reps})
        print(f"{name:28s} {size:16s} {1e3 * median:12.4f} ms  (n={reps})",
              flush=True)
    report = {"env": bench_run.environment(None, THREADS), "rows": rows}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
