#!/usr/bin/env python3
"""Memory of the two-mode grid exact scenario, in D x D buffers.

Builds the exact leg of the `feedback_d2` benchmark on two grid factors of
n points each (D = n^2): the coupling K = 0.4 qq + 0.1 pp, the Hamiltonian
H, the classifier's verdict on K and a rank-1 product T0, then runs
`run_scenario` to t = 0.1 (two snapshots). It prints the `tracemalloc`
figures in units of one D x D complex buffer (16 D^2 bytes) and the
process's peak resident memory (`ru_maxrss`):

    python scripts/cap_memory.py --n 32     # feedback_d2's grid, D = 1024
    python scripts/cap_memory.py --n 64     # the run cap, D = 4096

At n = 64 one buffer is 256 MiB and the run needs about 1.6 GB. The script
exits non-zero if T0's D x D matrix was formed or the peak goes over
PEAK_BUFFERS buffers.
"""

import argparse
import resource
import sys
import time
import tracemalloc

import numpy as np

from wignerlab import feedback, hilbert, lattice, moyal, states, weyl
from wignerlab.tolerances import TolerancePolicy

HALF_WIDTH = {32: 7.2, 64: 10.0}    # feedback_d2's grid and the cap's
# H, K and the witness held, plus T(t), the Wigner map's output and its work
# buffer during the run: 6.00 read at n = 64 and 6.02 at n = 32
PEAK_BUFFERS = 6.25


def symbol(q, p):
    return weyl.HamiltonianSymbol((((q,), (p,), 1.0),), d=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--n", type=int, default=32, choices=sorted(HALF_WIDTH),
                    help="grid points per factor (D = n^2)")
    args = ap.parse_args()
    L = HALF_WIDTH[args.n]

    tracemalloc.start()
    start = time.perf_counter()
    tol = TolerancePolicy(imaginary_residue=1e-5, domain_tail_mass=1e-9,
                          boundary_mass=1e-4)
    spec = lattice.make_phase_space(1, args.n, L, [[1.0]], tol)
    layout = feedback.SubsystemLayout({"P1": spec, "C1": spec})
    D = layout.dim
    osc = weyl.weyl_quantize(weyl.HamiltonianSymbol(
        (((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1), spec)
    q = weyl.weyl_quantize(symbol(1, 0), spec)
    p = weyl.weyl_quantize(symbol(0, 1), spec)
    K = 0.4 * np.kron(q, q) + 0.1 * np.kron(p, p)
    H = feedback.build_general_hamiltonian(osc, osc, K, layout)
    verdict = feedback.classify_coupling(K, layout)
    T0 = hilbert.tensor(
        hilbert.pure_density(states.displaced_state(spec, 1.0, 0.0)),
        hilbert.pure_density(states.ground_state(spec)), layout.system())
    run = moyal.EvolutionRun(dt=1e-2, t_end=0.1, stride=10)

    held, setup_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    res = feedback.run_scenario(layout, H, T0, run, h_plant=osc)
    run_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    wall = time.perf_counter() - start

    buf = 16 * D * D
    print(f"D = {D}: two n = {args.n}, L = {L:g} factors; classifier "
          f"verdict {verdict.kind}; {len(res.times)} snapshots to "
          f"t = {run.t_end:g}; square residual "
          f"{res.square_residuals.max():.1e}; {wall:.1f} s")
    print(f"held after set-up: {held / buf:.2f} D x D buffers "
          f"(T0 matrix formed: {'matrix' in vars(T0)})")
    print(f"set-up peak:       {setup_peak / buf:.2f}")
    print(f"run_scenario adds: {(run_peak - held) / buf:.2f}")
    peak = max(setup_peak, run_peak) / buf
    print(f"tracemalloc peak:  {peak:.2f} "
          f"D x D buffers ({peak * buf / 2**20:,.0f} MiB)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ru_maxrss:         {rss:,.0f} MB")
    if "matrix" in vars(T0) or peak > PEAK_BUFFERS:
        sys.exit(f"over the budget: T0's matrix must stay unformed and the "
                 f"peak within {PEAK_BUFFERS} D x D buffers")


if __name__ == "__main__":
    main()
