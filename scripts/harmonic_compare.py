#!/usr/bin/env python3
"""Twin-run demo: Moyal evolution vs the density-operator oracle.

Evolves a displaced Gaussian for one full oscillator period and writes the
per-snapshot error series plus diagnostics to CSV.
"""

import argparse
import math
import os

import numpy as np

from wignerlab import (HamiltonianSymbol, make_phase_space, pure_density,
                       wigner_from_density)
from wignerlab.moyal import EvolutionRun, MoyalGenerator, evolve, \
    pair_snapshots, von_neumann_oracle
from wignerlab.serialize import save_diagnostics_csv, save_series_csv
from wignerlab.states import displaced_state


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/harmonic")
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--displacement", type=float, default=2.0)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    spec = make_phase_space(1, 64, 10.0, [[1.0]])
    osc = HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)
    T0 = pure_density(displaced_state(spec, args.displacement, 0.0))
    W0 = wigner_from_density(T0)

    run = EvolutionRun(dt=args.dt, t_end=2 * math.pi, stride=785)
    res = evolve(W0, MoyalGenerator(osc, spec, truncation=1), run)
    oracle = von_neumann_oracle(T0, osc, run)

    rows = {"t": [], "max_abs_error": []}
    for t, f, Tt in pair_snapshots(res.snapshots, oracle):
        rows["t"].append(t)
        rows["max_abs_error"].append(
            float(np.abs(f.values - wigner_from_density(Tt).values).max()))
    save_series_csv(rows, os.path.join(args.out, "compare.csv"))
    save_diagnostics_csv(res.diagnostics, os.path.join(args.out,
                                                       "diagnostics.csv"))
    ret = float(np.abs(res.final_field.values - W0.values).max())
    print(f"max error vs oracle: {max(rows['max_abs_error']):.3e}")
    print(f"closed-orbit return error at t = 2 pi: {ret:.3e}")
    print(f"wrote {args.out}/compare.csv and diagnostics.csv")


if __name__ == "__main__":
    main()
