#!/usr/bin/env python3
"""Twin-run demo: Moyal evolution vs the density-operator oracle.

Evolves a displaced Gaussian for one full oscillator period and writes the
per-snapshot error series plus diagnostics to CSV.
"""

import argparse
import math
import os

import numpy as np

from wignerlab import make_phase_space, pure_density
from wignerlab.moyal import EvolutionRun
from wignerlab.serialize import (make_out_dir, save_diagnostics_csv,
                                 save_series_csv)
from wignerlab.states import displaced_state
from wignerlab.verify import OSC, check_oracle_agreement, worst_error


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/harmonic")
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--displacement", type=float, default=2.0)
    args = ap.parse_args()
    make_out_dir(args.out)

    spec = make_phase_space(1, 64, 10.0, [[1.0]])
    T0 = pure_density(displaced_state(spec, args.displacement, 0.0))
    run = EvolutionRun(dt=args.dt, t_end=2 * math.pi, stride=785)
    errors, res = check_oracle_agreement(T0, OSC, 1, run)

    rows = {"t": [t for t, _ in errors],
            "max_abs_error": [e for _, e in errors]}
    save_series_csv(rows, os.path.join(args.out, "compare.csv"))
    save_diagnostics_csv(res.diagnostics, os.path.join(args.out,
                                                       "diagnostics.csv"))
    W0 = res.snapshots[0][1]
    ret = float(np.abs(res.final_field.values - W0.values).max())
    print(f"max error vs oracle: {worst_error(errors):.3e}")
    print(f"closed-orbit return error at t = 2 pi: {ret:.3e}")
    print(f"wrote {args.out}/compare.csv and diagnostics.csv")


if __name__ == "__main__":
    main()
