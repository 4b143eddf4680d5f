#!/usr/bin/env python3
"""Cat-state Wigner negativity: CSV heatmap data plus a gnuplot script.

The odd cat reaches the extremal value -1/pi at the phase-space origin; the
even cat's interference dip is shallower. Both are reported.
"""

import argparse
import math
import os

from wignerlab import make_phase_space, pure_density, wigner_from_density
from wignerlab.serialize import gnuplot_script, make_out_dir, save_field_csv
from wignerlab.states import cat_state
from wignerlab.tolerances import TolerancePolicy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/cat")
    ap.add_argument("--separation", type=float, default=2.0)
    args = ap.parse_args()
    make_out_dir(args.out)

    tol = TolerancePolicy(boundary_mass=5e-3, imaginary_residue=1e-6)
    spec = make_phase_space(1, 64, 8.0, [[1.0]], tol)
    for parity in ("even", "odd"):
        T = pure_density(cat_state(spec, args.separation, parity))
        W = wigner_from_density(T)
        csv = os.path.join(args.out, f"cat_{parity}.csv")
        save_field_csv(W, csv)
        gnuplot_script(csv, os.path.join(args.out, f"cat_{parity}.gp"),
                       title=f"{parity} cat, a = {args.separation}")
        print(f"{parity:>5} cat: min W = {W.values.min():+.6f} "
              f"(-1/pi = {-1 / math.pi:.6f}), "
              f"mass = {W.integrate().real:.12f}")
    print(f"wrote heatmap CSVs and gnuplot scripts under {args.out}/")


if __name__ == "__main__":
    main()
