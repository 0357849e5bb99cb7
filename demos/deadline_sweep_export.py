"""Regenerate the deadline-sweep data set and write it as CSV.

One row per deadline d_n: the three strategy energies, the optimal powers
and extension behind the hybrid number, and the selected strategy. The file
is what the `noma-mec sweep` subcommand emits; here we also print the
headline trends it contains.
"""

import pathlib

import numpy as np

from noma_mec import StrategyKind, deadline_sweep, render_sweep_csv

OUT = pathlib.Path(__file__).with_name("deadline_sweep.csv")


def main():
    sweep = deadline_sweep(nats=15, d_m=20, d_n_from=20.0, d_n_to=40.0, steps=81)
    OUT.write_text(render_sweep_csv(sweep))   # the header prints the scenario the sweep carries
    print(f"wrote {len(sweep.d_n)} rows to {OUT}")

    # One array per CSV column: a row is one index into each.
    first = np.isfinite(sweep.e_oma).argmax()
    print("\ntrends in the data:")
    print(f"  OMA energy at d_n = {sweep.d_n[first]}: {sweep.e_oma[first]:.4g}"
          f"  (blows up as the slot shrinks)")
    print(f"  hybrid energy falls from {sweep.e_hybrid[0]:.5f} to {sweep.e_hybrid[-1]:.5f}")
    print(f"  pure NOMA stays at {sweep.e_pure[0]:.5f} regardless of d_n")
    flip = (sweep.selected == StrategyKind.OMA).argmax()
    print(f"  selection flips to OMA at d_n = {sweep.d_n[flip]}")
    print(f"  shared-slot power p1* at the flip: {sweep.p1_star[flip]}")

    print("\nevery row keeps hybrid <= pure and hybrid <= oma:")
    worst = np.maximum(sweep.e_hybrid - sweep.e_pure, sweep.e_hybrid - sweep.e_oma).max()
    print(f"  worst dominance slack: {worst:.3e}")


if __name__ == "__main__":
    main()
