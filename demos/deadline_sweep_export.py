"""Regenerate the deadline-sweep data set and write it as CSV.

One row per deadline d_n: the three strategy energies, the optimal powers
and extension behind the hybrid number, and the selected strategy. The file
is what the `noma-mec sweep` subcommand emits; here we also print the
headline trends it contains.
"""

import math
import pathlib

from noma_mec import deadline_sweep, render_sweep_csv

OUT = pathlib.Path(__file__).with_name("deadline_sweep.csv")


def main():
    rows = deadline_sweep(nats=15, d_m=20, d_n_from=20.0, d_n_to=40.0, steps=81)
    OUT.write_text(render_sweep_csv(rows))   # the header prints the scenario the sweep carries
    print(f"wrote {len(rows)} rows to {OUT}")

    finite = [r for r in rows if math.isfinite(r.e_oma)]
    print("\ntrends in the data:")
    print(f"  OMA energy at d_n = {finite[0].d_n}: {finite[0].e_oma:.4g}"
          f"  (blows up as the slot shrinks)")
    print(f"  hybrid energy falls from {rows[0].e_hybrid:.5f} to {rows[-1].e_hybrid:.5f}")
    print(f"  pure NOMA stays at {rows[0].e_pure:.5f} regardless of d_n")
    crossing = next(r for r in rows if r.selected.value == "oma")
    print(f"  selection flips to OMA at d_n = {crossing.d_n}")
    print(f"  shared-slot power p1* at the flip: {crossing.p1_star}")

    print("\nevery row keeps hybrid <= pure and hybrid <= oma:")
    worst = max(max(r.e_hybrid - r.e_pure, r.e_hybrid - r.e_oma) for r in rows)
    print(f"  worst dominance slack: {worst:.3e}")


if __name__ == "__main__":
    main()
