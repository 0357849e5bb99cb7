"""Certify the closed forms numerically, without trusting them.

The oracle only assumes the rate constraint binds at the optimum. It splits
the task between the two phases by a fraction alpha, recovers the powers
that deliver each share exactly, and golden-sections the resulting
one-dimensional energy. If the closed forms are right, the oracle must land
on them, and the dense power-plane surface must bottom out at the same spot.
Over every extension at once, the search at the whole deadline budget bounds
the least energy from above and a search of the Lagrange dual from below: the
selected strategy's energy must lie between the two.
"""

from noma_mec import (
    energy_surface,
    hybrid_energy,
    hybrid_powers,
    oracle_batch,
    oracle_bounds,
    select_strategy,
    validate_scenario,
    verification_campaign,
)


def main():
    scenario = validate_scenario(nats=15, d_m=20, d_n=25)
    t_star = 5.0

    closed = hybrid_energy(scenario, t_star)
    # One search lane: the scenario's fields and the extension; many lanes search at once.
    probe = float(oracle_batch(scenario.nats, scenario.d_m, scenario.h_n_sq, t_star)[2][0])
    print("fixed-extension search (golden section over the task split):")
    print(f"  closed form : {closed:.12f}")
    print(f"  oracle      : {probe:.12f}   (alpha bracket at most 1e-10 wide)")
    print(f"  rel. error  : {abs(probe - closed) / closed:.3e}")

    (upper,), (lower,) = oracle_bounds(scenario.nats, scenario.d_m, scenario.d_n, scenario.h_n_sq)
    selected = select_strategy(scenario).hybrid.energy   # this scenario's choice: hybrid NOMA
    print(f"\ntwo-sided bound over every extension in [0, {scenario.d_n - scenario.d_m}]:")
    print(f"  upper (split search at the budget) : {upper:.12f}")
    print(f"  selected, hybrid NOMA              : {selected:.12f}")
    print(f"  lower (Lagrange dual search)       : {lower:.12f}")
    print(f"  two-sided gap (upper - lower) / selected: {(upper - lower) / selected:.3e}")

    grid = energy_surface(scenario, t_star, resolution=200)
    i, j = grid.feasible_argmin()
    star1, star2 = hybrid_powers(scenario, t_star)
    print("\n200 x 200 power-plane surface:")
    print(f"  cheapest feasible sample: ({grid.p1_axis[i]:.6f}, {grid.p2_axis[j]:.6f})")
    print(f"  closed-form optimum:      ({star1:.6f}, {star2:.6f})")
    print(f"  feasible samples: {int(grid.feasible.sum())} of {grid.feasible.size}")

    print("\nrandomized campaign (200 scenarios, fixed seed):")
    summary = verification_campaign(seed=42, count=200)
    print(f"  max closed-form vs oracle error: {summary.max_rel_err:.3e}")
    print(f"  max dominance violation:         {summary.max_dominance_violation:.3e}")
    print(f"  verdict: {'PASS' if summary.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
