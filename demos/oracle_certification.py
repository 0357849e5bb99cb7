"""Certify the closed forms numerically, without trusting them.

The oracle only assumes the rate constraint binds at the optimum. It splits
the task between the two phases by a fraction alpha, recovers the powers
that deliver each share exactly, and golden-sections the resulting
one-dimensional energy. If the closed forms are right, the oracle must land
on them, and the dense power-plane surface must bottom out at the same spot.
"""

from noma_mec import (
    energy_surface,
    hybrid_energy,
    hybrid_powers,
    oracle_fixed_t,
    oracle_joint,
    validate_scenario,
    verification_campaign,
)


def main():
    scenario = validate_scenario(nats=15, d_m=20, d_n=25)
    t_star = 5.0

    closed = hybrid_energy(scenario, t_star)
    probe = oracle_fixed_t(scenario, t_star)
    print("fixed-extension search (golden section over the task split):")
    print(f"  closed form : {closed:.12f}")
    print(f"  oracle      : {probe.energy:.12f}   (alpha bracket at most 1e-10 wide)")
    print(f"  rel. error  : {abs(probe.energy - closed) / closed:.3e}")

    joint = oracle_joint(scenario)
    print("\njoint search over the extension grid:")
    print(f"  best t_n = {joint.t_n:.6f} (deadline budget is {scenario.d_n - scenario.d_m})")
    print(f"  energy   = {joint.energy:.12f}")

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
