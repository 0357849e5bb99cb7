"""Walk through the closed forms on a single scenario.

Two users offload a 15-nat task. User m must finish within 20 time units,
user n within 25. We look at what user n should do: how much power to spend
on top of user m's slot, how much during its own 5-unit extension, and what
the competing strategies would cost.
"""

from noma_mec import (
    PowerSchedule,
    energy_derivative,
    hybrid_powers,
    kkt_log_vars,
    offloaded_nats,
    oma_energy_n,
    oma_power_m,
    schedule_energy,
    select_strategy,
    validate_scenario,
)


def main():
    scenario = validate_scenario(nats=15, d_m=20, d_n=25)
    print(f"scenario: {scenario}")
    print(f"user m's OMA power: {oma_power_m(scenario):.6f}")

    table = select_strategy(scenario)
    t_star = table.t_star
    print(f"\noptimal extension t_n* = d_n - d_m = {t_star}")

    p1, p2 = hybrid_powers(scenario, t_star)
    print(f"hybrid powers at t_n*: p_n1 = {p1:.6f}, p_n2 = {p2:.6f}")

    point = kkt_log_vars(scenario, t_star)
    print(f"log-domain rates: y1 = {point.y1:.6f}, y2 = {point.y2:.6f}")
    print(f"  coupling y2 - y1 = {point.y2 - point.y1}  (= nats/d_m)")
    print(f"  budget d_m*y1 + t_n*y2 = {scenario.d_m * point.y1 + t_star * point.y2}  (= nats)")

    schedule = PowerSchedule(p1, p2, t_n=t_star)
    print(f"\nenergy of that schedule: {schedule_energy(scenario, schedule):.6f}")
    print(f"nats it offloads:        {offloaded_nats(scenario, schedule):.12f}  (constraint active)")

    print("\nstrategy comparison:")
    print(f"  hybrid NOMA : {schedule_energy(scenario, schedule):10.5f}")
    print(f"  pure NOMA   : {table.pure_noma.energy:10.5f}   (everything inside d_m)")
    print(f"  OMA         : {oma_energy_n(scenario, t_star):10.5f}   (everything inside the {t_star}-unit slot)")

    print("\nslope of the normalized energy (always <= 0):")
    for t_n in (0.0, 2.5, 5.0, 10.0, 20.0):
        print(f"  t_n = {t_n:5.1f}: {energy_derivative(scenario, t_n):12.6f}")
    print("pushing the extension to its deadline budget is always optimal.")


if __name__ == "__main__":
    main()
