"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one ``criterion N ...: PASS/FAIL`` line (visible with
``pytest -s``). Randomized criteria use fixed counter-based seeds, so the
whole suite is deterministic. Expected wall time is well under ten seconds.
"""

import math
from contextlib import contextmanager

import numpy as np

from noma_mec import (
    deadline_sweep,
    energy_derivative,
    energy_surface,
    hybrid_energy,
    hybrid_powers,
    kkt_log_vars,
    oma_energy_n,
    oracle_batch,
    select_strategy,
    validate_scenario,
)

ANCHOR = validate_scenario(15.0, 20.0, 25.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def draw_scenarios(seed, count, deadline_lo=None, deadline_hi=None):
    """Scenarios with task size in [1, 40], shared slot in [1, 50], gains in
    [0.1, 10] and d_n/d_m drawn from the given range (default: inside (1, 2))."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    for _ in range(count):
        nats = float(rng.uniform(1.0, 40.0))
        d_m = float(rng.uniform(1.0, 50.0))
        if deadline_lo is None:
            ratio = 1.0 + float(rng.uniform(1e-3, 1.0 - 1e-3))
        else:
            ratio = float(rng.uniform(deadline_lo, deadline_hi))
        h_m_sq = float(rng.uniform(0.1, 10.0))
        h_n_sq = float(rng.uniform(0.1, 10.0))
        out.append(validate_scenario(nats, d_m, d_m * ratio, h_m_sq, h_n_sq))
    return out


HYBRID_SCENARIOS = draw_scenarios(seed=42, count=200)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "closed form vs oracle on 200 random scenarios"):
        # One oracle search of 200 lanes, each scenario at its extension d_n - d_m.
        nats, d_m, d_n, h_n_sq = (np.array([getattr(s, name) for s in HYBRID_SCENARIOS])
                                  for name in ("nats", "d_m", "d_n", "h_n_sq"))
        closed = np.array([hybrid_energy(s, s.d_n - s.d_m) for s in HYBRID_SCENARIOS])
        energy = oracle_batch(nats, d_m, h_n_sq, d_n - d_m)[2]
        worst = float(np.max(np.abs(energy - closed) / closed))
        assert worst <= 1e-5, f"worst relative disagreement {worst}"


def test_criterion_2_hybrid_dominance():
    with criterion(2, "hybrid energy below pure NOMA and OMA"):
        for s in HYBRID_SCENARIOS:
            table = select_strategy(s)
            assert table.hybrid.energy <= table.pure_noma.energy + 1e-9
            assert table.hybrid.energy <= table.oma.energy + 1e-9


def test_criterion_3_oma_regime():
    with criterion(3, "OMA wins when d_n is at least 2 d_m"):
        for s in draw_scenarios(seed=7, count=100, deadline_lo=2.0, deadline_hi=4.0):
            slot = s.d_n - s.d_m
            e_oma = oma_energy_n(s, slot)
            e_pure = hybrid_energy(s, 0.0)
            assert e_oma <= e_pure + 1e-9
            assert e_oma <= oma_energy_n(s, s.d_m) + 1e-9
            margin = s.d_m * math.expm1(s.nats / s.d_m) ** 2 / s.h_n_sq
            assert e_oma - e_pure <= -margin + 1e-6


def test_criterion_4_monotone_energy_and_derivative():
    with criterion(4, "energy non-increasing in the extension, derivative checks out"):
        for s in draw_scenarios(seed=11, count=50):
            samples = np.linspace(0.0, s.d_m, 1000)
            energies = [hybrid_energy(s, float(t)) for t in samples]
            for earlier, later in zip(energies, energies[1:]):
                assert later <= earlier + 1e-12
            step = 1e-6 * s.d_m
            for t in samples:
                t = float(t)
                slope = energy_derivative(s, t)
                assert slope <= 0.0
                if step < t < s.d_m - step:
                    numeric = (
                        s.h_n_sq
                        * (hybrid_energy(s, t + step) - hybrid_energy(s, t - step))
                        / (2.0 * step)
                    )
                    assert abs(slope - numeric) <= 1e-4 * abs(slope)


def test_criterion_5_reference_point_and_surface():
    with criterion(5, "reference optimum pinned and located by the power surface"):
        p1_star, p2_star = hybrid_powers(ANCHOR, 5.0)
        assert abs(p1_star - 1.203116) <= 1e-5
        assert abs(p2_star - 2.320117) <= 1e-5
        assert abs(hybrid_energy(ANCHOR, 5.0) - 35.66291) <= 1e-4

        grid = energy_surface(ANCHOR, 5.0, resolution=200)
        i, j = grid.feasible_argmin()
        cell1 = float(grid.p1_axis[1] - grid.p1_axis[0])
        cell2 = float(grid.p2_axis[1] - grid.p2_axis[0])
        assert abs(float(grid.p1_axis[i]) - p1_star) <= cell1 * (1.0 + 1e-9)
        assert abs(float(grid.p2_axis[j]) - p2_star) <= cell2 * (1.0 + 1e-9)


def test_criterion_6_boundary_continuity():
    with criterion(6, "hybrid and OMA coincide exactly at d_n = 2 d_m"):
        rng = np.random.Generator(np.random.Philox(13))
        cases = [(15.0, 20.0, 1.0)] + [
            (float(rng.uniform(1.0, 40.0)), float(rng.uniform(1.0, 50.0)),
             float(rng.uniform(0.1, 10.0)))
            for _ in range(40)
        ]
        for nats, d_m, h_n_sq in cases:
            s = validate_scenario(nats, d_m, 2.0 * d_m, h_n_sq=h_n_sq)
            at_cap = hybrid_energy(s, s.d_m)
            dedicated = oma_energy_n(s, s.d_n - s.d_m)
            assert abs(at_cap - dedicated) <= 1e-9 * dedicated
            bound = s.d_m * math.expm1(s.nats / s.d_m) / s.h_n_sq
            assert abs(at_cap - bound) <= 1e-9 * bound
            assert abs(dedicated - bound) <= 1e-9 * bound


TREND = deadline_sweep(15.0, 20.0, 20.1, 40.0, 200)


def test_criterion_7_deadline_trend():
    with criterion(7, "OMA blows up near equal deadlines, curves meet at 2 d_m"):
        tight = TREND.d_n <= 20.5
        assert tight.any(), "sweep must sample the near-degenerate region"
        assert (TREND.e_oma[tight] > 10.0 * TREND.e_hybrid[tight]).all()
        assert (TREND.e_hybrid <= TREND.e_oma + 1e-9).all()
        assert TREND.d_n[-1] == 40.0
        assert abs(TREND.e_hybrid[-1] - TREND.e_oma[-1]) <= 1e-6 * TREND.e_oma[-1]


def test_criterion_8_shared_power_trend():
    with criterion(8, "shared-slot power decays to exactly zero at d_n = 2 d_m"):
        assert (TREND.p1_star[1:] <= TREND.p1_star[:-1]).all()
        assert TREND.p1_star[-1] == 0.0
        assert (TREND.p2_star > 0.0).all()


def test_criterion_9_kkt_residuals():
    with criterion(9, "active constraint and rate coupling hold for every hybrid solution"):
        rng = np.random.Generator(np.random.Philox(17))
        checked = 0
        for s in draw_scenarios(seed=17, count=100):
            for frac in rng.uniform(0.0, 1.0, size=4):
                t_n = float(frac) * s.d_m
                point = kkt_log_vars(s, t_n)
                residual = s.d_m * point.y1 + t_n * point.y2
                assert abs(residual - s.nats) <= 1e-9 * s.nats
                assert point.y2 - point.y1 == s.nats / s.d_m
                checked += 1
        for d_n, t_n in zip(TREND.d_n.tolist(), TREND.t_n_star.tolist()):
            s = validate_scenario(15.0, 20.0, d_n)
            point = kkt_log_vars(s, t_n)
            residual = s.d_m * point.y1 + t_n * point.y2
            assert abs(residual - s.nats) <= 1e-9 * s.nats
            assert point.y2 - point.y1 == s.nats / s.d_m
            checked += 1
        assert checked >= 500
