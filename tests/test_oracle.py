import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import hybrid_scenarios
from noma_mec import (
    NonConvergence,
    NonPositiveParameter,
    TimeExtensionOutOfRange,
    energy_surface,
    hybrid_energy,
    hybrid_powers,
    offloaded_nats,
    oma_energy_n,
    oracle_fixed_t,
    oracle_joint,
    pure_noma_energy,
    pure_noma_power,
    schedule_energy,
    split_schedule,
    validate_scenario,
)
from noma_mec import PowerSchedule, oracle_batch
from noma_mec.oracle import _split_powers

ANCHOR = validate_scenario(15.0, 20.0, 25.0)


class TestSplitParametrization:
    def test_all_nats_in_shared_slot_is_pure_noma(self):
        schedule = split_schedule(ANCHOR, 5.0, 1.0)
        assert schedule_energy(ANCHOR, schedule) == pure_noma_energy(ANCHOR)
        assert schedule.p_n1 == pure_noma_power(ANCHOR)
        assert schedule.p_n2 == 0.0

    def test_all_nats_in_solo_slot_is_oma(self):
        assert schedule_energy(ANCHOR, split_schedule(ANCHOR, 5.0, 0.0)) == pytest.approx(
            oma_energy_n(ANCHOR, 5.0), rel=1e-12
        )
        assert split_schedule(ANCHOR, 5.0, 0.0).p_n1 == 0.0

    @given(s=hybrid_scenarios(), alpha=st.floats(0.0, 1.0))
    def test_split_is_rate_exact(self, s, alpha):
        t_n = s.d_n - s.d_m
        schedule = split_schedule(s, t_n, alpha)
        if math.isinf(schedule.p_n1) or math.isinf(schedule.p_n2):
            return
        assert offloaded_nats(s, schedule) == pytest.approx(s.nats, rel=1e-9)

    def test_alpha_out_of_range(self):
        with pytest.raises(NonPositiveParameter):
            split_schedule(ANCHOR, 5.0, 1.5)

    def test_zero_extension_rejected(self):
        with pytest.raises(TimeExtensionOutOfRange):
            split_schedule(ANCHOR, 0.0, 0.5)


class TestOracleFixedT:
    def test_agrees_with_closed_form_at_reference(self):
        result = oracle_fixed_t(ANCHOR, 5.0, tol=1e-10)
        assert result.energy == pytest.approx(35.66291, abs=1e-4)
        assert result.energy == pytest.approx(hybrid_energy(ANCHOR, 5.0), rel=1e-5)
        assert result.p_n1 == pytest.approx(1.203116, abs=1e-5)
        assert result.p_n2 == pytest.approx(2.320117, abs=1e-5)

    def test_boundary_extension(self):
        result = oracle_fixed_t(ANCHOR, 20.0, tol=1e-10)
        assert result.energy == pytest.approx(22.34000, abs=1e-4)
        assert result.p_n1 == pytest.approx(0.0, abs=1e-6)

    def test_never_worse_than_alpha_grid(self):
        # A scan at spacing 1e-4 can only sit above the full tol=1e-10 grid,
        # so beating it (up to ulp noise) is the decidable form of the claim.
        result = oracle_fixed_t(ANCHOR, 5.0, tol=1e-10)
        spacing = 1e-4
        grid_best = min(
            schedule_energy(ANCHOR, split_schedule(ANCHOR, 5.0, k * spacing))
            for k in range(int(1.0 / spacing) + 1)
        )
        assert result.energy <= grid_best * (1.0 + 1e-12)

    def test_halving_tol_never_hurts(self):
        coarse = oracle_fixed_t(ANCHOR, 5.0, tol=1e-6).energy
        for tol in (5e-7, 2.5e-7, 1e-8, 1e-10):
            finer = oracle_fixed_t(ANCHOR, 5.0, tol=tol).energy
            assert finer <= coarse * (1.0 + 1e-9)
            coarse = finer

    def test_iteration_cap_raises(self):
        with pytest.raises(NonConvergence):
            oracle_fixed_t(ANCHOR, 5.0, tol=1e-10, max_iter=5)

    def test_preconditions(self):
        with pytest.raises(TimeExtensionOutOfRange):
            oracle_fixed_t(ANCHOR, 0.0)
        with pytest.raises(TimeExtensionOutOfRange):
            oracle_fixed_t(ANCHOR, 25.0)
        with pytest.raises(NonPositiveParameter):
            oracle_fixed_t(ANCHOR, 5.0, tol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(s=hybrid_scenarios())
    def test_matches_closed_form_on_random_scenarios(self, s):
        t_n = s.d_n - s.d_m
        closed = hybrid_energy(s, t_n)
        probe = oracle_fixed_t(s, t_n)
        assert abs(probe.energy - closed) / closed <= 1e-5


def _random_lanes(count, seed):
    """Scenarios from the campaign ranges with extensions anywhere in (0, d_n - d_m]."""
    rng = np.random.default_rng(seed)
    scenarios, t_n = [], []
    for _ in range(count):
        d_m = rng.uniform(1.0, 50.0)
        s = validate_scenario(rng.uniform(1.0, 40.0), d_m, d_m * (1.0 + rng.uniform(1e-3, 1.0)),
                              rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        scenarios.append(s)
        t_n.append((s.d_n - s.d_m) * rng.uniform(1e-3, 1.0))
    return scenarios, t_n


class TestOracleBatch:
    @pytest.mark.parametrize(
        "scenarios, t_n, tol, evals",
        [
            (*_random_lanes(200, seed=3), 1e-10, {53}),
            # Lanes whose brackets reach tol at different steps: the batch
            # keeps searching the unfinished lane alone.
            ([ANCHOR, ANCHOR], [20.0, 19.9], 1e-18, {91, 92}),
        ],
    )
    def test_each_lane_is_its_own_search(self, scenarios, t_n, tol, evals):
        p_n1, p_n2, energy, iterations = oracle_batch(scenarios, np.array(t_n), tol=tol)
        assert set(iterations.tolist()) == evals
        for k, (s, t) in enumerate(zip(scenarios, t_n)):
            alone = oracle_fixed_t(s, t, tol=tol)
            assert (p_n1[k], p_n2[k], energy[k], iterations[k]) == (
                alone.p_n1, alone.p_n2, alone.energy, alone.iterations
            )

    def test_one_unconverged_lane_raises(self):
        # Near alpha = 0 floats are dense enough for a 1e-17 bracket; around
        # the interior optimum at t_n = 5 they are not.
        oracle_batch([ANCHOR], [20.0], tol=1e-17)
        with pytest.raises(NonConvergence):
            oracle_batch([ANCHOR, ANCHOR], [20.0, 5.0], tol=1e-17)

    @pytest.mark.parametrize("bad_t_n", [0.0, 20.5, math.nan])
    def test_one_out_of_range_lane_raises(self, bad_t_n):
        scenarios, t_n = _random_lanes(5, seed=4)
        scenarios.append(ANCHOR)
        with pytest.raises(TimeExtensionOutOfRange):
            oracle_batch(scenarios, np.array([*t_n, bad_t_n]))

    @given(s=hybrid_scenarios(), alpha=st.floats(0.0, 1.0), frac=st.floats(1e-3, 1.0))
    def test_array_objective_matches_scalar(self, s, alpha, frac):
        t_n = (s.d_n - s.d_m) * frac
        scalar = schedule_energy(s, split_schedule(s, t_n, alpha))
        # One lane, every argument an array, as oracle_batch evaluates the rule.
        lane = [np.array([v]) for v in (alpha, s.nats, s.d_m, s.h_n_sq, t_n)]
        with np.errstate(over="ignore", invalid="ignore"):
            p_n1, p_n2 = _split_powers(*lane)
        array = (s.d_m * p_n1 + t_n * p_n2)[0]
        if math.isinf(scalar):
            assert array == scalar
        else:
            assert array == pytest.approx(scalar, rel=1e-15, abs=0.0)


class TestSaturatedSearch:
    def test_overflowing_rates_raise_no_numpy_warning(self):
        # nats / d_m overflows to inf, so every split saturates; the search still runs silently.
        s = validate_scenario(1e308, 1e-10, 1.5e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle_fixed_t(s, 5e-11).energy == math.inf
            assert oracle_joint(s).energy == math.inf


class TestOracleJoint:
    def test_reference_scenario_lands_on_deadline_budget(self):
        result = oracle_joint(ANCHOR, t_steps=100)
        assert result.t_n == pytest.approx(5.0, abs=5.0 / 100)
        assert result.energy == pytest.approx(35.66291, abs=1e-3)

    def test_tight_deadline(self):
        s = validate_scenario(15.0, 20.0, 21.0)
        result = oracle_joint(s, t_steps=100)
        assert result.t_n == pytest.approx(1.0, abs=1.0 / 100)
        assert result.energy == pytest.approx(hybrid_energy(s, 1.0), rel=1e-5)

    def test_degenerate_deadline_returns_pure_noma(self):
        s = validate_scenario(15.0, 20.0, 20.0)
        result = oracle_joint(s)
        assert result.t_n == 0.0
        assert result.p_n2 == 0.0
        assert result.energy == pure_noma_energy(s)

    def test_step_count_validated(self):
        with pytest.raises(NonPositiveParameter):
            oracle_joint(ANCHOR, t_steps=1)

    @settings(max_examples=25, deadline=None)
    @given(s=hybrid_scenarios())
    def test_boundary_optimum(self, s):
        t_max = min(s.d_n - s.d_m, s.d_m)
        result = oracle_joint(s, t_steps=64)
        assert result.t_n >= t_max * (1.0 - 1.0 / 64) - 1e-12


class TestConcurrentDeterminism:
    def test_parallel_oracle_matches_sequential(self):
        # Everything is pure; a thread pool must reproduce the sequential
        # results bit for bit.
        from concurrent.futures import ThreadPoolExecutor

        scenarios = [
            validate_scenario(1.0 + 2.0 * k, 10.0 + k, 12.0 + 1.5 * k) for k in range(12)
        ]
        jobs = [(s, 0.5 * (s.d_n - s.d_m)) for s in scenarios]
        sequential = [oracle_fixed_t(s, t) for s, t in jobs]
        with ThreadPoolExecutor(max_workers=6) as pool:
            parallel = list(pool.map(lambda job: oracle_fixed_t(*job), jobs))
        assert parallel == sequential


class TestEnergySurface:
    def test_reference_surface_locates_the_optimum(self):
        grid = energy_surface(ANCHOR, 5.0)
        assert grid.p1_axis.size == 200 and grid.p2_axis.size == 200
        star1, star2 = hybrid_powers(ANCHOR, 5.0)
        i, j = grid.feasible_argmin()
        cell1 = grid.p1_axis[1] - grid.p1_axis[0]
        cell2 = grid.p2_axis[1] - grid.p2_axis[0]
        assert abs(grid.p1_axis[i] - star1) <= cell1 * (1.0 + 1e-9)
        assert abs(grid.p2_axis[j] - star2) <= cell2 * (1.0 + 1e-9)
        assert grid.energy[i, j] == pytest.approx(hybrid_energy(ANCHOR, 5.0), rel=1e-9)

    def test_origin_in_grid_and_infeasible(self):
        grid = energy_surface(ANCHOR, 5.0, resolution=50)
        assert grid.p1_axis[0] == 0.0 and grid.p2_axis[0] == 0.0
        assert not grid.feasible[0, 0]

    def test_energy_matrix_matches_objective(self):
        grid = energy_surface(ANCHOR, 5.0, resolution=40)
        expected = ANCHOR.d_m * grid.p1_axis[:, None] + 5.0 * grid.p2_axis[None, :]
        assert np.array_equal(grid.energy, expected)

    def test_infeasible_cells_fall_short_of_task(self):
        grid = energy_surface(ANCHOR, 5.0, resolution=60)
        for i in range(0, 60, 7):
            for j in range(0, 60, 7):
                if not grid.feasible[i, j]:
                    schedule = PowerSchedule(
                        float(grid.p1_axis[i]), float(grid.p2_axis[j]), 5.0
                    )
                    assert offloaded_nats(ANCHOR, schedule) < ANCHOR.nats

    def test_explicit_ranges(self):
        grid = energy_surface(ANCHOR, 5.0, p1_max=3.0, p2_max=6.0, resolution=30)
        assert grid.p1_axis.max() < 3.0
        assert grid.p2_axis.max() < 6.0
        assert grid.feasible.any()

    def test_preconditions(self):
        with pytest.raises(NonPositiveParameter):
            energy_surface(ANCHOR, 5.0, resolution=1)
        with pytest.raises(TimeExtensionOutOfRange):
            energy_surface(ANCHOR, 0.0)
        for ranges in (dict(p1_max=math.inf), dict(p2_max=math.inf), dict(p1_max=math.nan)):
            with pytest.raises(NonPositiveParameter):
                energy_surface(ANCHOR, 5.0, resolution=3, **ranges)

    def test_all_infeasible_surface_has_no_argmin(self):
        grid = energy_surface(ANCHOR, 5.0, p1_max=1e-6, p2_max=1e-6, resolution=10)
        assert grid.feasible_argmin() is None
