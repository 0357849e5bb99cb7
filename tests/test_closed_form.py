"""Closed forms against independent numerics: a bisection root finder for the
OMA power, a brute-force grid on the physical power variables for the hybrid
optimum, and centered finite differences for the energy derivative."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import hybrid_scenarios, identity_corpus
from noma_mec import (
    NomaMecError,
    Regime,
    deadline_sweep,
    energy_derivative,
    hybrid_energy,
    hybrid_powers,
    kkt_log_vars,
    log_hybrid_energy,
    log_oma_energy_n,
    oma_energy_n,
    oma_power_m,
    select_strategy,
    validate_scenario,
)
from noma_mec.closed_form import _log_rates
from noma_mec.model import _EXACT, _SCALAR

ANCHOR = validate_scenario(15.0, 20.0, 25.0)


# --- independent oracles -------------------------------------------------

def bisect_oma_power(nats, d_m, gain_sq, lo=0.0, hi=1e12, iters=200):
    """Solve d_m * ln(1 + p * gain_sq) = nats for p by bisection."""
    def short(p):
        return d_m * math.log1p(p * gain_sq) - nats
    assert short(lo) <= 0.0 <= short(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if short(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_min_fixed_extension(nats, d_m, gain_sq, t_n, p2_hi, samples):
    """Brute force over the solo-phase power p2; p1 follows from making the
    rate constraint exact. Returns (energy, p1, p2) of the best grid sample."""
    discount = math.exp(-nats / d_m)
    best = (math.inf, None, None)
    for k in range(samples + 1):
        p2 = p2_hi * k / samples
        solo = t_n * math.log1p(gain_sq * p2)
        remainder = nats - solo
        if remainder <= 0.0:
            p1 = 0.0
        else:
            p1 = math.expm1(remainder / d_m) / (discount * gain_sq)
        energy = d_m * p1 + t_n * p2
        if energy < best[0]:
            best = (energy, p1, p2)
    return best


def centered_difference(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


# --- OMA benchmark -------------------------------------------------------

class TestOmaPowerM:
    def test_reference_value(self):
        assert oma_power_m(ANCHOR) == pytest.approx(math.expm1(0.75), rel=1e-15)
        assert oma_power_m(ANCHOR) == pytest.approx(1.117000017, abs=1e-6)

    def test_against_bisection(self):
        assert oma_power_m(ANCHOR) == pytest.approx(
            bisect_oma_power(15.0, 20.0, 1.0), rel=1e-10
        )

    def test_vanishing_task(self):
        s = validate_scenario(1e-12, 20.0, 25.0)
        assert oma_power_m(s) == pytest.approx(5e-14, rel=1e-9)

    def test_gain_scaling(self):
        s = validate_scenario(15.0, 20.0, 25.0, h_m_sq=4.0)
        assert oma_power_m(s) == pytest.approx(0.279250004, abs=1e-6)
        assert oma_power_m(s) == pytest.approx(
            bisect_oma_power(15.0, 20.0, 4.0), rel=1e-10
        )


class TestOmaEnergyN:
    def test_short_slot(self):
        assert oma_energy_n(ANCHOR, 5.0) == pytest.approx(5.0 * math.expm1(3.0), rel=1e-15)
        assert oma_energy_n(ANCHOR, 5.0) == pytest.approx(95.42768462, abs=1e-6)

    def test_zero_slot_is_infinite(self):
        assert oma_energy_n(ANCHOR, 0.0) == math.inf

    def test_long_slot(self):
        assert oma_energy_n(ANCHOR, 30.0) == pytest.approx(19.46163812, abs=1e-6)

    def test_overflow_saturates(self):
        assert oma_energy_n(ANCHOR, 1e-3) == math.inf

    def test_negative_slot_rejected(self):
        with pytest.raises(NomaMecError, match=r"^slot must lie in \[0, inf\), got -1\.0$"):
            oma_energy_n(ANCHOR, -1.0)


# --- hybrid closed forms -------------------------------------------------

class TestHybridPowers:
    def test_reference_point(self):
        p1, p2 = hybrid_powers(ANCHOR, 5.0)
        assert p1 == pytest.approx(1.203116, abs=1e-5)
        assert p2 == pytest.approx(2.320117, abs=1e-5)

    def test_against_grid_oracle(self):
        energy, p1, p2 = grid_min_fixed_extension(15.0, 20.0, 1.0, 5.0, p2_hi=5.0, samples=200000)
        c1, c2 = hybrid_powers(ANCHOR, 5.0)
        assert c1 == pytest.approx(p1, abs=1e-4)
        assert c2 == pytest.approx(p2, abs=1e-4)
        assert hybrid_energy(ANCHOR, 5.0) == pytest.approx(energy, rel=1e-7)
        # The grid sample can only lose energy against the true optimum.
        assert hybrid_energy(ANCHOR, 5.0) <= energy + 1e-12

    def test_zero_extension_matches_pure_noma_exactly(self):
        p1, p2 = hybrid_powers(ANCHOR, 0.0)
        assert ANCHOR.d_m * p1 == select_strategy(ANCHOR).pure_noma.energy
        assert p1 == pytest.approx(2.364689, abs=1e-5)
        assert p2 == pytest.approx(3.481689, abs=1e-5)

    def test_full_extension_shuts_shared_phase(self):
        p1, p2 = hybrid_powers(ANCHOR, 20.0)
        assert p1 == 0.0
        assert p2 == pytest.approx(math.expm1(0.75), rel=1e-15)

    @pytest.mark.parametrize("t_n", [-0.5, 20.0001, math.inf])
    def test_extension_out_of_range(self, t_n):
        with pytest.raises(NomaMecError, match=rf"^t_n must lie in \[0, 20\.0\], got {t_n!r}$"):
            hybrid_powers(ANCHOR, t_n)


class TestKktLogVars:
    def test_reference_point(self):
        point = kkt_log_vars(ANCHOR, 5.0)
        assert point.y1 == pytest.approx(0.45, abs=1e-12)
        assert point.y2 == 2.0 * 15.0 / 25.0
        assert 20.0 * point.y1 + 5.0 * point.y2 == pytest.approx(15.0, rel=1e-12)

    def test_full_extension(self):
        point = kkt_log_vars(ANCHOR, 20.0)
        assert point.y1 == 0.0
        assert point.y2 == 0.75

    def test_zero_extension(self):
        point = kkt_log_vars(ANCHOR, 0.0)
        assert point.y1 == 0.75
        assert point.y2 == 1.5

    def test_underflowing_rates_are_zero_not_refused(self):
        # nats / d_m and 2 nats / (d_m + t_n) round to 0: no power is needed, nothing is refused.
        s = validate_scenario(5e-324, 1e10, 2e10)
        assert kkt_log_vars(s, 0.0) == (0.0, 0.0)
        assert hybrid_powers(s, 0.0) == (0.0, 0.0)

    def test_rates_past_half_the_float_range_do_not_overflow(self):
        # 2 nats and d_m + t_n pass the float range; their halves do not. At t_n == d_m the
        # shared-slot power is exactly 0 and the solo rate nats / d_m saturates to inf.
        assert hybrid_powers(validate_scenario(1e308, 1.0, 2.0), 1.0) == (0.0, math.inf)
        s = validate_scenario(15.0, 1.7e308, 1.7e308)
        powers = hybrid_powers(s, 4.25e307)
        assert all(math.isfinite(p) and p > 0.0 for p in powers)
        assert math.isfinite(hybrid_energy(s, 4.25e307))

    def test_subnormal_shared_slot_is_not_halved(self):
        # Below d_m = 2**-1021 a half can round (5e-324 to 0): y2 is 2 nats / (d_m + t_n) there,
        # also in a mixed array. A zero-length extension at 5e-324 reads (nan, inf), refused.
        assert kkt_log_vars(validate_scenario(1e-300, 5e-324, 1e-323), 5e-324).y1 == 0.0
        with pytest.raises(NomaMecError, match=r"^log-domain rates must be nonnegative, got "
                                               r"\(nan, inf\)$"):
            kkt_log_vars(validate_scenario(1.0, 5e-324, 5e-324), 0.0)
        d_m = np.array([math.nextafter(2.0 ** -1021, 0.0), 5e-324, 1.5e-323, 2.0 ** -1021])
        y2 = _log_rates(_EXACT, 1e-300, d_m, d_m)[1]
        assert np.array_equal(y2[:3], 2.0 * 1e-300 / (d_m[:3] + d_m[:3]))
        assert y2[3] == 1e-300 / (0.5 * d_m[3] + 0.5 * d_m[3])

    @pytest.mark.parametrize("d_m", [2.0 ** -1021, 1e-300, 1.0, 1e300, 1.7e308])
    def test_halves_keep_their_bits_where_normal(self, d_m):
        # From d_m = 2**-1021 on, both halves of d_m + t_n are exact: y2 is nats over their sum.
        rng = np.random.default_rng(7)
        nats = d_m * np.minimum(10.0 ** rng.uniform(-8.0, 8.0, 200), 1e308 / d_m)
        t_n = d_m * rng.uniform(0.0, 1.0, 200)
        for ops, nats_, t_n_ in ((_EXACT, nats, t_n), (_SCALAR, float(nats[0]), float(t_n[0]))):
            y2 = _log_rates(ops, nats_, d_m, t_n_)[1]
            assert np.array_equal(y2, nats_ / (0.5 * d_m + 0.5 * t_n_))

    def test_negative_rate_rejected(self):
        # A negative task gives y2 = -0.08 and y1 = -0.03; the array path names that element.
        with pytest.raises(NomaMecError, match=r"got \(-0\.03.*, -0\.08.*\)"):
            _log_rates(_SCALAR, -1.0, 20.0, 5.0)
        with pytest.raises(NomaMecError, match=r"got \(-0\.03.*, -0\.08.*\)"):
            _log_rates(_EXACT, np.array([15.0, -1.0]), 20.0, 5.0)

    @given(s=hybrid_scenarios(), frac=st.floats(0.0, 1.0))
    def test_coupling_exact_and_constraint_active(self, s, frac):
        t_n = frac * s.d_m
        point = kkt_log_vars(s, t_n)
        # The coupling is exact in floating point, not just approximate.
        assert point.y2 - point.y1 == s.nats / s.d_m
        residual = s.d_m * point.y1 + t_n * point.y2
        assert residual == pytest.approx(s.nats, rel=1e-12)


class TestHybridEnergy:
    def test_reference_point(self):
        assert hybrid_energy(ANCHOR, 5.0) == pytest.approx(35.66291, abs=1e-4)

    def test_zero_extension_equals_pure_noma_bitwise(self):
        assert hybrid_energy(ANCHOR, 0.0) == select_strategy(ANCHOR).pure_noma.energy
        # nats/d_m = 3.3e-321 is subnormal: y2 at t_n = 0 is twice it only when taken so, not
        # as the quotient nats/(d_m/2), which would read 9.99e-321 here.
        subnormal = validate_scenario(1e-320, 3.0, 4.5)
        assert hybrid_energy(subnormal, 0.0) == select_strategy(subnormal).pure_noma.energy
        assert hybrid_energy(subnormal, 0.0) == 1.0005e-320 == hybrid_energy(subnormal, 1.5)
        corpus = identity_corpus()
        assert any(hybrid_energy(s, 0.0) == math.inf for s in corpus)
        for s in corpus:
            e_pure = hybrid_energy(s, 0.0)
            assert select_strategy(s).pure_noma.energy == e_pure
            sweep = deadline_sweep(s.nats, s.d_m, s.d_m, 3.0 * s.d_m, 2, s.h_m_sq, s.h_n_sq)
            assert sweep.e_pure.tolist() == [e_pure, e_pure]

    def test_full_extension_value(self):
        assert hybrid_energy(ANCHOR, 20.0) == pytest.approx(20.0 * math.expm1(0.75), rel=1e-15)
        assert hybrid_energy(ANCHOR, 20.0) == pytest.approx(22.34000, abs=1e-4)

    @given(s=hybrid_scenarios(), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    def test_non_increasing(self, s, a, b):
        t_lo, t_hi = sorted((a * s.d_m, b * s.d_m))
        assert hybrid_energy(s, t_lo) >= hybrid_energy(s, t_hi) - 1e-12

    @pytest.mark.parametrize("nats, d_m, h_n_sq, t_n", [
        (10.0, 1.0, 1.0, 0.9999999999999999),
        (30.983336987743208, 49.824226555571094, 5.095538934289587, 49.82422655557108),
        # ln E is about -3e-4 here, fine enough to show ln(t_n) billed in place of ln(d_m).
        (0.693, 1.0, 1.0, 0.9999999999999999),
    ])
    def test_rates_of_full_extension_bill_the_whole_slot(self, nats, d_m, h_n_sq, t_n):
        # A few ulp below d_m the rates round to those of d_m (y1 == 0). Phase 2 then needs
        # all of d_m, and the energy is OMA over d_m; t_n times the power would read below it.
        s = validate_scenario(nats, d_m, 1.5 * d_m, h_n_sq=h_n_sq)
        assert t_n < d_m
        assert kkt_log_vars(s, t_n).y1 == 0.0
        assert hybrid_energy(s, t_n) == oma_energy_n(s, d_m)
        assert log_hybrid_energy(s, t_n) == log_oma_energy_n(s, d_m)


class TestPureNomaEnergy:
    def test_reference_value(self):
        assert hybrid_energy(ANCHOR, 0.0) == pytest.approx(47.29378, abs=1e-4)

    def test_gain_scaling(self):
        s = validate_scenario(15.0, 20.0, 25.0, h_n_sq=2.0)
        assert hybrid_energy(s, 0.0) == pytest.approx(23.64689, abs=1e-4)

    def test_vanishing_task(self):
        s = validate_scenario(1e-12, 20.0, 25.0)
        assert hybrid_energy(s, 0.0) == pytest.approx(0.0, abs=1e-9)


class TestOptimalTimeExtension:
    def test_hybrid_case(self):
        table = select_strategy(ANCHOR)
        assert table.t_star == min(ANCHOR.d_n - ANCHOR.d_m, ANCHOR.d_m) == 5.0
        assert table.regime is Regime.HYBRID

    def test_equal_deadlines(self):
        assert select_strategy(validate_scenario(15, 20, 20)).t_star == 0.0

    # Past the hybrid regime the extension is capped at d_m and the regime says so.
    def test_relaxed_deadline_capped(self):
        table = select_strategy(validate_scenario(15, 20, 45))
        assert table.t_star == 20.0
        assert table.regime is Regime.OMA_FAVORED

    def test_boundary_capped(self):
        table = select_strategy(validate_scenario(15, 20, 40))
        assert table.t_star == 20.0
        assert table.regime is Regime.BOUNDARY


class TestEnergyDerivative:
    def test_kernel_values(self):
        # exp(y2) * (1 - y2) - 1 in the solo-phase rate y2 = 2 nats / (d_m + t_n).
        assert energy_derivative(validate_scenario(1e-300, 1.0, 2.0), 1.0) == 0.0
        assert energy_derivative(validate_scenario(10.0, 10.0, 20.0), 10.0) == -1.0
        assert energy_derivative(ANCHOR, 5.0) == pytest.approx(-1.664023, abs=1e-5)

    def test_reference_point(self):
        assert energy_derivative(ANCHOR, 5.0) == pytest.approx(-1.6640233845, abs=1e-9)

    def test_matches_finite_difference(self):
        step = 1e-6 * ANCHOR.d_m
        for t_n in (0.5, 2.0, 5.0, 12.0, 19.0):
            numeric = centered_difference(
                lambda t: ANCHOR.h_n_sq * hybrid_energy(ANCHOR, t), t_n, step
            )
            assert energy_derivative(ANCHOR, t_n) == pytest.approx(numeric, rel=1e-4)

    @settings(max_examples=60)
    @given(s=hybrid_scenarios(), frac=st.floats(0.01, 0.99))
    def test_nonpositive_and_matches_fd(self, s, frac):
        t_n = frac * s.d_m
        slope = energy_derivative(s, t_n)
        assert slope <= 0.0
        step = 1e-6 * s.d_m
        numeric = centered_difference(
            lambda t: s.h_n_sq * hybrid_energy(s, t), t_n, step
        )
        assert slope == pytest.approx(numeric, rel=1e-4)


class TestLogDomain:
    def test_log_matches_plain_when_finite(self):
        assert log_oma_energy_n(ANCHOR, 5.0) == pytest.approx(
            math.log(oma_energy_n(ANCHOR, 5.0)), rel=1e-12
        )
        assert log_hybrid_energy(ANCHOR, 0.0) == pytest.approx(
            math.log(hybrid_energy(ANCHOR, 0.0)), rel=1e-12
        )
        assert log_hybrid_energy(ANCHOR, 5.0) == pytest.approx(
            math.log(hybrid_energy(ANCHOR, 5.0)), rel=1e-12
        )
        # The phase-2 term lies about 716 below the phase-1 term: the log-sum must take
        # exp of their difference with the larger term first, where it underflows to 0.
        assert log_hybrid_energy(ANCHOR, 1e-310) == pytest.approx(
            math.log(hybrid_energy(ANCHOR, 1e-310)), rel=1e-12
        )

    def test_log_survives_overflow(self):
        # At slot = 0.01 the required power overflows a double, the log does not:
        # ln E = ln(slot) + nats/slot + ln(1 - exp(-nats/slot)).
        assert oma_energy_n(ANCHOR, 0.01) == math.inf
        expected = math.log(0.01) + 15.0 / 0.01
        assert log_oma_energy_n(ANCHOR, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_log_at_zero_slot(self):
        assert log_oma_energy_n(ANCHOR, 0.0) == math.inf
