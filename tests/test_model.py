import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import hybrid_scenarios
from noma_mec import (
    DeadlineOrderViolation,
    NonPositiveParameter,
    OffloadScenario,
    PowerSchedule,
    hybrid_energy,
    hybrid_powers,
    offloaded_nats,
    oma_energy_n,
    oracle_batch,
    schedule_energy,
    select_strategy,
    validate_scenario,
)
from noma_mec.model import _EXACT, _NUMPY, _SCALAR, _power, _require_in

ANCHOR = validate_scenario(nats=15.0, d_m=20.0, d_n=25.0, h_m_sq=1.0, h_n_sq=1.0)


class TestValidation:
    def test_valid_scenario(self):
        s = validate_scenario(15, 20, 25, 1, 1)
        assert s == OffloadScenario(15.0, 20.0, 25.0, 1.0, 1.0)

    def test_deadline_order(self):
        with pytest.raises(DeadlineOrderViolation):
            validate_scenario(15, 20, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nats=0.0, d_m=20, d_n=25),
            dict(nats=-1.0, d_m=20, d_n=25),
            dict(nats=15, d_m=0.0, d_n=25),
            dict(nats=15, d_m=20, d_n=25, h_m_sq=0.0),
            dict(nats=15, d_m=20, d_n=25, h_n_sq=-2.0),
            dict(nats=math.nan, d_m=20, d_n=25),
            dict(nats=math.inf, d_m=20, d_n=25),
        ],
    )
    def test_nonpositive_rejected(self, kwargs):
        with pytest.raises(NonPositiveParameter):
            validate_scenario(**kwargs)

    def test_equal_deadlines_allowed(self):
        s = validate_scenario(15, 20, 20)
        assert s.d_n == s.d_m
        assert select_strategy(s).t_star == 0.0

    def test_capped_extension(self):
        # The hybrid optimum's extension is the deadline budget d_n - d_m, capped at d_m.
        assert select_strategy(ANCHOR).t_star == 5.0
        assert select_strategy(validate_scenario(15, 20, 50)).t_star == 20.0

    def test_gains_default_to_one(self):
        # Gains are normalized to unit noise power: an omitted gain is 1, in both constructors.
        for s in (OffloadScenario(15.0, 20.0, 25.0), validate_scenario(15, 20, 25)):
            assert (s.h_m_sq, s.h_n_sq) == (1.0, 1.0)

    @pytest.mark.parametrize("ends, accepted", [
        ("[]", [0.0, 0.5, 1.0]), ("()", [0.5]), ("(]", [0.5, 1.0]), ("[)", [0.0, 0.5]),
    ])
    def test_interval_ends(self, ends, accepted):
        # [0, 1] with each end closed or open: exactly the listed values pass, NaN never.
        values = [math.nextafter(0.0, -1.0), 0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), math.nan]
        passed = []
        for value in values:
            try:
                _require_in("x", value, 0, 1, ends)
                passed.append(value)
            except NonPositiveParameter:
                pass
        assert passed == accepted

    def test_schedule_rejects_negative_power(self):
        with pytest.raises(NonPositiveParameter):
            PowerSchedule(p_n1=-0.1, p_n2=0.0, t_n=0.0)


class TestScheduleEnergy:
    def test_simple_value(self):
        p = PowerSchedule(p_n1=1.0, p_n2=2.0, t_n=5.0)
        assert schedule_energy(ANCHOR, p) == 30.0

    def test_zero_power(self):
        assert schedule_energy(ANCHOR, PowerSchedule(0.0, 0.0, 0.0)) == 0.0

    def test_optimal_point(self):
        # Rounded coordinates of the closed-form optimum at t_n = 5; the grid
        # oracle in test_closed_form pins the same energy.
        p = PowerSchedule(p_n1=1.203116, p_n2=2.320117, t_n=5.0)
        assert schedule_energy(ANCHOR, p) == pytest.approx(35.66291, abs=1e-4)

    def test_zero_extension_ignores_solo_power(self):
        p = PowerSchedule(p_n1=1.0, p_n2=math.inf, t_n=0.0)
        assert schedule_energy(ANCHOR, p) == ANCHOR.d_m

    @given(
        s=hybrid_scenarios(),
        p1=st.floats(0.0, 1e3),
        p2=st.floats(0.0, 1e3),
        frac=st.floats(0.0, 1.0),
    )
    def test_linear_in_powers(self, s, p1, p2, frac):
        t_n = frac * (s.d_n - s.d_m)
        single = schedule_energy(s, PowerSchedule(p1, p2, t_n))
        double = schedule_energy(s, PowerSchedule(2.0 * p1, 2.0 * p2, t_n))
        assert double == pytest.approx(2.0 * single, rel=1e-12)


class TestOffloadedNats:
    def test_zero_power_offloads_nothing(self):
        assert offloaded_nats(ANCHOR, PowerSchedule(0.0, 0.0, 0.0)) == 0.0
        assert offloaded_nats(ANCHOR, PowerSchedule(0.0, 0.0, 5.0)) == 0.0

    def test_zero_extension_carries_nothing_at_any_power(self):
        # A zero-length phase carries 0 nats, also at an infinite power (0 * log1p(inf) is NaN).
        p = PowerSchedule(p_n1=1.0, p_n2=math.inf, t_n=0.0)
        assert offloaded_nats(ANCHOR, p) == ANCHOR.d_m * math.log1p(math.exp(-ANCHOR.nats / ANCHOR.d_m))

    def test_constraint_active_at_optimum(self):
        p = PowerSchedule(*hybrid_powers(ANCHOR, 5.0), t_n=5.0)
        assert offloaded_nats(ANCHOR, p) == pytest.approx(15.0, abs=1e-6)

    def test_oma_only_schedule(self):
        # 5 * ln(1 + (e^3 - 1)) = 15 on the nose.
        p = PowerSchedule(p_n1=0.0, p_n2=math.expm1(3.0), t_n=5.0)
        assert offloaded_nats(ANCHOR, p) == pytest.approx(15.0, abs=1e-9)

    @given(s=hybrid_scenarios(), p1=st.floats(0.0, 1e3), p2=st.floats(0.0, 1e3))
    def test_increasing_in_each_power(self, s, p1, p2):
        t_n = s.d_n - s.d_m
        base = offloaded_nats(s, PowerSchedule(p1, p2, t_n))
        more1 = offloaded_nats(s, PowerSchedule(p1 + 1.0, p2, t_n))
        more2 = offloaded_nats(s, PowerSchedule(p1, p2 + 1.0, t_n))
        assert more2 > base
        assert more1 >= base
        # The shared-slot gain is discounted by exp(-nats/d_m); once that
        # underflows against the total, the strict increase is below one ulp.
        if math.exp(-s.nats / s.d_m) > 1e-9:
            assert more1 > base

    @given(s=hybrid_scenarios())
    def test_closed_form_schedules_are_feasible(self, s):
        t_n = s.d_n - s.d_m
        p = PowerSchedule(*hybrid_powers(s, t_n), t_n=t_n)
        assert offloaded_nats(s, p) >= s.nats * (1.0 - 1e-9)


class TestOperationTables:
    def test_exact_table_is_scalar_table_element_by_element(self):
        # _EXACT promises arrays bit-equal to _SCALAR's floats, for every entry. log1p's
        # arguments stay above -1, where math.log1p is defined; exp and expm1 pass the cutoff.
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-0.999, 1.0, 20_000), rng.exponential(50.0, 20_000),
                            [0.0, -0.0, 700.0, math.nextafter(700.0, math.inf), 800.0, 1e300,
                             math.inf, math.nan]])
        for name in ("exp", "expm1", "log1p"):
            got, scalar = getattr(_EXACT, name), getattr(_SCALAR, name)
            want = np.array([scalar(v) for v in x.tolist()])
            assert got(x).tobytes() == want.tobytes(), name
            assert got(x.reshape(2, -1)).tobytes() == want.tobytes(), name
        cond = x > 1.0
        want = [_SCALAR.where(c, v, -v) for c, v in zip(cond.tolist(), x.tolist())]
        assert _EXACT.where(cond, x, -x).tobytes() == np.array(want).tobytes()
        for name in ("any", "all"):
            got, scalar = getattr(_EXACT, name), getattr(_SCALAR, name)
            assert [got(c) for c in cond] == [scalar(c) for c in cond.tolist()], name


class TestPowerRule:
    def test_saturated_zero_rate_carries_no_power(self):
        # Phase 1 at y1 = 0 with nats/d_m past the cutoff _saturates, yet no rate takes no
        # power; on arrays exp(nats/d_m) * expm1(0) would read inf * 0 = NaN.
        assert _power(_SCALAR, 0.0, 1.0, 800.0, math.exp(700.0)) == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert _power(_NUMPY, np.array([0.0]), 1.0, 800.0, np.exp(800.0)).tolist() == [0.0]

    def test_only_saturated_elements_are_patched(self):
        power = _power(_EXACT, np.array([1.0, 0.0, 800.0]), 2.0)
        assert power.tolist() == [math.expm1(1.0) / 2.0, 0.0, math.inf]


class TestExpCutoff:
    # An exponent of 700 (EXP_CUTOFF) is still finite and one ulp past it saturates to inf, in
    # each rule that tests it: a solo phase (y = nats/t_n), the shared slot (nats/d_m + y1 =
    # 2 nats/d_m at pure NOMA) and an oracle lane, whose optimum is alpha = 0 (y2 = nats/t_n).
    @pytest.mark.parametrize("energy, edge", [
        (lambda nats: oma_energy_n(validate_scenario(nats, 1.0, 2.0), 1.0), 700.0),
        (lambda nats: hybrid_energy(validate_scenario(nats, 1.0, 1.0), 0.0), 350.0),
        (lambda nats: float(oracle_batch(nats, 1.0, 1.0, 1.0)[2][0]), 700.0),
    ], ids=["oma_energy_n", "hybrid_energy shared slot", "oracle_batch lane"])
    def test_cutoff_is_finite_and_one_ulp_past_is_inf(self, energy, edge):
        assert energy(edge) == pytest.approx(math.expm1(700.0), rel=1e-15)
        assert energy(math.nextafter(edge, math.inf)) == math.inf

    def test_cutoff_energy_pinned(self):
        assert oma_energy_n(validate_scenario(700, 1, 2), 1.0) == 1.0142320547350045e+304
