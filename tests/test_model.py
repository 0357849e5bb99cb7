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
    hybrid_powers,
    offloaded_nats,
    schedule_energy,
    validate_scenario,
)
from noma_mec.model import _EXACT, _SCALAR

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
        assert s.capped_extension == 0.0

    def test_capped_extension(self):
        assert ANCHOR.capped_extension == 5.0
        assert validate_scenario(15, 20, 50).capped_extension == 20.0

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
