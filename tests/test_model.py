import ast
import builtins
import dataclasses
import math
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import noma_mec
from conftest import hybrid_scenarios
from noma_mec import (
    NomaMecError,
    OffloadScenario,
    PowerSchedule,
    deadline_sweep,
    energy_derivative,
    energy_surface,
    hybrid_energy,
    hybrid_powers,
    kkt_log_vars,
    log_hybrid_energy,
    log_oma_energy_n,
    noma_oma_gap,
    offloaded_nats,
    oma_energy_n,
    oracle_batch,
    schedule_energy,
    select_strategy,
    validate_scenario,
    verification_campaign,
)
from noma_mec.model import _EXACT, _NUMPY, _SCALAR, _power, _require_in

ANCHOR = validate_scenario(nats=15.0, d_m=20.0, d_n=25.0, h_m_sq=1.0, h_n_sq=1.0)


class TestValidation:
    def test_valid_scenario(self):
        s = validate_scenario(15, 20, 25, 1, 1)
        assert s == OffloadScenario(15.0, 20.0, 25.0, 1.0, 1.0)

    def test_deadline_order(self):
        with pytest.raises(NomaMecError, match=r"^deadlines must satisfy d_m <= d_n, got d_m=20\.0,"
                                              r" d_n=10\.0$"):
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
        (field,) = (key for key, value in kwargs.items() if not 0.0 < value < math.inf)
        with pytest.raises(NomaMecError, match=f"^{field} must be a positive finite number, got "):
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
            except NomaMecError as exc:
                assert str(exc) == f"x must lie in {ends[0]}0, 1{ends[1]}, got {value!r}"
        assert passed == accepted

    def test_one_error_type(self):
        # Every refusal is a NomaMecError (a ValueError) whose message names the parameter:
        # each raise in the package raises it or re-raises, and no module defines another
        # exception class.
        def is_exception(base):
            leaf = getattr(builtins, base.rpartition(".")[2], None)
            return base.endswith("NomaMecError") or (
                isinstance(leaf, type) and issubclass(leaf, BaseException))

        raised, classes = set(), []
        for path in sorted(pathlib.Path(noma_mec.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.add(ast.unparse(exc))
                if isinstance(node, ast.ClassDef) and any(
                        is_exception(ast.unparse(base)) for base in node.bases):
                    classes.append(f"{path.stem}.{node.name}")
        assert raised == {"NomaMecError"}
        assert classes == ["model.NomaMecError"]
        assert issubclass(NomaMecError, ValueError)

    @pytest.mark.parametrize("value", [True, False, "15", 10**400, -10**400, None, 15j, np.True_],
                             ids=["True", "False", "str", "10**400", "-10**400", "None", "complex",
                                  "numpy-bool"])
    @pytest.mark.parametrize("build", [validate_scenario, OffloadScenario])
    def test_field_must_be_a_real_number(self, build, value):
        # A bool is an int and "15" parses, but neither is a number here; an integer past the
        # float range reads as an infinity. The message names the field, as for 0 or NaN.
        for field in ("nats", "d_m", "d_n", "h_m_sq", "h_n_sq"):
            message = f"^{field} must be a positive finite number, got {re.escape(repr(value))}$"
            with pytest.raises(NomaMecError, match=message):
                build(**{**dict(nats=15, d_m=20, d_n=25), field: value})

    @pytest.mark.parametrize("call, message", [
        (lambda: validate_scenario(10**5000, 1, 2),
         "nats must be a positive finite number, got <int too long to print>"),
        (lambda: hybrid_energy(ANCHOR, 10**5000),
         "t_n must lie in [0, 20.0], got <int too long to print>"),
        (lambda: deadline_sweep(15, 20, 20, 40, 10**5000),
         "steps must lie in [2, 1000000], got <int too long to print>"),
        (lambda: deadline_sweep(15, 20, 20, 10**5000, 3),
         "d_n_to must be finite, got <int too long to print>"),
        (lambda: verification_campaign(-10**5000, 3),
         "seed must be a nonnegative integer, got <int too long to print>"),
        (lambda: hybrid_energy(ANCHOR, [10**5000]),
         "t_n must lie in [0, 20.0], got <list too long to print>"),
    ], ids=["scenario field", "t_n", "steps", "d_n_to", "seed", "list holding one"])
    def test_integer_too_long_to_print_is_refused_by_name(self, call, message):
        # Python's repr refuses an int of more than 4,300 digits with a plain ValueError; the
        # refusal names the parameter and the value's type instead.
        with pytest.raises(NomaMecError, match=f"^{re.escape(message)}$"):
            call()

    def test_fields_are_stored_as_floats(self):
        # validate_scenario is the same call as the constructor: both store float(value).
        s = OffloadScenario(15, 20, 25)
        assert s == OffloadScenario(15.0, 20.0, 25.0) == validate_scenario(15, 20, 25)
        assert hash(s) == hash(OffloadScenario(15.0, 20.0, 25.0))
        mixed = OffloadScenario(np.int64(15), np.float64(20.0), Fraction(51, 2), np.float32(0.5), 2)
        assert mixed == OffloadScenario(15.0, 20.0, 25.5, 0.5, 2.0)
        for built in (s, mixed, validate_scenario(15, 20, 25)):
            assert [type(v) for v in vars(built).values()] == [float] * 5
        # Fields run in declaration order, the order the solve output and CSV headers print.
        assert list(vars(s)) == [f.name for f in dataclasses.fields(OffloadScenario)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.nats = 16.0

    def test_deadline_order_is_checked_on_the_stored_floats(self):
        assert OffloadScenario(15, 20, 20.0).d_n == 20.0
        with pytest.raises(NomaMecError, match=r"^deadlines must satisfy d_m <= d_n, got d_m=20\.0,"
                                              r" d_n=19\.0$"):
            OffloadScenario(15, 20, 19)

    def test_schedule_fields_are_stored_as_floats(self):
        schedule = PowerSchedule(1, np.float64(2.0), Fraction(3))
        assert vars(schedule) == {"p_n1": 1.0, "p_n2": 2.0, "t_n": 3.0}
        assert [type(v) for v in vars(schedule).values()] == [float] * 3
        # A schedule admits infinite powers: an integer past the float range reads as one.
        assert PowerSchedule(10**400, 0, 0).p_n1 == math.inf
        for field in ("p_n1", "p_n2", "t_n"):
            for value in (True, "1"):
                with pytest.raises(NomaMecError, match=rf"^{field} must lie in \[0, inf\], got "
                                                       rf"{re.escape(repr(value))}$"):
                    PowerSchedule(**{**dict(p_n1=0.0, p_n2=0.0, t_n=0.0), field: value})

    def test_schedule_rejects_negative_power(self):
        with pytest.raises(NomaMecError, match=r"^p_n1 must lie in \[0, inf\], got -0\.1$"):
            PowerSchedule(p_n1=-0.1, p_n2=0.0, t_n=0.0)


# Each entry point whose scalar float argument goes through _require_in, called with the
# argument under test: (id, parameter named in the refusal, call). With True, the value 1,
# every call here ran before bools were refused, and every call with "1" raised a TypeError.
TYPED_CALLS = [
    ("hybrid_powers", "t_n", lambda v: hybrid_powers(ANCHOR, v)),
    ("hybrid_energy", "t_n", lambda v: hybrid_energy(ANCHOR, v)),
    ("kkt_log_vars", "t_n", lambda v: kkt_log_vars(ANCHOR, v)),
    ("energy_derivative", "t_n", lambda v: energy_derivative(ANCHOR, v)),
    ("log_hybrid_energy", "t_n", lambda v: log_hybrid_energy(ANCHOR, v)),
    ("oma_energy_n", "slot", lambda v: oma_energy_n(ANCHOR, v)),
    ("log_oma_energy_n", "slot", lambda v: log_oma_energy_n(ANCHOR, v)),
    ("noma_oma_gap", "t_n", lambda v: noma_oma_gap(ANCHOR, v)),
    ("energy_surface-t_n", "t_n", lambda v: energy_surface(ANCHOR, v, resolution=2)),
    ("energy_surface-p1_max", "p1_max", lambda v: energy_surface(ANCHOR, 5.0, v, 1.0, 2)),
    ("energy_surface-p2_max", "p2_max", lambda v: energy_surface(ANCHOR, 5.0, 1.0, v, 2)),
    ("PowerSchedule", "p_n1", lambda v: PowerSchedule(v, 0.0, 0.0)),
]


class TestTypedParameters:
    @pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
    @pytest.mark.parametrize("name, call", [case[1:] for case in TYPED_CALLS],
                             ids=[case[0] for case in TYPED_CALLS])
    def test_bool_and_str_refused(self, name, call, value):
        with pytest.raises(NomaMecError, match=rf"^{name} must lie in .*, got "
                                               rf"{re.escape(repr(value))}$"):
            call(value)

    @pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
    @pytest.mark.parametrize("label, call", [
        ("from", lambda v: deadline_sweep(1.0, 0.5, v, 2.0, 5)),
        ("to", lambda v: deadline_sweep(1.0, 0.5, 0.5, v, 5)),
    ], ids=["d_n_from", "d_n_to"])
    def test_sweep_bounds_refuse_bool_and_str(self, label, call, value):
        # At d_m = 0.5 the value 1 is a valid bound: only its type is at fault.
        with pytest.raises(NomaMecError, match=rf"^need d_m <= d_n_from < d_n_to, got .*"
                                               rf"{label}={re.escape(repr(value))}"):
            call(value)

    def test_numbers_of_other_types_still_pass(self):
        # numpy scalars, plain ints and Fractions are real numbers: they read as their floats.
        assert hybrid_powers(ANCHOR, np.float32(5.0)) == hybrid_powers(ANCHOR, 5)
        assert hybrid_energy(ANCHOR, np.float32(5.0)) == hybrid_energy(ANCHOR, 5.0)
        assert oma_energy_n(ANCHOR, Fraction(5)) == oma_energy_n(ANCHOR, np.int64(5))
        assert deadline_sweep(1.0, 0.5, 1, 2, 3).d_n.tolist() == [1.0, 1.5, 2.0]


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
        assert [_EXACT.any(c) for c in cond] == [_SCALAR.any(c) for c in cond.tolist()]


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
