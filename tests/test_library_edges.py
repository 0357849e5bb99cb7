"""Library edge corpus: every number parameter of every public callable, with hostile values.

Each call either raises a ``NomaMecError`` whose message names the parameter, or returns
a result whose floats are ``float`` (or float64 arrays). No other exception escapes, and
under ``-W error::RuntimeWarning``, as the CI also runs the suite, no numpy warning either.
"""

import dataclasses
import inspect
import math
import numbers

import numpy as np
import pytest

import noma_mec
from noma_mec import (
    NomaMecError,
    PowerSchedule,
    deadline_sweep,
    energy_surface,
    validate_scenario,
    verification_campaign,
)

ANCHOR = validate_scenario(15.0, 20.0, 25.0)
SCENARIO_FIELDS = dict(nats=15.0, d_m=20.0, d_n=25.0, h_m_sq=1.0, h_n_sq=1.0)

# Each public function and validating input type: valid keyword arguments, then the
# parameters that take a number.
ROWS = {
    "OffloadScenario": (SCENARIO_FIELDS, tuple(SCENARIO_FIELDS)),
    "validate_scenario": (SCENARIO_FIELDS, tuple(SCENARIO_FIELDS)),
    "PowerSchedule": (dict(p_n1=1.0, p_n2=2.0, t_n=5.0), ("p_n1", "p_n2", "t_n")),
    "deadline_sweep": (dict(nats=15.0, d_m=20.0, d_n_from=20.0, d_n_to=40.0, steps=3,
                            h_m_sq=1.0, h_n_sq=1.0),
                       ("nats", "d_m", "d_n_from", "d_n_to", "steps", "h_m_sq", "h_n_sq")),
    "energy_surface": (dict(scenario=ANCHOR, t_n=5.0, p1_max=3.0, p2_max=5.0, resolution=4),
                       ("t_n", "p1_max", "p2_max", "resolution")),
    "oracle_batch": (dict(nats=15.0, d_m=20.0, h_n_sq=1.0, t_n=5.0),
                     ("nats", "d_m", "h_n_sq", "t_n")),
    "oracle_bounds": (dict(nats=15.0, d_m=20.0, d_n=25.0, h_n_sq=1.0),
                      ("nats", "d_m", "d_n", "h_n_sq")),
    "verification_campaign": (dict(seed=1, count=3), ("seed", "count")),
    **{name: (dict(scenario=ANCHOR, t_n=5.0), ("t_n",))
       for name in ("energy_derivative", "hybrid_energy", "hybrid_powers", "kkt_log_vars",
                    "log_hybrid_energy", "noma_oma_gap")},
    **{name: (dict(scenario=ANCHOR, slot=5.0), ("slot",))
       for name in ("log_oma_energy_n", "oma_energy_n")},
    # These take records only: no number to refuse.
    **{name: (dict(scenario=ANCHOR), ())
       for name in ("classify_regime", "oma_power_m", "select_strategy")},
    **{name: (dict(scenario=ANCHOR, schedule=PowerSchedule(1.0, 2.0, 5.0)), ())
       for name in ("offloaded_nats", "schedule_energy")},
    "render_campaign_summary": (dict(summary=verification_campaign(1, 3)), ()),
    "render_surface_csv": (dict(grid=energy_surface(ANCHOR, 5.0, resolution=2)), ()),
    "render_sweep_csv": (dict(sweep=deadline_sweep(15.0, 20.0, 20.0, 40.0, 2)), ()),
}

HOSTILE = [True, "5", 10**400, 10**5000, math.nan, -0.0, np.float32(5.0), np.int64(5), None,
           [5.0], 5e-324, 5 + 0j]
HOSTILE_IDS = ["True", "str", "10**400", "10**5000", "nan", "-0.0", "float32", "int64", "None",
               "list", "5e-324", "complex"]


def test_every_public_callable_has_a_row():
    # Functions and the validating input types; records, enums and the error take no row.
    public = {name for name in noma_mec.__all__
              if inspect.isfunction(value := getattr(noma_mec, name))
              or dataclasses.is_dataclass(value)}
    assert public == set(ROWS)


def _floats_are_float(value):
    """Whether every floating value in a result is a ``float`` or a float64 array."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or value.dtype == np.float64
    if isinstance(value, (list, tuple)):
        return all(map(_floats_are_float, value))
    if dataclasses.is_dataclass(value):
        return all(_floats_are_float(getattr(value, f.name)) for f in dataclasses.fields(value))
    return type(value) is float or not isinstance(value, numbers.Real) or isinstance(
        value, numbers.Integral)


# A sweep at d_m = 5e-324 overflows nats / d_m: the rates are refused, as the CLI refuses
# them for the same scenario, not d_m itself.
RATES_REFUSED = {("deadline_sweep", "d_m", "5e-324"): "log-domain rates must be nonnegative,"
                                                     " got (nan, inf)"}


@pytest.mark.parametrize("name", sorted(name for name, (_, parameters) in ROWS.items()
                                        if parameters))
def test_hostile_numbers_refused_by_name_or_read_as_floats(name):
    arguments, parameters = ROWS[name]
    wrong = []
    for parameter in parameters:
        for value, value_id in zip(HOSTILE, HOSTILE_IDS):
            try:
                result = getattr(noma_mec, name)(**{**arguments, parameter: value})
            except NomaMecError as exc:
                if RATES_REFUSED.get((name, parameter, value_id), parameter) not in str(exc):
                    wrong.append((parameter, value_id, str(exc)))
            except Exception as exc:   # any other error, or a numpy warning raised as one
                wrong.append((parameter, value_id, repr(exc)))
            else:
                if not _floats_are_float(result):
                    wrong.append((parameter, value_id, result))
    assert not wrong


def test_short_deadline_lane_refused_by_name():
    # Every field of these lanes is a positive finite number, but d_n < d_m from lane 1 on: the
    # refusal names d_n and the first such lane, as OffloadScenario names the deadlines.
    with pytest.raises(NomaMecError,
                       match=r"^d_n must be at least d_m, got 19\.0 < 20\.0 in lane 1$"):
        noma_mec.oracle_bounds(**{**ROWS["oracle_bounds"][0], "d_n": [25.0, 19.0, 18.0]})
