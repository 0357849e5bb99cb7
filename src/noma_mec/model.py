"""Domain types and direct evaluation of candidate offloading schedules.

Two users offload computation tasks of equal size (measured in nats) to an
edge server. User m owns a dedicated uplink slot of length ``d_m``; user n,
whose deadline ``d_n`` is no tighter, may transmit on top of that slot with
power ``p_n1`` (its signal is decoded first, so user m's transmission acts
as interference) and may then keep transmitting alone for an extra interval
``t_n`` with power ``p_n2``. Channel gains are normalized to unit noise
power, so ``gain * power`` is an SNR; time units are abstract.

Everything in this module is an immutable value or a pure function, safe to
use concurrently.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

# The most rows one command may produce: sweep samples, surface samples or campaign
# scenarios. A campaign certifies 4,096 at a time and peaks at about 37 MB at this limit.
_MAX_ROWS = 1_000_000

# Exponent magnitude beyond which exp() products are at risk of overflowing a
# double; plain-domain energies saturate to inf past this point.
EXP_CUTOFF = 700.0


class NomaMecError(ValueError):
    """The one error this package raises: an input outside the model's domain or an unusable
    config file. The message names the parameter or the file and what it missed."""


def _real(value) -> float:
    """``value`` as a float; NaN, which fails every check, for a bool or a non-number (a str, say).
    An integer past the float range reads as an infinity, as its digits do on the command line."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):   # float: fast
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real_lanes(name: str, value) -> np.ndarray:
    """``value``, a positive finite number or an array of them, flat as floats, each element read
    as ``_real`` reads one; NomaMecError names ``name``, the first bad lane and what it holds."""
    numeric = isinstance(value, np.ndarray) and value.dtype.kind in "fiu"   # read at once
    elements = np.asarray(value, dtype=float if numeric else object).ravel()
    lanes = elements if numeric else np.fromiter(map(_real, elements.tolist()), float, elements.size)
    bad = ~((0.0 < lanes) & (lanes < math.inf))
    if bad.any():
        k = int(np.argmax(bad))   # shown as a float, or as the caller gave it
        raise NomaMecError(f"{name} must be a positive finite number,"
                           f" got {_shown(elements.tolist()[k])} in lane {k}")
    return lanes


def _shown(value) -> str:
    """``repr(value)``; for an int past the 4,300 digits Python prints (or a list holding one),
    its type in angle brackets, as ``sys.set_int_max_str_digits`` is a process-wide setting."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _require_in(name: str, value, low, high, ends: str = "[]", integer: bool = False) -> float:
    """``value`` as a float; ``NomaMecError`` unless it lies between ``low`` and ``high``, each end
    closed (``[``, ``]``) or open (``(``, ``)``) as ``ends`` says, and, if ``integer``, is an int
    (first checked). NaN, a bool and a str lie in no interval, and a bool is no integer."""
    if integer and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise NomaMecError(f"{name} must be an integer, got {_shown(value)}")
    number = _real(value)
    above = low < number if ends[0] == "(" else low <= number
    below = number < high if ends[1] == ")" else number <= high
    if not (above and below):
        raise NomaMecError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {_shown(value)}")
    return number


def _per_element(fn, cap=EXP_CUTOFF):
    """``math``'s ``fn`` on each element, capped at ``cap`` (callers replace what lies past it),
    so arrays stay bit-equal to floats: numpy's ``exp``/``expm1``/``log1p`` can be an ulp off."""
    def each(x):
        x = np.minimum(x, cap)
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return each


# The operations of the private elementwise rules (``_*`` here and in ``closed_form``,
# ``strategy`` and ``oracle``); each entry point names its table. _SCALAR: floats, no numpy.
# _EXACT: arrays bit-equal to _SCALAR, also plain bools for ``any``/``all``. _NUMPY: the
# oracle's own path. Array callers hold ``np.errstate``: masked elements may overflow.
_Ops = namedtuple("_Ops", "where exp expm1 log1p any all")
_SCALAR = _Ops(lambda cond, yes, no: yes if cond else no, lambda x: math.exp(min(x, EXP_CUTOFF)),
               lambda x: math.expm1(min(x, EXP_CUTOFF)), math.log1p, bool, bool)
_EXACT = _Ops(np.where, _per_element(math.exp), _per_element(math.expm1),
              _per_element(math.log1p, math.inf), np.any, np.all)
# The search tests a mask per step: count_nonzero is as truthy as any, at a quarter of the cost.
_NUMPY = _Ops(np.where, np.exp, np.expm1, np.log1p, np.count_nonzero, np.all)


def _offloaded(ops, nats, d_m, h_n_sq, t_n, p_n1, p_n2):
    """``offloaded_nats`` elementwise over the powers; a zero-length phase carries 0 nats."""
    discount = math.exp(-nats / d_m)   # the scenario's own, a float in every caller
    phase1 = d_m * ops.log1p(discount * h_n_sq * p_n1)
    return phase1 + ops.where(t_n > 0.0, t_n * ops.log1p(h_n_sq * p_n2), 0.0)


def _saturates(y, rate_dm=0.0):
    return rate_dm + y > EXP_CUTOFF


def _power(ops, y, h_sq, rate_dm=0.0, exp_rate_dm=None, can_saturate=True):
    """Power that carries log-rate ``y`` elementwise, alone or, given ``rate_dm = nats/d_m`` and its
    ``exp_rate_dm``, in the shared slot; inf where it ``_saturates``, 0 there at ``y == 0``."""
    power = (ops.expm1(y) if exp_rate_dm is None else exp_rate_dm * ops.expm1(y)) / h_sq
    if can_saturate and ops.any(saturated := _saturates(y, rate_dm)):
        power = ops.where(saturated, ops.where(y > 0.0, math.inf, 0.0), power)
    return power


def _phase_energies(ops, d_m, t_n, p_n1, p_n2):
    """``(d_m * p_n1, t_n * p_n2)`` elementwise; a zero-length phase costs 0, not 0 * inf = NaN."""
    return d_m * p_n1, ops.where(t_n > 0.0, t_n * p_n2, 0.0)


@dataclass(frozen=True)
class OffloadScenario:
    """One problem instance: common task size, ordered deadlines, channel gains.

    Invariants: all fields are positive finite floats (a bool, a str or an integer past
    the float range is refused), and ``d_m <= d_n`` (users are ordered by deadline).
    """

    nats: float
    d_m: float
    d_n: float
    h_m_sq: float = 1.0
    h_n_sq: float = 1.0

    def __post_init__(self):
        fields = vars(self)   # in declaration order; frozen blocks setattr, not the instance dict
        for name, value in fields.items():
            fields[name] = number = _real(value)
            if not 0.0 < number < math.inf:
                raise NomaMecError(f"{name} must be a positive finite number, got {_shown(value)}")
        if self.d_n < self.d_m:
            raise NomaMecError(
                f"deadlines must satisfy d_m <= d_n, got d_m={self.d_m}, d_n={self.d_n}")


@dataclass(frozen=True)
class PowerSchedule:
    """A candidate allocation for user n: powers in the two phases and the extension length.

    ``p_n1`` applies during the shared slot ``d_m``, ``p_n2`` during the solo
    extension ``t_n``. Values are extended reals: ``inf`` marks a saturated
    closed form. Whether ``t_n`` fits the deadline budget ``d_n - d_m`` of a
    particular scenario is the caller's concern.
    """

    p_n1: float
    p_n2: float
    t_n: float

    def __post_init__(self):
        vars(self).update({k: _require_in(k, v, 0, math.inf) for k, v in vars(self).items()})


class StrategyKind(Enum):
    """How user n splits its offload across the two phases.

    HYBRID_NOMA uses both the shared slot and the solo extension, PURE_NOMA
    only the shared slot, OMA only a dedicated slot of its own.
    """

    HYBRID_NOMA = "hybrid-noma"
    PURE_NOMA = "pure-noma"
    OMA = "oma"


EnergyReport = namedtuple("EnergyReport", "strategy energy normalized_energy phase1_energy"
                                          " phase2_energy feasible")
EnergyReport.__doc__ = """Energy of one strategy with its per-phase breakdown.

``energy`` is an extended real (``inf`` when the strategy is infeasible or
its power saturates the floating-point range). ``normalized_energy`` is
``h_n_sq * energy``, the gain-free quantity used for cross-scenario
comparison. When ``feasible`` is set, ``energy`` equals
``phase1_energy + phase2_energy``. The fields run in the order of the
``solve`` table's columns.
"""


def validate_scenario(
    nats: float,
    d_m: float,
    d_n: float,
    h_m_sq: float = 1.0,
    h_n_sq: float = 1.0,
) -> OffloadScenario:
    """``OffloadScenario(nats, d_m, d_n, h_m_sq, h_n_sq)``, the same call: NomaMecError for a
    field that is no positive finite real, and when ``d_n < d_m``."""
    return OffloadScenario(nats, d_m, d_n, h_m_sq, h_n_sq)


def schedule_energy(scenario: OffloadScenario, schedule: PowerSchedule) -> float:
    """Transmit energy of a schedule: ``d_m * p_n1 + t_n * p_n2``.

    This is the raw objective value; it does not care whether the schedule
    offloads enough nats.
    """
    phase1, phase2 = _phase_energies(_SCALAR, scenario.d_m, schedule.t_n,
                                     schedule.p_n1, schedule.p_n2)
    return phase1 + phase2


def offloaded_nats(scenario: OffloadScenario, schedule: PowerSchedule) -> float:
    """Total nats user n gets through under a schedule.

    During the shared slot the effective gain is discounted by user m's
    interference, which at user m's own exact-rate operating point equals
    ``exp(-nats / d_m)``. The schedule is rate-feasible for the scenario iff
    the result is at least ``scenario.nats``.
    """
    return _offloaded(_SCALAR, scenario.nats, scenario.d_m, scenario.h_n_sq,
                      schedule.t_n, schedule.p_n1, schedule.p_n2)
