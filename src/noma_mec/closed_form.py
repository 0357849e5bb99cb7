"""Closed-form optima for the two-phase offloading problem.

The energy objective ``d_m * p_n1 + t_n * p_n2`` is minimized subject to the
rate constraint in log-domain variables ``y_i = ln(x_i)`` where
``x_1 = 1 + exp(-nats/d_m) * h_n_sq * p_n1`` and ``x_2 = 1 + h_n_sq * p_n2``.
In those variables the problem is a geometric program, its KKT system has a
unique closed-form solution for any fixed extension length ``t_n``, and the
rate constraint is active at every optimum:

    y1 = nats * (d_m - t_n) / (d_m * (d_m + t_n))
    y2 = y1 + nats / d_m = 2 * nats / (d_m + t_n)

All functions here evaluate those forms (and the limiting pure-NOMA / OMA
cases) with ``model``'s rate-to-power rules, ``inf`` past ``EXP_CUTOFF``; the
``log_*`` companions stay finite and should be used for comparisons there.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import (_SCALAR, NomaMecError, OffloadScenario, _phase_energies, _power, _require_in,
                    _saturates)


def _log_rates(ops, nats, d_m, t_n):
    """(y1, y2) of the fixed-extension optimum, elementwise; raises NomaMecError, naming the
    first bad element, where one is negative or NaN."""
    rate_dm = nats / d_m
    # In halves, as 2 * nats and d_m + t_n can overflow, but whole below d_m = 2**-1021, where a
    # half can round (5e-324 to 0) and no part overflows unless y2 does; same bits where both can.
    # At t_n == 0 y2 is 2 * rate_dm itself, which the quotient misses where rate_dm is subnormal.
    half = ops.where(d_m < 2.0 ** -1021, 1.0, 0.5)
    y2 = ops.where(t_n == 0.0, 2.0 * rate_dm, 2.0 * half * nats / (half * d_m + half * t_n))
    # rate_dm lies in [y2/2, y2], so y1 is exact (Sterbenz): y2 - y1 == rate_dm, 0.0 at t_n == d_m.
    y1 = y2 - rate_dm
    ok = (y1 >= 0.0) & (y2 >= 0.0)
    if ops.any(ok ^ True):   # ^ True, not ~, which turns a plain True into -2
        y1, y2 = (float(np.broadcast_to(y, np.shape(ok)).flat[np.argmin(ok)]) for y in (y1, y2))
        raise NomaMecError(f"log-domain rates must be nonnegative, got ({y1!r}, {y2!r})")
    return y1, y2


LogRates = namedtuple("LogRates", "y1 y2")


def kkt_log_vars(scenario: OffloadScenario, t_n: float) -> LogRates:
    """Optimal log-domain rates (y1, y2) for a fixed extension ``t_n`` in [0, d_m]: the coupling
    ``y2 - y1 == nats / d_m`` holds bit for bit, ``d_m * y1 + t_n * y2 == nats`` to a few ulp."""
    t_n = _require_in("t_n", t_n, 0, scenario.d_m)
    return LogRates(*_log_rates(_SCALAR, scenario.nats, scenario.d_m, t_n))


def _hybrid_phase_energies(ops, d_m, t_n, p_n1, p_n2):
    """Phase energies of the fixed-extension optimum, elementwise. Where ``p_n1 == 0`` phase 2
    carries the whole task at ``y2 == nats/d_m``, which takes ``d_m``: just below ``t_n == d_m``
    the rates round to those of ``d_m`` itself, and billing ``t_n`` would price a schedule that
    falls short of the task, below OMA over ``d_m``. Billed over ``d_m`` it is that energy."""
    return _phase_energies(ops, d_m, ops.where(p_n1 == 0.0, d_m, t_n), p_n1, p_n2)


def _oma_energy(ops, nats, h_n_sq, slot):
    """``oma_energy_n`` elementwise: the slot times its solo power, multiplied as
    ``_phase_energies`` multiplies; an empty slot costs inf, from a NaN rate, not a 1/0."""
    rate = nats / ops.where(slot > 0.0, slot, math.nan)
    return ops.where(slot > 0.0, slot * _power(ops, rate, h_n_sq), math.inf)


def _optimum_at(scenario: OffloadScenario, t_n: float) -> tuple[float, float, float]:
    """``(p_n1, p_n2, energy)`` of the optimum at ``t_n > 0``: hybrid up to ``d_m``, OMA past it."""
    if t_n <= scenario.d_m:
        return (*hybrid_powers(scenario, t_n), hybrid_energy(scenario, t_n))
    return 0.0, _power(_SCALAR, scenario.nats / t_n, scenario.h_n_sq), oma_energy_n(scenario, t_n)


def hybrid_powers(scenario: OffloadScenario, t_n: float) -> tuple[float, float]:
    """Optimal powers (p_n1, p_n2) for a fixed extension ``t_n`` in [0, d_m], meeting the rate
    constraint with equality; ``p_n1`` is the pure-NOMA power at 0 and exactly 0 at ``d_m``."""
    y1, y2 = kkt_log_vars(scenario, t_n)
    rate_dm, h_n_sq = scenario.nats / scenario.d_m, scenario.h_n_sq
    return _power(_SCALAR, y1, h_n_sq, rate_dm, _SCALAR.exp(rate_dm)), _power(_SCALAR, y2, h_n_sq)


def hybrid_energy(scenario: OffloadScenario, t_n: float) -> float:
    """Energy of the fixed-extension optimum; non-increasing in ``t_n`` on [0, d_m]."""
    p_n1, p_n2 = hybrid_powers(scenario, t_n)
    phase1, phase2 = _hybrid_phase_energies(_SCALAR, scenario.d_m, float(t_n), p_n1, p_n2)
    return float(phase1 + phase2)


def oma_power_m(scenario: OffloadScenario) -> float:
    """User m's power in plain OMA, solving ``d_m * ln(1 + p * h_m_sq) == nats``."""
    return _power(_SCALAR, scenario.nats / scenario.d_m, scenario.h_m_sq)


def oma_energy_n(scenario: OffloadScenario, slot: float) -> float:
    """User n's energy when it offloads everything in a dedicated slot of length ``slot``,
    finite and nonnegative (NomaMecError otherwise).

    Returns ``inf`` at ``slot == 0`` (no finite power completes the task) and
    when the required power overflows; ``log_oma_energy_n`` stays finite in
    the latter case.
    """
    slot = _require_in("slot", slot, 0, math.inf, "[)")
    return float(_oma_energy(_SCALAR, scenario.nats, scenario.h_n_sq, slot))


def energy_derivative(scenario: OffloadScenario, t_n: float) -> float:
    """d/dt of the normalized energy ``h_n_sq * hybrid_energy`` at ``t_n``: in the solo-phase
    rate y2, ``exp(y2) * (1 - y2) - 1``, zero at y2 = 0 and negative for y2 > 0."""
    y2 = kkt_log_vars(scenario, t_n).y2
    if _saturates(y2):
        return -math.inf
    return math.exp(y2) * (1.0 - y2) - 1.0


def _log_expm1(x: float) -> float:
    """ln(exp(x) - 1) without overflow; -inf at x == 0."""
    _require_in("argument", x, 0, math.inf)
    if x == 0.0:
        return -math.inf
    if x > 0.693:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def _log_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_hybrid_energy(scenario: OffloadScenario, t_n: float) -> float:
    """ln of ``hybrid_energy``, finite even when the plain value saturates to inf."""
    y1, y2 = kkt_log_vars(scenario, t_n)
    rate_dm = scenario.nats / scenario.d_m
    term1 = math.log(scenario.d_m) + rate_dm + _log_expm1(y1)
    slot = t_n if y1 > 0.0 else scenario.d_m   # the phase-2 length hybrid_energy bills
    term2 = math.log(slot) + _log_expm1(y2) if slot > 0.0 else -math.inf
    return _log_add(term1, term2) - math.log(scenario.h_n_sq)


def log_oma_energy_n(scenario: OffloadScenario, slot: float) -> float:
    """ln of ``oma_energy_n``; +inf at ``slot == 0``. The slot must be finite and nonnegative."""
    slot = _require_in("slot", slot, 0, math.inf, "[)")
    if slot == 0.0:
        return math.inf
    return math.log(slot) + _log_expm1(scenario.nats / slot) - math.log(scenario.h_n_sq)
