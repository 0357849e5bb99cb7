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
cases) with overflow-safe primitives. Whenever an exponent exceeds
``EXP_CUTOFF`` the plain-domain value saturates to ``inf``; the ``log_*``
companions stay finite and should be used for comparisons in that range.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import NonPositiveParameter, RegimeViolation, TimeExtensionOutOfRange
from .model import OffloadScenario, _phase_energies, _where

# Exponent magnitude beyond which exp() products are at risk of overflowing a
# double; plain-domain energies saturate to inf past this point.
EXP_CUTOFF = 700.0


def _check_extension(scenario: OffloadScenario, t_n: float) -> None:
    if not (0.0 <= t_n <= scenario.d_m):
        raise TimeExtensionOutOfRange(
            f"t_n must lie in [0, d_m] = [0, {scenario.d_m}], got {t_n!r}"
        )


def _log_rates(nats, d_m, t_n):
    """(y1, y2) of the fixed-extension optimum, elementwise over floats or arrays; raises
    NonPositiveParameter, naming the first bad element, where one is negative or NaN."""
    rate_dm = nats / d_m
    y2 = 2.0 * nats / (d_m + t_n)
    # rate_dm lies in [y2/2, y2], so this subtraction is exact (Sterbenz);
    # y2 - y1 == rate_dm then holds bit-for-bit, and y1 == 0.0 exactly at t_n == d_m.
    y1 = y2 - rate_dm
    ok = (y1 >= 0.0) & (y2 >= 0.0)   # a bool over floats: the check touches no numpy
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        y1, y2 = (float(np.broadcast_to(y, np.shape(ok)).flat[np.argmin(ok)]) for y in (y1, y2))
        raise NonPositiveParameter(f"log-domain rates must be nonnegative, got ({y1!r}, {y2!r})")
    return y1, y2


LogRates = namedtuple("LogRates", "y1 y2")


def kkt_log_vars(scenario: OffloadScenario, t_n: float) -> LogRates:
    """Optimal log-domain rates (y1, y2) for a fixed extension ``t_n`` in [0, d_m]: the coupling
    ``y2 - y1 == nats / d_m`` holds bit for bit, ``d_m * y1 + t_n * y2 == nats`` to a few ulp."""
    _check_extension(scenario, t_n)
    return LogRates(*_log_rates(scenario.nats, scenario.d_m, t_n))


def _math_map(fn, x):
    """The ``math`` function ``fn`` on each element of ``x``, capped at EXP_CUTOFF.

    ``math`` is the reference: numpy's ``exp``/``expm1`` can differ in the
    last ulp. Callers replace every result whose exponent passes the cutoff,
    so the cap only keeps ``fn`` from raising OverflowError there.
    """
    if not isinstance(x, np.ndarray):
        return fn(min(x, EXP_CUTOFF))
    x = np.minimum(x, EXP_CUTOFF)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _hybrid_powers(nats, d_m, h_n_sq, t_n):
    """``hybrid_powers`` elementwise over scalars or broadcastable arrays of valid fields;
    raises as ``_log_rates`` does."""
    y1, y2 = _log_rates(nats, d_m, t_n)
    rate_dm = nats / d_m
    p_n1 = _where(
        y1 == 0.0,
        0.0,
        _where(rate_dm + y1 > EXP_CUTOFF, math.inf,
               _math_map(math.exp, rate_dm) * _math_map(math.expm1, y1) / h_n_sq),
    )
    p_n2 = _where(y2 > EXP_CUTOFF, math.inf, _math_map(math.expm1, y2) / h_n_sq)
    return p_n1, p_n2


def _pure_noma_power(nats, d_m, h_n_sq):
    """``pure_noma_power`` elementwise."""
    rate_dm = nats / d_m
    return _where(2.0 * rate_dm > EXP_CUTOFF, math.inf,
                  _math_map(math.exp, rate_dm) * _math_map(math.expm1, rate_dm) / h_n_sq)


def _oma_energy(nats, h_n_sq, slot):
    """``oma_energy_n`` elementwise; an empty slot gets the rate inf, over arrays from numpy's
    division (callers hold ``np.errstate``), over floats from a branch."""
    rate = nats / slot if isinstance(slot, np.ndarray) or slot > 0.0 else math.inf
    return _where(rate > EXP_CUTOFF, math.inf, slot * _math_map(math.expm1, rate) / h_n_sq)


def hybrid_powers(scenario: OffloadScenario, t_n: float) -> tuple[float, float]:
    """Optimal powers (p_n1, p_n2) for a fixed extension ``t_n`` in [0, d_m].

    The resulting schedule meets the rate constraint with equality. At
    ``t_n == 0`` the first power coincides bit-for-bit with
    ``pure_noma_power``; at ``t_n == d_m`` it is exactly 0.
    """
    _check_extension(scenario, t_n)
    p_n1, p_n2 = _hybrid_powers(scenario.nats, scenario.d_m, scenario.h_n_sq, t_n)
    return float(p_n1), float(p_n2)


def hybrid_energy(scenario: OffloadScenario, t_n: float) -> float:
    """Energy of the fixed-extension optimum; non-increasing in ``t_n`` on [0, d_m]."""
    phase1, phase2 = _phase_energies(scenario.d_m, t_n, *hybrid_powers(scenario, t_n))
    return float(phase1 + phase2)


def pure_noma_power(scenario: OffloadScenario) -> float:
    """Shared-slot power when the whole task is offloaded during ``d_m``."""
    return float(_pure_noma_power(scenario.nats, scenario.d_m, scenario.h_n_sq))


def pure_noma_energy(scenario: OffloadScenario) -> float:
    """Energy of the pure-NOMA strategy; equals ``hybrid_energy(scenario, 0)``."""
    return scenario.d_m * pure_noma_power(scenario)


def oma_power_m(scenario: OffloadScenario) -> float:
    """User m's power in plain OMA, solving ``d_m * ln(1 + p * h_m_sq) == nats``."""
    rate_dm = scenario.nats / scenario.d_m
    if rate_dm > EXP_CUTOFF:
        return math.inf
    return math.expm1(rate_dm) / scenario.h_m_sq


def oma_energy_n(scenario: OffloadScenario, slot: float) -> float:
    """User n's energy when it offloads everything in a dedicated slot of length ``slot``.

    Returns ``inf`` at ``slot == 0`` (no finite power completes the task) and
    when the required power overflows; ``log_oma_energy_n`` stays finite in
    the latter case.
    """
    if slot < 0.0:
        raise TimeExtensionOutOfRange(f"slot length must be nonnegative, got {slot!r}")
    return float(_oma_energy(scenario.nats, scenario.h_n_sq, slot))


def optimal_time_extension(scenario: OffloadScenario) -> float:
    """Energy-optimal extension length ``d_n - d_m`` in the hybrid regime.

    Valid only for ``d_n < 2 d_m``; the monotone energy makes the largest
    admissible extension optimal. Raises RegimeViolation otherwise.
    """
    if scenario.d_n >= 2.0 * scenario.d_m:
        raise RegimeViolation(
            f"optimal extension is defined for d_n < 2 d_m, got d_n={scenario.d_n}, d_m={scenario.d_m}"
        )
    return scenario.capped_extension


def energy_derivative(scenario: OffloadScenario, t_n: float) -> float:
    """d/dt of the normalized energy ``h_n_sq * hybrid_energy`` at ``t_n``: in the solo-phase
    rate y2, ``exp(y2) * (1 - y2) - 1``, zero at y2 = 0 and negative for y2 > 0."""
    y2 = kkt_log_vars(scenario, t_n).y2
    if y2 > EXP_CUTOFF:
        return -math.inf
    return math.exp(y2) * (1.0 - y2) - 1.0


def _log_expm1(x: float) -> float:
    """ln(exp(x) - 1) without overflow; -inf at x == 0."""
    if x < 0.0:
        raise NonPositiveParameter(f"argument must be nonnegative, got {x!r}")
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
    term2 = math.log(t_n) + _log_expm1(y2) if t_n > 0.0 else -math.inf
    return _log_add(term1, term2) - math.log(scenario.h_n_sq)


def log_pure_noma_energy(scenario: OffloadScenario) -> float:
    """ln of ``pure_noma_energy``."""
    rate_dm = scenario.nats / scenario.d_m
    return math.log(scenario.d_m) + rate_dm + _log_expm1(rate_dm) - math.log(scenario.h_n_sq)


def log_oma_energy_n(scenario: OffloadScenario, slot: float) -> float:
    """ln of ``oma_energy_n``; +inf at ``slot == 0``."""
    if slot < 0.0:
        raise TimeExtensionOutOfRange(f"slot length must be nonnegative, got {slot!r}")
    if slot == 0.0:
        return math.inf
    return math.log(slot) + _log_expm1(scenario.nats / slot) - math.log(scenario.h_n_sq)
