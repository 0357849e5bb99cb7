"""Regime detection, strategy selection, and the NOMA/OMA energy gap.

The deadline ratio decides everything. For ``d_n < 2 d_m`` the hybrid split
is optimal (it degrades to pure NOMA when the deadlines coincide); from
``d_n == 2 d_m`` on, user n's solo slot is long enough that plain OMA wins.
``select_strategy`` evaluates all three strategies and picks per that rule;
on the exact tie at ``d_n == 2 d_m`` it prefers OMA.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .closed_form import (
    _hybrid_phase_energies,
    _log_rates,
    _oma_energy,
    hybrid_energy,
    log_hybrid_energy,
    log_oma_energy_n,
    oma_energy_n,
)
from .model import _SCALAR, EnergyReport, OffloadScenario, StrategyKind, _power, _require_in


class Regime(Enum):
    """Where a scenario sits relative to the deadline thresholds."""

    DEGENERATE = "degenerate"      # d_n == d_m: OMA has no slot at all
    HYBRID = "hybrid"              # d_m < d_n < 2 d_m
    BOUNDARY = "boundary"          # d_n == 2 d_m: hybrid and OMA tie exactly
    OMA_FAVORED = "oma-favored"    # d_n > 2 d_m


ComparisonTable = namedtuple("ComparisonTable", "hybrid pure_noma oma selected regime t_star"
                                                " p_n1_star p_n2_star")
ComparisonTable.__doc__ = """Three-way energy comparison for one scenario.

``selected`` minimizes energy among the feasible rows; the exact tie at
``d_n == 2 d_m`` resolves to OMA, every other tie (there are none in
exact arithmetic) would resolve to the hybrid row. ``t_star``,
``p_n1_star`` and ``p_n2_star`` are the extension and powers behind the
hybrid row.
"""


_REGIMES = tuple(Regime)


def _regimes(ops, d_m, d_n):
    """Index into ``_REGIMES`` of each scenario, elementwise."""
    where = ops.where
    return where(d_n == d_m, 0, where(d_n < 2.0 * d_m, 1, where(d_n == 2.0 * d_m, 2, 3)))


def classify_regime(scenario: OffloadScenario) -> Regime:
    return _REGIMES[_regimes(_SCALAR, scenario.d_m, scenario.d_n)]


# select_strategy's numbers, one scalar or array per field; regime indexes _REGIMES.
_Columns = namedtuple("_Columns", "t_star p_n1 p_n2 hybrid_phase1 hybrid_phase2 e_hybrid"
                                  " e_pure e_oma oma_feasible regime selected")


def _strategy_columns(ops, nats, d_m, d_n, h_n_sq) -> _Columns:
    """The three strategies and the selection, over the fields of valid scenarios.

    ``select_strategy`` passes floats with ``model._SCALAR``, which touches
    no numpy. The sweep and the campaign pass broadcastable arrays with
    ``model._EXACT`` and hold ``np.errstate(all="ignore")``, because
    saturated and empty-slot elements are computed before they are masked.
    Either way arithmetic and comparisons run in the same order and the
    exponentials come from ``math``, so every element equals its
    one-scenario value bit for bit. A column that depends on no array
    argument is a scalar or a 0-d array.
    """
    oma_slot = d_n - d_m
    t_star = ops.where(d_m < oma_slot, d_m, oma_slot)   # the budget capped at d_m; ties as min
    y1, y2 = _log_rates(ops, nats, d_m, t_star)
    rate_dm = nats / d_m
    exp_rate_dm = ops.exp(rate_dm)
    p_n1, p_n2 = _power(ops, y1, h_n_sq, rate_dm, exp_rate_dm), _power(ops, y2, h_n_sq)
    phase1, phase2 = _hybrid_phase_energies(ops, d_m, t_star, p_n1, p_n2)
    oma_feasible = oma_slot > 0.0
    regime = _regimes(ops, d_m, d_n)
    return _Columns(
        t_star, p_n1, p_n2, phase1, phase2, phase1 + phase2,
        # Pure NOMA, the shared slot alone: hybrid at t_n == 0, where y1 is nats/d_m itself.
        d_m * _power(ops, rate_dm, h_n_sq, rate_dm, exp_rate_dm),
        _oma_energy(ops, nats, h_n_sq, oma_slot),   # inf where the slot is empty
        oma_feasible, regime,
        # Hybrid up to the hybrid regime; from the boundary tie on, OMA.
        ops.where(regime <= 1, StrategyKind.HYBRID_NOMA, StrategyKind.OMA),
    )


def _report(strategy: StrategyKind, energy: float, phase1: float, phase2: float,
            feasible: bool, h_n_sq: float) -> EnergyReport:
    return EnergyReport(strategy, energy, h_n_sq * energy, phase1, phase2, feasible)


def select_strategy(scenario: OffloadScenario) -> ComparisonTable:
    """Evaluate hybrid, pure-NOMA and OMA and pick the energy-optimal strategy.

    The hybrid row uses the extension ``min(d_n - d_m, d_m)`` (the deadline
    budget, capped at the point where the first-phase power hits zero). The
    OMA row uses the full dedicated slot ``d_n - d_m``; when that slot is
    empty the row is reported infeasible with infinite energy rather than
    raising.
    """
    c = _strategy_columns(_SCALAR, scenario.nats, scenario.d_m, scenario.d_n, scenario.h_n_sq)
    h_n_sq, feasible = scenario.h_n_sq, c.oma_feasible
    return ComparisonTable(
        hybrid=_report(StrategyKind.HYBRID_NOMA, c.e_hybrid, c.hybrid_phase1, c.hybrid_phase2,
                       True, h_n_sq),
        pure_noma=_report(StrategyKind.PURE_NOMA, c.e_pure, c.e_pure, 0.0, True, h_n_sq),
        oma=_report(StrategyKind.OMA, c.e_oma, 0.0, c.e_oma if feasible else 0.0, feasible, h_n_sq),
        selected=c.selected,
        regime=_REGIMES[c.regime],
        t_star=c.t_star,
        p_n1_star=c.p_n1,
        p_n2_star=c.p_n2,
    )


def noma_oma_gap(scenario: OffloadScenario, t_n: float) -> float:
    """Hybrid energy minus OMA energy over the same interval length; <= 0 on (0, d_m].

    Times ``h_n_sq`` it is ``(d_m + t) e^(2 nats/(d_m + t)) - d_m e^(nats/d_m) - t e^(nats/t)``
    at ``t = t_n``, non-decreasing in ``t_n`` and zero at ``t_n == d_m``. When both sides
    saturate to inf the sign is decided in the log domain (0.0 on an exact tie).
    """
    t_n = _require_in("t_n", t_n, 0, scenario.d_m, "(]")
    e_hybrid = hybrid_energy(scenario, t_n)
    e_oma = oma_energy_n(scenario, t_n)
    if math.isinf(e_hybrid) and math.isinf(e_oma):
        log_gap = log_hybrid_energy(scenario, t_n) - log_oma_energy_n(scenario, t_n)
        if log_gap == 0.0:
            return 0.0
        return -math.inf if log_gap < 0.0 else math.inf
    return e_hybrid - e_oma

