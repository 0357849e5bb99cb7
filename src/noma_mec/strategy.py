"""Regime detection, strategy selection, and the NOMA/OMA energy gap.

The deadline ratio decides everything. For ``d_n < 2 d_m`` the hybrid split
is optimal (it degrades to pure NOMA when the deadlines coincide); from
``d_n == 2 d_m`` on, user n's solo slot is long enough that plain OMA wins.
``select_strategy`` evaluates all three strategies and picks per that rule;
on the exact tie at ``d_n == 2 d_m`` it prefers OMA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .closed_form import (
    EXP_CUTOFF,
    hybrid_energy,
    hybrid_powers,
    log_hybrid_energy,
    log_oma_energy_n,
    oma_energy_n,
    pure_noma_power,
)
from .errors import TimeExtensionOutOfRange
from .model import EnergyReport, OffloadScenario, StrategyKind


class Regime(Enum):
    """Where a scenario sits relative to the deadline thresholds."""

    DEGENERATE = "degenerate"      # d_n == d_m: OMA has no slot at all
    HYBRID = "hybrid"              # d_m < d_n < 2 d_m
    BOUNDARY = "boundary"          # d_n == 2 d_m: hybrid and OMA tie exactly
    OMA_FAVORED = "oma-favored"    # d_n > 2 d_m


@dataclass(frozen=True)
class ComparisonTable:
    """Three-way energy comparison for one scenario.

    ``selected`` minimizes energy among the feasible rows; the exact tie at
    ``d_n == 2 d_m`` resolves to OMA, every other tie (there are none in
    exact arithmetic) would resolve to the hybrid row. ``t_star``,
    ``p_n1_star`` and ``p_n2_star`` are the extension and powers behind the
    hybrid row.
    """

    hybrid: EnergyReport
    pure_noma: EnergyReport
    oma: EnergyReport
    selected: StrategyKind
    regime: Regime
    t_star: float
    p_n1_star: float
    p_n2_star: float


def classify_regime(scenario: OffloadScenario) -> Regime:
    if scenario.d_n == scenario.d_m:
        return Regime.DEGENERATE
    if scenario.d_n < 2.0 * scenario.d_m:
        return Regime.HYBRID
    if scenario.d_n == 2.0 * scenario.d_m:
        return Regime.BOUNDARY
    return Regime.OMA_FAVORED


def _report(strategy: StrategyKind, phase1: float, phase2: float,
            feasible: bool, h_n_sq: float) -> EnergyReport:
    energy = phase1 + phase2
    return EnergyReport(
        strategy=strategy,
        energy=energy,
        phase1_energy=phase1,
        phase2_energy=phase2,
        normalized_energy=h_n_sq * energy,
        feasible=feasible,
    )


def select_strategy(scenario: OffloadScenario) -> ComparisonTable:
    """Evaluate hybrid, pure-NOMA and OMA and pick the energy-optimal strategy.

    The hybrid row uses the extension ``min(d_n - d_m, d_m)`` (the deadline
    budget, capped at the point where the first-phase power hits zero). The
    OMA row uses the full dedicated slot ``d_n - d_m``; when that slot is
    empty the row is reported infeasible with infinite energy rather than
    raising.
    """
    regime = classify_regime(scenario)
    t_star = scenario.capped_extension
    oma_slot = scenario.d_n - scenario.d_m

    p_n1, p_n2 = hybrid_powers(scenario, t_star)
    hybrid = _report(
        StrategyKind.HYBRID_NOMA,
        phase1=scenario.d_m * p_n1,
        phase2=t_star * p_n2 if t_star > 0.0 else 0.0,
        feasible=True,
        h_n_sq=scenario.h_n_sq,
    )
    pure = _report(
        StrategyKind.PURE_NOMA,
        phase1=scenario.d_m * pure_noma_power(scenario),
        phase2=0.0,
        feasible=True,
        h_n_sq=scenario.h_n_sq,
    )
    if oma_slot > 0.0:
        oma = _report(
            StrategyKind.OMA,
            phase1=0.0,
            phase2=oma_energy_n(scenario, oma_slot),
            feasible=True,
            h_n_sq=scenario.h_n_sq,
        )
    else:
        oma = EnergyReport(
            strategy=StrategyKind.OMA,
            energy=math.inf,
            phase1_energy=0.0,
            phase2_energy=0.0,
            normalized_energy=math.inf,
            feasible=False,
        )

    if regime in (Regime.DEGENERATE, Regime.HYBRID):
        selected = StrategyKind.HYBRID_NOMA
    else:
        selected = StrategyKind.OMA
    return ComparisonTable(hybrid=hybrid, pure_noma=pure, oma=oma, selected=selected,
                           regime=regime, t_star=t_star, p_n1_star=p_n1, p_n2_star=p_n2)


def noma_oma_gap(scenario: OffloadScenario, t_n: float) -> float:
    """Hybrid energy minus OMA energy over the same interval length; <= 0 on (0, d_m].

    When both sides saturate to inf the sign is decided in the log domain
    (0.0 on an exact tie).
    """
    if not (0.0 < t_n <= scenario.d_m):
        raise TimeExtensionOutOfRange(
            f"t_n must lie in (0, d_m] = (0, {scenario.d_m}], got {t_n!r}"
        )
    e_hybrid = hybrid_energy(scenario, t_n)
    e_oma = oma_energy_n(scenario, t_n)
    if math.isinf(e_hybrid) and math.isinf(e_oma):
        log_gap = log_hybrid_energy(scenario, t_n) - log_oma_energy_n(scenario, t_n)
        if log_gap == 0.0:
            return 0.0
        return -math.inf if log_gap < 0.0 else math.inf
    return e_hybrid - e_oma


def normalized_gap(scenario: OffloadScenario, x: float) -> float:
    """Gain-normalized energy gap between the hybrid split and OMA, as a
    function of a candidate interval length ``x > 0``:

        (d_m + x) * exp(2 nats / (d_m + x)) - d_m * exp(nats / d_m) - x * exp(nats / x)

    Non-decreasing for ``x < d_m``, exactly 0 at ``x == d_m``. As ``x -> 0``
    the OMA term dominates and the value diverges to -inf; overflow in that
    term is reported as -inf.
    """
    if not (x > 0.0):
        raise TimeExtensionOutOfRange(f"x must be positive, got {x!r}")
    nats, d_m = scenario.nats, scenario.d_m
    e_joint = 2.0 * nats / (d_m + x)
    e_shared = nats / d_m
    e_solo = nats / x
    if max(e_joint, e_shared, e_solo) > EXP_CUTOFF:
        # The largest exponent decides the sign: for x != d_m a negative term
        # dominates (e_solo for x < d_m, e_shared for x > d_m).
        return 0.0 if x == d_m else -math.inf
    return (
        (d_m + x) * math.exp(e_joint)
        - d_m * math.exp(e_shared)
        - x * math.exp(e_solo)
    )


def hybrid_lower_bound(scenario: OffloadScenario) -> float:
    """Greatest lower bound of the hybrid energy over extensions in [0, d_m].

    Attained at the capped extension ``t_n == d_m``, where the shared-slot
    power vanishes; equals ``oma_energy_n(scenario, d_m)`` bit-for-bit.
    """
    rate_dm = scenario.nats / scenario.d_m
    if rate_dm > EXP_CUTOFF:
        return math.inf
    return scenario.d_m * math.expm1(rate_dm) / scenario.h_n_sq
