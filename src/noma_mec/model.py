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
from dataclasses import dataclass
from enum import Enum

from .errors import DeadlineOrderViolation, NonPositiveParameter


def _require_positive(name: str, value: float) -> None:
    # NaN fails both comparisons, so it is rejected here as well.
    if not (value > 0.0) or math.isinf(value):
        raise NonPositiveParameter(f"{name} must be a positive finite number, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if not (value >= 0.0):
        raise NonPositiveParameter(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class OffloadScenario:
    """One problem instance: common task size, ordered deadlines, channel gains.

    Invariants: all fields positive and finite, and ``d_m <= d_n`` (users are
    ordered by deadline).
    """

    nats: float
    d_m: float
    d_n: float
    h_m_sq: float = 1.0
    h_n_sq: float = 1.0

    def __post_init__(self):
        _require_positive("nats", self.nats)
        _require_positive("d_m", self.d_m)
        _require_positive("d_n", self.d_n)
        _require_positive("h_m_sq", self.h_m_sq)
        _require_positive("h_n_sq", self.h_n_sq)
        if self.d_n < self.d_m:
            raise DeadlineOrderViolation(
                f"deadlines must satisfy d_m <= d_n, got d_m={self.d_m}, d_n={self.d_n}"
            )

    @property
    def capped_extension(self) -> float:
        """Solo extension of the hybrid optimum, ``min(d_n - d_m, d_m)``: the
        deadline budget, capped at ``d_m``, where the shared-slot power is zero."""
        return min(self.d_n - self.d_m, self.d_m)


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
        _require_nonnegative("p_n1", self.p_n1)
        _require_nonnegative("p_n2", self.p_n2)
        _require_nonnegative("t_n", self.t_n)


class StrategyKind(Enum):
    """How user n splits its offload across the two phases.

    HYBRID_NOMA uses both the shared slot and the solo extension, PURE_NOMA
    only the shared slot, OMA only a dedicated slot of its own.
    """

    HYBRID_NOMA = "hybrid-noma"
    PURE_NOMA = "pure-noma"
    OMA = "oma"


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one strategy with its per-phase breakdown.

    ``energy`` is an extended real (``inf`` when the strategy is infeasible or
    its power saturates the floating-point range). ``normalized_energy`` is
    ``h_n_sq * energy``, the gain-free quantity used for cross-scenario
    comparison. When ``feasible`` is set, ``energy`` equals
    ``phase1_energy + phase2_energy``.
    """

    strategy: StrategyKind
    energy: float
    phase1_energy: float
    phase2_energy: float
    normalized_energy: float
    feasible: bool


def validate_scenario(
    nats: float,
    d_m: float,
    d_n: float,
    h_m_sq: float = 1.0,
    h_n_sq: float = 1.0,
) -> OffloadScenario:
    """Build a validated scenario from raw numbers.

    Raises NonPositiveParameter for degenerate sizes, deadlines or gains, and
    DeadlineOrderViolation when ``d_n < d_m``.
    """
    return OffloadScenario(
        nats=float(nats),
        d_m=float(d_m),
        d_n=float(d_n),
        h_m_sq=float(h_m_sq),
        h_n_sq=float(h_n_sq),
    )


def schedule_energy(scenario: OffloadScenario, schedule: PowerSchedule) -> float:
    """Transmit energy of a schedule: ``d_m * p_n1 + t_n * p_n2``.

    This is the raw objective value; it does not care whether the schedule
    offloads enough nats.
    """
    phase1 = scenario.d_m * schedule.p_n1
    # 0 * inf would be NaN; a zero-length phase consumes nothing.
    phase2 = schedule.t_n * schedule.p_n2 if schedule.t_n > 0.0 else 0.0
    return phase1 + phase2


def offloaded_nats(scenario: OffloadScenario, schedule: PowerSchedule) -> float:
    """Total nats user n gets through under a schedule.

    During the shared slot the effective gain is discounted by user m's
    interference, which at user m's own exact-rate operating point equals
    ``exp(-nats / d_m)``. The schedule is rate-feasible for the scenario iff
    the result is at least ``scenario.nats``.
    """
    discount = math.exp(-scenario.nats / scenario.d_m)
    phase1 = scenario.d_m * math.log1p(discount * scenario.h_n_sq * schedule.p_n1)
    phase2 = (
        schedule.t_n * math.log1p(scenario.h_n_sq * schedule.p_n2)
        if schedule.t_n > 0.0
        else 0.0
    )
    return phase1 + phase2
