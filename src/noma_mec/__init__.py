"""Energy-optimal power and time allocation for two-user NOMA-assisted MEC offloading.

The library solves, in closed form, how a deadline-constrained user should
split its uplink offloading between a slot shared with another user (NOMA)
and a solo extension, selects among the hybrid-NOMA / pure-NOMA / OMA
strategies, and certifies every closed form against an independent numerical
oracle.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .closed_form import (
    energy_derivative,
    hybrid_energy,
    hybrid_powers,
    kkt_log_vars,
    log_hybrid_energy,
    log_oma_energy_n,
    oma_energy_n,
    oma_power_m,
)
from .experiments import (
    CampaignSummary,
    SurfaceGrid,
    deadline_sweep,
    energy_surface,
    render_campaign_summary,
    render_surface_csv,
    render_sweep_csv,
    verification_campaign,
)
from .model import (
    EXP_CUTOFF,
    EnergyReport,
    NomaMecError,
    OffloadScenario,
    PowerSchedule,
    StrategyKind,
    offloaded_nats,
    schedule_energy,
    validate_scenario,
)
from .oracle import (
    oracle_batch,
    oracle_bounds,
)
from .strategy import (
    ComparisonTable,
    Regime,
    classify_regime,
    noma_oma_gap,
    select_strategy,
)

# Every name imported above is public, written once: __all__ is read off the namespace.
__all__ = ["__version__", *sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType))]
