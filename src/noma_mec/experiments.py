"""Deterministic sweep generators and the randomized verification campaign.

Output is tabular: every generator returns plain records, and the ``render_*``
helpers turn them into CSV with ``#``-prefixed metadata lines. Floats are
serialized with ``repr`` so they round-trip exactly; infinities become the
token ``inf``. Re-running a generator with identical inputs yields
byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .closed_form import hybrid_energy, hybrid_powers
from .errors import NonPositiveParameter
from .model import OffloadScenario, StrategyKind, validate_scenario
from .oracle import energy_surface, oracle_batch
from .strategy import select_strategy

SWEEP_COLUMNS = "d_n,e_hybrid,e_pure,e_oma,p1_star,p2_star,t_n_star,selected"
SURFACE_COLUMNS = "p1,p2,energy,feasible,kind"

# Campaign draw ranges: task size, shared slot, d_n / d_m - 1, both gains.
_CAMPAIGN_LOWS = (1.0, 1.0, 1e-3, 0.1, 0.1)
_CAMPAIGN_HIGHS = (40.0, 50.0, 1.0 - 1e-3, 10.0, 10.0)


@dataclass(frozen=True)
class SweepRow:
    """One deadline sample: the three strategy energies and the hybrid optimum behind them."""

    d_n: float
    e_hybrid: float
    e_pure: float
    e_oma: float
    p1_star: float
    p2_star: float
    t_n_star: float
    selected: StrategyKind


@dataclass(frozen=True)
class SurfaceRecord:
    """One long-form surface sample; ``kind`` is ``grid`` or ``optimum``."""

    p1: float
    p2: float
    energy: float
    feasible: bool
    kind: str


@dataclass(frozen=True)
class CampaignSummary:
    """Outcome of a randomized verification run.

    ``max_rel_err`` is the worst closed-form vs oracle disagreement,
    ``max_dominance_violation`` the worst (clamped at 0) excess of the hybrid
    energy over the pure-NOMA or OMA energy. Either is NaN when any
    scenario's value is, and ``passed`` is then false.
    """

    seed: int
    count: int
    max_rel_err: float
    max_dominance_violation: float
    passed: bool


def deadline_sweep(
    nats: float,
    d_m: float,
    d_n_from: float,
    d_n_to: float,
    steps: int,
    h_m_sq: float = 1.0,
    h_n_sq: float = 1.0,
) -> list[SweepRow]:
    """Sweep user n's deadline over ``steps`` uniform samples of [d_n_from, d_n_to].

    Rows come out in ascending deadline order, all quantities from the closed
    forms: the hybrid optimum at the capped extension ``min(d_n - d_m, d_m)``,
    pure NOMA, and OMA over the dedicated slot ``d_n - d_m`` (``inf`` when
    that slot is empty).
    """
    if steps < 2:
        raise NonPositiveParameter(f"steps must be at least 2, got {steps!r}")
    if not (d_m <= d_n_from < d_n_to):
        raise NonPositiveParameter(
            f"need d_m <= d_n_from < d_n_to, got d_m={d_m}, from={d_n_from}, to={d_n_to}"
        )
    rows = []
    for d_n in np.linspace(d_n_from, d_n_to, steps):
        scenario = validate_scenario(nats, d_m, float(d_n), h_m_sq, h_n_sq)
        table = select_strategy(scenario)
        rows.append(
            SweepRow(
                d_n=float(d_n),
                e_hybrid=table.hybrid.energy,
                e_pure=table.pure_noma.energy,
                e_oma=table.oma.energy,
                p1_star=table.p_n1_star,
                p2_star=table.p_n2_star,
                t_n_star=table.t_star,
                selected=table.selected,
            )
        )
    return rows


def surface_export(
    scenario: OffloadScenario,
    t_n: float,
    p1_max: float | None = None,
    p2_max: float | None = None,
    resolution: int = 200,
) -> list[SurfaceRecord]:
    """Long-form records of ``energy_surface`` plus one record for the closed-form optimum.

    Returns exactly ``resolution**2 + 1`` records; the final one has
    ``kind == "optimum"``.
    """
    grid = energy_surface(scenario, t_n, p1_max=p1_max, p2_max=p2_max, resolution=resolution)
    records = [
        SurfaceRecord(
            p1=float(grid.p1_axis[i]),
            p2=float(grid.p2_axis[j]),
            energy=float(grid.energy[i, j]),
            feasible=bool(grid.feasible[i, j]),
            kind="grid",
        )
        for i in range(grid.p1_axis.size)
        for j in range(grid.p2_axis.size)
    ]
    star1, star2 = hybrid_powers(scenario, t_n)
    records.append(
        SurfaceRecord(
            p1=star1,
            p2=star2,
            energy=hybrid_energy(scenario, t_n),
            feasible=True,
            kind="optimum",
        )
    )
    return records


def verification_campaign(seed: int, count: int, tol: float = 1e-10) -> CampaignSummary:
    """Check the oracle-equivalence and dominance invariants on ``count`` random scenarios.

    Scenarios are drawn with a counter-based generator keyed by ``seed``
    (identical seed, identical summary): task size in [1, 40], shared slot in
    [1, 50], user n's deadline strictly inside (d_m, 2 d_m), gains in
    [0.1, 10]. ``tol`` is forwarded to the oracle, which searches all
    scenarios in one batch. Failures, including a non-finite error or
    excess, are reported in the summary, never raised.
    """
    if count < 1:
        raise NonPositiveParameter(f"count must be at least 1, got {count!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    # One draw per row in the order nats, d_m, d_n factor, h_m_sq, h_n_sq:
    # the same stream, value for value, as five scalar draws per scenario.
    draws = rng.uniform(_CAMPAIGN_LOWS, _CAMPAIGN_HIGHS, size=(count, 5))
    scenarios = []
    rows = []
    for nats, d_m, factor, h_m_sq, h_n_sq in draws.tolist():
        scenario = validate_scenario(nats, d_m, d_m * (1.0 + factor), h_m_sq, h_n_sq)
        table = select_strategy(scenario)
        scenarios.append(scenario)
        rows.append((table.hybrid.energy, table.pure_noma.energy, table.oma.energy, table.t_star))
    e_hybrid, e_pure, e_oma, t_star = np.array(rows).T
    _, _, e_oracle, _ = oracle_batch(scenarios, t_star, tol=tol)
    # np.max and np.maximum propagate NaN, and NaN fails both bounds, so a
    # non-finite error or excess reports FAIL instead of folding away.
    max_rel_err = float(np.max(np.abs(e_oracle - e_hybrid) / e_hybrid))
    excess = np.maximum(np.maximum(e_hybrid - e_pure, e_hybrid - e_oma), 0.0)
    max_violation = float(np.max(excess))
    passed = max_rel_err <= 1e-5 and max_violation <= 1e-9
    return CampaignSummary(
        seed=seed,
        count=count,
        max_rel_err=max_rel_err,
        max_dominance_violation=max_violation,
        passed=passed,
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, StrategyKind):
        return value.value
    return str(value)


def _meta_lines(pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# {key}={_fmt(value)}" for key, value in pairs]
    lines.append(f"# tool=noma-mec {__version__}")
    return lines


def render_sweep_csv(
    rows: list[SweepRow],
    nats: float,
    d_m: float,
    h_m_sq: float = 1.0,
    h_n_sq: float = 1.0,
) -> str:
    """Sweep rows as CSV text: metadata lines, header, one line per deadline."""
    lines = _meta_lines(
        [("nats", float(nats)), ("d_m", float(d_m)),
         ("h_m_sq", float(h_m_sq)), ("h_n_sq", float(h_n_sq))]
    )
    lines.append(SWEEP_COLUMNS)
    for r in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (r.d_n, r.e_hybrid, r.e_pure, r.e_oma,
                          r.p1_star, r.p2_star, r.t_n_star, r.selected)
            )
        )
    return "\n".join(lines) + "\n"


def render_surface_csv(
    records: list[SurfaceRecord],
    scenario: OffloadScenario,
    t_n: float,
) -> str:
    """Surface records as CSV text with the same metadata conventions as the sweep."""
    lines = _meta_lines(
        [("nats", scenario.nats), ("d_m", scenario.d_m),
         ("h_m_sq", scenario.h_m_sq), ("h_n_sq", scenario.h_n_sq),
         ("t_n", float(t_n))]
    )
    lines.append(SURFACE_COLUMNS)
    for r in records:
        lines.append(
            ",".join(_fmt(v) for v in (r.p1, r.p2, r.energy, r.feasible, r.kind))
        )
    return "\n".join(lines) + "\n"


def render_campaign_summary(summary: CampaignSummary) -> str:
    """Campaign summary as stable key=value text."""
    lines = [
        f"# tool=noma-mec {__version__}",
        f"seed={summary.seed}",
        f"count={summary.count}",
        f"max_rel_err={_fmt(summary.max_rel_err)}",
        f"max_dominance_violation={_fmt(summary.max_dominance_violation)}",
        f"result={'PASS' if summary.passed else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"
