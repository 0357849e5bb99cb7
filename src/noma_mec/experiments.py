"""Deterministic sweep generators and the randomized verification campaign.

Output is tabular: the generators return columns or a summary, and the
``render_*`` helpers turn those, or an ``energy_surface`` grid, into CSV with
``#``-prefixed metadata lines. Floats are serialized with ``repr`` so they
round-trip exactly; infinities become the token ``inf``. Re-running a
generator with identical inputs yields byte-identical output.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ._version import __version__
from .closed_form import hybrid_energy, hybrid_powers
from .errors import NonPositiveParameter
from .model import _MAX_ROWS, OffloadScenario, StrategyKind, validate_scenario
from .oracle import SurfaceGrid, oracle_batch
from .strategy import _strategy_columns

SWEEP_COLUMNS = "d_n,e_hybrid,e_pure,e_oma,p1_star,p2_star,t_n_star,selected"
SURFACE_COLUMNS = "p1,p2,energy,feasible,kind"

# Campaign draw ranges: task size, shared slot, d_n / d_m - 1, both gains.
_CAMPAIGN_LOWS = (1.0, 1.0, 1e-3, 0.1, 0.1)
_CAMPAIGN_HIGHS = (40.0, 50.0, 1.0 - 1e-3, 10.0, 10.0)
_KIND_TEXT = {kind: kind.value for kind in StrategyKind}
_CHUNK_ROWS = 4096   # sweep rows rendered at a time, so the cells held at once stay bounded


# One deadline sample: the three strategy energies and the hybrid optimum behind them.
SweepRow = namedtuple("SweepRow", SWEEP_COLUMNS)
_columns = attrgetter(*SweepRow._fields)


@dataclass(frozen=True)
class DeadlineSweep:
    """A deadline sweep as one list per CSV column, in ascending ``d_n``. ``len``,
    indexing and iteration give rows, namedtuples with the column names as fields."""

    d_n: list[float]
    e_hybrid: list[float]
    e_pure: list[float]
    e_oma: list[float]
    p1_star: list[float]
    p2_star: list[float]
    t_n_star: list[float]
    selected: list[StrategyKind]

    def __len__(self) -> int:
        return len(self.d_n)

    def __getitem__(self, i: int | slice) -> SweepRow | DeadlineSweep:
        # A slice gives the sub-sweep. Also serves iteration, which stops at
        # the IndexError past the last row.
        cut = [column[i] for column in _columns(self)]
        return DeadlineSweep(*cut) if isinstance(i, slice) else SweepRow._make(cut)


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
) -> DeadlineSweep:
    """Sweep user n's deadline over ``steps`` uniform samples of [d_n_from, d_n_to].

    Columns run in ascending deadline order, all quantities from the closed
    forms: the hybrid optimum at the capped extension ``min(d_n - d_m, d_m)``,
    pure NOMA, and OMA over the dedicated slot ``d_n - d_m`` (``inf`` when
    that slot is empty). ``steps`` must lie in [2, 1,000,000].
    """
    if steps < 2:
        raise NonPositiveParameter(f"steps must be at least 2, got {steps!r}")
    if steps > _MAX_ROWS:
        raise NonPositiveParameter(f"steps must be at most {_MAX_ROWS}, got {steps!r}")
    # The fields first, so that a bad d_m is named; the order and finiteness checks then cover d_n.
    scenario = validate_scenario(nats, d_m, d_m, h_m_sq, h_n_sq)
    if not (d_m <= d_n_from < d_n_to):
        raise NonPositiveParameter(
            f"need d_m <= d_n_from < d_n_to, got d_m={d_m}, from={d_n_from}, to={d_n_to}"
        )
    if not math.isfinite(d_n_to):
        raise NonPositiveParameter(f"d_n_to must be finite, got {d_n_to!r}")
    d_n = np.linspace(d_n_from, d_n_to, steps)
    with np.errstate(all="ignore"):
        c = _strategy_columns(scenario.nats, scenario.d_m, d_n, scenario.h_n_sq)
    cols = [col.tolist() for col in (d_n, c.e_hybrid, c.e_oma, c.p_n1, c.p_n2, c.t_star, c.selected)]
    return DeadlineSweep(*cols[:2], [float(c.e_pure)] * steps, *cols[2:])


def verification_campaign(seed: int, count: int, tol: float = 1e-10) -> CampaignSummary:
    """Check the oracle-equivalence and dominance invariants on ``count`` random scenarios.

    Scenarios are drawn with a counter-based generator keyed by ``seed``
    (identical seed, identical summary): task size in [1, 40], shared slot in
    [1, 50], user n's deadline strictly inside (d_m, 2 d_m), gains in
    [0.1, 10]. ``tol`` is forwarded to the oracle, which searches all
    scenarios in one batch. ``count`` must lie in [1, 1,000,000]. Failures,
    including a non-finite error or excess, are reported in the summary, never raised.
    """
    if not (1 <= count <= _MAX_ROWS):
        raise NonPositiveParameter(f"count must lie in [1, {_MAX_ROWS}], got {count!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise NonPositiveParameter(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    # One draw per row in the order nats, d_m, d_n factor, h_m_sq, h_n_sq:
    # the same stream, value for value, as five scalar draws per scenario.
    draws = rng.uniform(_CAMPAIGN_LOWS, _CAMPAIGN_HIGHS, size=(count, 5))
    draws[:, 2] = draws[:, 1] * (1.0 + draws[:, 2])   # the d_n factor becomes d_n
    nats, d_m, d_n, _, h_n_sq = draws.T
    with np.errstate(all="ignore"):
        c = _strategy_columns(nats, d_m, d_n, h_n_sq)
    e_hybrid, e_pure, e_oma = c.e_hybrid, c.e_pure, c.e_oma
    _, _, e_oracle, _ = oracle_batch(nats, d_m, h_n_sq, c.t_star, tol=tol)
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


def _run_cells(column: list, fmt=repr) -> list[str]:
    """``fmt`` of each value, called once per run of equal values but for each zero and NaN."""
    cells, above, text = [], None, ""
    for value in column:
        if value != above or not value:
            above, text = value, fmt(value)
        cells.append(text)
    return cells


def _meta_lines(pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# {key}={_fmt(value)}" for key, value in pairs]
    lines.append(f"# tool=noma-mec {__version__}")
    return lines


def render_sweep_csv(
    rows: DeadlineSweep,
    nats: float,
    d_m: float,
    h_m_sq: float = 1.0,
    h_n_sq: float = 1.0,
) -> str:
    """A deadline sweep as CSV text: metadata lines, header, one line per deadline.

    Each run of equal values in a column is formatted once, but every zero
    (``0.0 == -0.0`` prints two ways) and every NaN (it equals nothing) on its own."""
    lines = _meta_lines(
        [("nats", float(nats)), ("d_m", float(d_m)),
         ("h_m_sq", float(h_m_sq)), ("h_n_sq", float(h_n_sq))]
    )
    lines.append(SWEEP_COLUMNS)
    for start in range(0, len(rows), _CHUNK_ROWS):
        *floats, kinds = _columns(rows[start:start + _CHUNK_ROWS])
        cells = [*map(_run_cells, floats), _run_cells(kinds, _KIND_TEXT.__getitem__)]
        lines.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(lines) + "\n"


def render_surface_csv(
    grid: SurfaceGrid,
    scenario: OffloadScenario,
    t_n: float,
) -> str:
    """An ``energy_surface`` grid as CSV text with the sweep's metadata conventions.

    One ``grid`` line per sample, row by row in ``p1``, then one ``optimum``
    line with the closed-form powers and energy at ``t_n``.
    """
    lines = _meta_lines(
        [("nats", scenario.nats), ("d_m", scenario.d_m),
         ("h_m_sq", scenario.h_m_sq), ("h_n_sq", scenario.h_n_sq),
         ("t_n", float(t_n))]
    )
    lines.append(SURFACE_COLUMNS)
    # Cells are floats and bools from ``tolist``: ``repr`` and a flag table give ``_fmt``'s text.
    p2_cells = [repr(p2) for p2 in grid.p2_axis.tolist()]
    flags = (_fmt(False), _fmt(True))
    # Convert and join one p1 row at a time: no per-sample object outlives its row.
    for p1, energies, feasible in zip(grid.p1_axis.tolist(), grid.energy, grid.feasible):
        p1_cell = repr(p1)
        lines.append("\n".join([
            f"{p1_cell},{p2_cell},{energy!r},{flags[ok]},grid"
            for p2_cell, energy, ok in zip(p2_cells, energies.tolist(), feasible.tolist())
        ]))
    star1, star2 = hybrid_powers(scenario, t_n)
    optimum = (star1, star2, hybrid_energy(scenario, t_n), True, "optimum")
    # The final newline rides on the last line, so the whole text is built once.
    lines.append(",".join(_fmt(v) for v in optimum) + "\n")
    return "\n".join(lines)


def render_campaign_summary(summary: CampaignSummary) -> str:
    """Campaign summary as stable key=value text."""
    lines = _meta_lines([]) + [
        f"seed={summary.seed}",
        f"count={summary.count}",
        f"max_rel_err={_fmt(summary.max_rel_err)}",
        f"max_dominance_violation={_fmt(summary.max_dominance_violation)}",
        f"result={'PASS' if summary.passed else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"
