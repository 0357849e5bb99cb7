"""Deterministic sweep generators and the randomized verification campaign.

Output is tabular: the generators return columns, a summary or an
``energy_surface`` grid, and each ``render_*`` helper turns its record alone into
text with ``#``-prefixed metadata lines. Floats are serialized with ``repr`` so they
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
from .closed_form import _optimum_at, hybrid_powers
from .model import (_EXACT, _MAX_ROWS, _NUMPY, NomaMecError, OffloadScenario, StrategyKind,
                    _offloaded, _phase_energies, _real, _require_in, _shown, validate_scenario)
from .oracle import oracle_batch
from .strategy import _strategy_columns

SWEEP_COLUMNS = "d_n,e_hybrid,e_pure,e_oma,p1_star,p2_star,t_n_star,selected"
SURFACE_COLUMNS = "p1,p2,energy,feasible,kind"

# Campaign draw ranges: task size, shared slot, d_n / d_m - 1, both gains.
_CAMPAIGN_LOWS = (1.0, 1.0, 1e-3, 0.1, 0.1)
_CAMPAIGN_HIGHS = (40.0, 50.0, 1.0 - 1e-3, 10.0, 10.0)
_CHUNK_ROWS = 4096   # sweep rows rendered or campaign scenarios certified at a time
# Boundary surface samples whose true offloaded total equals the task size can
# round a few ulp short; the feasibility mask keeps them.
FEASIBILITY_SLACK = 1e-12

# One deadline sample: the three strategy energies and the hybrid optimum behind them.
SweepRow = namedtuple("SweepRow", SWEEP_COLUMNS)
_columns = attrgetter(*SweepRow._fields)


@dataclass(frozen=True)
class DeadlineSweep:
    """A deadline sweep as one list per CSV column, in ascending ``d_n``, and the validated
    ``scenario`` its CSV header prints (its ``d_n`` is ``d_m``; the header prints no ``d_n``).
    ``len``, indexing and iteration give rows, namedtuples with the column names as fields."""

    d_n: list[float]
    e_hybrid: list[float]
    e_pure: list[float]
    e_oma: list[float]
    p1_star: list[float]
    p2_star: list[float]
    t_n_star: list[float]
    selected: list[StrategyKind]
    scenario: OffloadScenario

    def __len__(self) -> int:
        return len(self.d_n)

    def __getitem__(self, i: int | slice) -> SweepRow | DeadlineSweep:
        # A slice gives the sub-sweep of the same scenario. Also serves iteration, which
        # stops at the IndexError past the last row.
        cut = [column[i] for column in _columns(self)]
        return DeadlineSweep(*cut, self.scenario) if isinstance(i, slice) else SweepRow._make(cut)


CampaignSummary = namedtuple("CampaignSummary", "seed count max_rel_err max_dominance_violation"
                                                " passed")
CampaignSummary.__doc__ = """Outcome of a randomized verification run.

``max_rel_err`` is the worst closed-form vs oracle disagreement,
``max_dominance_violation`` the worst (clamped at 0) excess of the hybrid
energy over the pure-NOMA or OMA energy. Either is NaN when any
scenario's value is, and ``passed`` is then false. The fields run in the
order of ``render_campaign_summary``'s lines.
"""


class SurfaceGrid(namedtuple("SurfaceGrid", "p1_axis p2_axis energy feasible scenario t_n")):
    """Dense energy/feasibility sampling of ``scenario`` over the power plane at fixed ``t_n``.

    ``energy[i, j] == d_m * p1_axis[i] + t_n * p2_axis[j]``, ``inf`` where it
    overflows; ``feasible`` marks samples whose offloaded total reaches the
    task size (up to FEASIBILITY_SLACK relative). ``scenario`` and ``t_n`` (a
    float) are the ones sampled, which the CSV header and ``optimum`` line print.
    """

    __slots__ = ()

    def feasible_argmin(self) -> tuple[int, int] | None:
        """Indices of the cheapest feasible sample, or None if none is feasible."""
        if not self.feasible.any():
            return None
        masked = np.where(self.feasible, self.energy, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        return int(i), int(j)


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
    that slot is empty). ``steps`` must be an integer in [2, 1,000,000].
    """
    _require_in("steps", steps, 2, _MAX_ROWS, integer=True)
    # The fields first, so that a bad d_m is named; the order and finiteness checks then cover d_n.
    scenario = validate_scenario(nats, d_m, d_m, h_m_sq, h_n_sq)
    low, high = _real(d_n_from), _real(d_n_to)   # NaN, which fails the order, for a bool or str
    if not (scenario.d_m <= low < high):
        raise NomaMecError(f"need d_m <= d_n_from < d_n_to, got d_m={d_m},"
                           f" from={_shown(d_n_from)}, to={_shown(d_n_to)}")
    if not math.isfinite(high):
        raise NomaMecError(f"d_n_to must be finite, got {_shown(d_n_to)}")
    d_n = np.linspace(low, high, steps)
    with np.errstate(all="ignore"):
        c = _strategy_columns(_EXACT, scenario.nats, scenario.d_m, d_n, scenario.h_n_sq)
    cols = [col.tolist() for col in (d_n, c.e_hybrid, c.e_oma, c.p_n1, c.p_n2, c.t_star, c.selected)]
    return DeadlineSweep(*cols[:2], [float(c.e_pure)] * steps, *cols[2:], scenario)


def verification_campaign(seed: int, count: int) -> CampaignSummary:
    """Check the oracle-equivalence and dominance invariants on ``count`` random scenarios.

    Scenarios are drawn with a counter-based generator keyed by ``seed``
    (identical seed, identical summary): task size in [1, 40], shared slot in
    [1, 50], user n's deadline strictly inside (d_m, 2 d_m), gains in
    [0.1, 10]. They are drawn and certified 4,096 at a time, one oracle
    search per chunk, so memory stays flat in ``count``. ``count`` must be an
    integer in [1, 1,000,000]. Failures, including a non-finite error or
    excess, are reported in the summary, never raised.
    """
    _require_in("count", count, 1, _MAX_ROWS, integer=True)
    _require_in("seed", seed, -math.inf, math.inf, integer=True)
    if seed < 0:
        raise NomaMecError(f"seed must be a nonnegative integer, got {_shown(seed)}")
    rng = np.random.Generator(np.random.Philox(seed))
    max_rel_err = max_violation = 0.0
    for start in range(0, count, _CHUNK_ROWS):
        # One draw per row in the order nats, d_m, d_n factor, h_m_sq, h_n_sq: the same
        # stream, value for value, as five scalar draws per scenario, chunk after chunk.
        draws = rng.uniform(_CAMPAIGN_LOWS, _CAMPAIGN_HIGHS,
                            size=(min(_CHUNK_ROWS, count - start), 5))
        draws[:, 2] = draws[:, 1] * (1.0 + draws[:, 2])   # the d_n factor becomes d_n
        nats, d_m, d_n, _, h_n_sq = draws.T
        with np.errstate(all="ignore"):
            c = _strategy_columns(_EXACT, nats, d_m, d_n, h_n_sq)
        # The deadline budget, not the closed form's t_star (equal here: every d_n < 2 d_m).
        _, _, e_oracle = oracle_batch(nats, d_m, h_n_sq, d_n - d_m)
        # np.max and np.maximum propagate NaN, and NaN fails both bounds, so a
        # non-finite error or excess reports FAIL instead of folding away.
        rel_err = np.abs(e_oracle - c.e_hybrid) / c.e_hybrid
        excess = np.maximum(c.e_hybrid - c.e_pure, c.e_hybrid - c.e_oma)
        max_rel_err = np.maximum(max_rel_err, np.max(rel_err))
        max_violation = np.maximum(max_violation, np.max(excess))
    max_rel_err, max_violation = float(max_rel_err), float(max_violation)
    passed = max_rel_err <= 1e-5 and max_violation <= 1e-9
    return CampaignSummary(seed, count, max_rel_err, max_violation, passed)


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


def _csv_header(scenario: OffloadScenario, columns: str, **more) -> list[str]:
    """A CSV's first lines: the scenario but its ``d_n`` (no CSV prints one), ``more``, columns."""
    pairs = [(key, value) for key, value in vars(scenario).items() if key != "d_n"]
    return _meta_lines(pairs + list(more.items())) + [columns]


def render_sweep_csv(sweep: DeadlineSweep) -> str:
    """A deadline sweep as CSV text: its scenario's metadata lines, header, one line per deadline.

    Each run of equal values in a column is formatted once, but every zero
    (``0.0 == -0.0`` prints two ways) and every NaN (it equals nothing) on its own."""
    lines = _csv_header(sweep.scenario, SWEEP_COLUMNS)
    for start in range(0, len(sweep), _CHUNK_ROWS):
        *floats, kinds = _columns(sweep[start:start + _CHUNK_ROWS])
        cells = [*map(_run_cells, floats), _run_cells(kinds, _fmt)]
        lines.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(lines) + "\n"


def energy_surface(
    scenario: OffloadScenario,
    t_n: float,
    p1_max: float | None = None,
    p2_max: float | None = None,
    resolution: int = 200,
) -> SurfaceGrid:
    """Sample energy and rate-feasibility over ``[0, p1_max) x [0, p2_max)`` into a grid
    that carries ``scenario`` and ``t_n``, for ``render_surface_csv``, not for the oracle.

    Each axis carries ``resolution`` uniform samples starting at 0, spaced
    ``max / resolution`` (the right endpoint is excluded). Ranges default to twice
    the closed-form powers at ``t_n``, which puts the closed-form optimum exactly on
    the sample lattice, as the cheapest feasible sample. From ``t_n == d_m`` on
    the optimum's ``p_n1`` is exactly 0 (past ``d_m`` it is OMA over ``t_n``),
    so ``p1_max`` defaults to twice the pure-NOMA power instead; the optimum
    stays on the lattice, in its ``p1 == 0`` row. With hand-picked ranges the
    optimum generally falls between samples and the cheapest feasible sample can
    sit a few cells away along the constraint boundary. ``t_n`` must be positive
    and finite, both ranges too, defaults included (a saturated closed-form or
    pure-NOMA power gives an infinite one), and ``resolution`` an integer in
    [2, 1000], at most 1,000,000 samples; otherwise NomaMecError is raised.
    """
    t_n = _require_in("t_n", t_n, 0, math.inf, "()")
    _require_in("resolution", resolution, 2, math.isqrt(_MAX_ROWS), integer=True)
    if p1_max is None or p2_max is None:
        star1, star2, _ = _optimum_at(scenario, t_n)
        if p1_max is None:
            p1_max = 2.0 * (hybrid_powers(scenario, 0.0)[0] if star1 == 0.0 else star1)
        if p2_max is None:
            p2_max = 2.0 * star2
    p1_max = _require_in("p1_max", p1_max, 0, math.inf, "()")
    p2_max = _require_in("p2_max", p2_max, 0, math.inf, "()")

    p1_axis = np.linspace(0.0, p1_max, resolution, endpoint=False)
    p2_axis = np.linspace(0.0, p2_max, resolution, endpoint=False)
    with np.errstate(over="ignore"):   # energies are extended reals: a cell may overflow to inf
        p1, p2 = p1_axis[:, None], p2_axis[None, :]
        phase1, phase2 = _phase_energies(_NUMPY, scenario.d_m, t_n, p1, p2)
        energy = phase1 + phase2
        offloaded = _offloaded(_NUMPY, scenario.nats, scenario.d_m, scenario.h_n_sq, t_n, p1, p2)
    feasible = offloaded >= scenario.nats * (1.0 - FEASIBILITY_SLACK)
    return SurfaceGrid(p1_axis, p2_axis, energy, feasible, scenario, t_n)


def render_surface_csv(grid: SurfaceGrid) -> str:
    """An ``energy_surface`` grid as CSV text: the sweep's metadata lines for the grid's
    scenario and ``t_n``, one ``grid`` line per sample, row by row in ``p1``, then one ``optimum``
    line, the closed-form powers and energy at that ``t_n`` (past ``d_m``, OMA over ``t_n``)."""
    header = _csv_header(grid.scenario, SURFACE_COLUMNS, t_n=grid.t_n)
    # Each sample is four parts: "p1,", "p2,", the energy and ",flag,grid\n". Cells are floats
    # and bools from ``tolist``, so ``repr`` and a table of the two tails give ``_fmt``'s text.
    # Slice assignment fills a row's parts into one reused list: no bytecode runs per sample.
    n = grid.p2_axis.size
    parts = [""] * (4 * n)
    parts[1::4] = [f"{p2!r}," for p2 in grid.p2_axis.tolist()]
    tails = tuple(f",{_fmt(flag)},grid\n" for flag in (False, True))
    rows = []
    for p1, energies, feasible in zip(grid.p1_axis.tolist(), grid.energy, grid.feasible):
        parts[0::4] = [f"{p1!r},"] * n
        parts[2::4] = map(repr, energies.tolist())
        parts[3::4] = map(tails.__getitem__, feasible.tolist())
        rows.append("".join(parts))
    optimum = (*_optimum_at(grid.scenario, grid.t_n), True, "optimum")
    # One join builds the whole text: no second copy of it is made.
    return "".join(["\n".join(header) + "\n", *rows, ",".join(_fmt(v) for v in optimum) + "\n"])


def render_campaign_summary(summary: CampaignSummary) -> str:
    """Campaign summary as stable key=value text."""
    *values, passed = summary
    lines = _meta_lines([]) + [f"{key}={_fmt(v)}" for key, v in zip(summary._fields, values)]
    lines.append(f"result={'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
