"""Independent numerical verification of the closed forms.

Because the energy is strictly increasing in each power, the rate constraint
binds at any optimum. The oracle therefore never touches the closed-form
solutions: it parametrizes the active constraint by the fraction ``alpha`` of
the task carried during the shared slot, recovers the powers from that split,
and minimizes the resulting single-variable energy by golden-section search.
Agreement with the closed forms is the certificate. The one closed form this
module reads, ``hybrid_powers``, only sets the default ranges of
``energy_surface``.

The split rule is written once, elementwise, over the operations table its
caller names: ``split_schedule`` runs it on floats with ``model._SCALAR``
(``math``'s ``exp``/``expm1``), ``oracle_batch`` on numpy arrays with
``model._NUMPY`` (numpy's), a few ulp apart; ``energy_surface`` evaluates its
grid with ``_NUMPY`` too. The search takes one lane per (scenario, extension)
pair. A step pays only for the open lanes and what depends on alpha: a lane's
``nats/d_m`` and its ``exp`` are computed once, and saturation is patched
only where it occurs.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .closed_form import hybrid_powers
from .errors import NonConvergence, NonPositiveParameter, TimeExtensionOutOfRange
from .model import (_MAX_ROWS, _NUMPY, _SCALAR, EXP_CUTOFF, OffloadScenario, PowerSchedule,
                    _offloaded, _phase_energies, _require_integer, schedule_energy)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Boundary samples whose true offloaded total equals the task size can round a
# few ulp short; the feasibility mask keeps them.
FEASIBILITY_SLACK = 1e-12


OracleResult = namedtuple("OracleResult", "p_n1 p_n2 t_n energy iterations")
OracleResult.__doc__ = "Numerically found minimum: powers, extension, energy, search effort."


class SurfaceGrid(namedtuple("SurfaceGrid", "p1_axis p2_axis energy feasible")):
    """Dense energy/feasibility sampling over the power plane at fixed ``t_n``.

    ``energy[i, j] == d_m * p1_axis[i] + t_n * p2_axis[j]``, ``inf`` where it
    overflows; ``feasible`` marks samples whose offloaded total reaches the
    task size (up to FEASIBILITY_SLACK relative).
    """

    __slots__ = ()

    def feasible_argmin(self) -> tuple[int, int] | None:
        """Indices of the cheapest feasible sample, or None if none is feasible."""
        if not self.feasible.any():
            return None
        masked = np.where(self.feasible, self.energy, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        return int(i), int(j)


def _split_lanes(ops, nats, d_m, h_n_sq, t_n):
    """``_split_powers``'s arguments after alpha: the lane fields, ``nats/d_m`` and its ``exp``."""
    rate_dm = nats / d_m
    return nats, d_m, h_n_sq, t_n, rate_dm, ops.exp(rate_dm)


def _split_powers(ops, alpha, nats, d_m, h_n_sq, t_n, rate_dm, exp_rate_dm):
    """``split_schedule``'s powers, elementwise, with ``_SCALAR`` or ``_NUMPY``: the same steps,
    so the two differ only where numpy's ``exp``/``expm1`` differ from ``math``'s. The unmasked
    powers are patched only where some element saturates; arrays need ``np.errstate``."""
    y1 = alpha * nats / d_m
    y2 = (1.0 - alpha) * nats / t_n
    p_n1 = exp_rate_dm * ops.expm1(y1) / h_n_sq
    p_n2 = ops.expm1(y2) / h_n_sq
    if ops.any(saturated := rate_dm + y1 > EXP_CUTOFF):
        p_n1 = ops.where(saturated, ops.where(y1 > 0.0, math.inf, 0.0), p_n1)
    if ops.any(saturated := y2 > EXP_CUTOFF):
        p_n2 = ops.where(saturated, math.inf, p_n2)
    return p_n1, p_n2


def split_schedule(scenario: OffloadScenario, t_n: float, alpha: float) -> PowerSchedule:
    """Schedule that puts ``alpha`` of the task in the shared slot, the rest in ``t_n``,
    with the rate constraint met with equality in both phases."""
    if not (0.0 < t_n):
        raise TimeExtensionOutOfRange(f"t_n must be positive, got {t_n!r}")
    if not (0.0 <= alpha <= 1.0):
        raise NonPositiveParameter(f"alpha must lie in [0, 1], got {alpha!r}")
    lane = _split_lanes(_SCALAR, scenario.nats, scenario.d_m, scenario.h_n_sq, t_n)
    return PowerSchedule(*_split_powers(_SCALAR, alpha, *lane), t_n=t_n)


def _check_tol(tol: float) -> None:
    """The final bracket width must lie in (0, 1): a bracket of width 1 or more is finished
    before the search starts."""
    if not (0.0 < tol < 1.0):
        raise NonPositiveParameter(f"tol must lie in (0, 1), got {tol!r}")


def oracle_batch(
    nats, d_m, h_n_sq, t_n, tol: float = 1e-10, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the constraint-split energy over ``alpha`` for many searches at once.

    The lane arrays (or floats) ``nats``, ``d_m``, ``h_n_sq`` and ``t_n``
    broadcast against each other in one dimension: one scenario over a grid
    of extensions, or one extension per scenario. Each lane runs its own
    golden-section search: it keeps its own bracket, stops when that bracket
    is at most ``tol`` wide, and counts its own objective evaluations, so it
    takes exactly the steps a search of that lane alone would take; a
    finished lane leaves the search's dense arrays. Returns one-dimensional
    arrays ``(p_n1, p_n2, energy, iterations)``, one entry per lane.

    ``nats``, ``d_m`` and ``h_n_sq`` must be positive and finite
    (NonPositiveParameter) and ``t_n`` must lie in ``(0, d_m]``
    (TimeExtensionOutOfRange); the error names the first bad lane. ``tol``,
    the final bracket width on alpha, must lie in ``(0, 1)``
    (NonPositiveParameter); ``max_iter`` caps each lane's
    evaluations and exceeding it in any lane raises NonConvergence. Each
    lane's returned point is the best of its final bracket's endpoints and
    midpoint, never worse than any alpha-grid sample at resolution ``tol``.
    """
    nats, d_m, h_n_sq, t_n = lanes = np.broadcast_arrays(
        *(np.asarray(x, dtype=float).ravel() for x in (nats, d_m, h_n_sq, t_n))
    )
    fields = np.stack(lanes[:3])
    bad = ~((0.0 < fields) & (fields < math.inf))
    if bad.any():
        i, k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NonPositiveParameter(f"{('nats', 'd_m', 'h_n_sq')[i]} must be a positive finite"
                                   f" number, got {float(fields[i, k])!r} in lane {k}")
    bad = ~((0.0 < t_n) & (t_n <= d_m))
    if bad.any():
        k = int(np.argmax(bad))
        raise TimeExtensionOutOfRange(
            f"t_n must lie in (0, d_m] = (0, {float(d_m[k])}], got {float(t_n[k])!r} in lane {k}"
        )
    _check_tol(tol)

    def objective(alpha, nats, d_m, h_n_sq, t_n, *constants):
        """(energy, p_n1, p_n2) of the splits ``alpha`` in the given lanes."""
        p_n1, p_n2 = _split_powers(_NUMPY, alpha, nats, d_m, h_n_sq, t_n, *constants)
        if not (np.minimum(p_n1, p_n2) >= 0.0).all():   # as PowerSchedule checks a schedule
            raise NonPositiveParameter("split powers must be nonnegative")
        return d_m * p_n1 + t_n * p_n2, p_n1, p_n2

    with np.errstate(over="ignore", invalid="ignore"):   # saturated lanes overflow
        lanes = _split_lanes(_NUMPY, *lanes)   # constants ride in params, retiring with their lane
        # Only open lanes are searched; ``index`` maps them to their output slots.
        index, params, iterations = np.arange(t_n.size), lanes, np.empty(t_n.size, int)
        final_lo, final_hi = np.empty((2, t_n.size))
        lo, hi, width = np.zeros(t_n.size), np.ones(t_n.size), np.ones(t_n.size)
        inner_lo, inner_hi = hi - _INV_PHI * width, lo + _INV_PHI * width
        f_lo, f_hi = objective(inner_lo, *lanes)[0], objective(inner_hi, *lanes)[0]
        evals = 2   # every open lane has taken every step
        while index.size:
            done = width <= tol
            if done.any():
                slots, keep = index[done], ~done
                final_lo[slots], final_hi[slots], iterations[slots] = lo[done], hi[done], evals
                index, lo, hi, width, inner_lo, inner_hi, f_lo, f_hi, *params = (
                    a[keep] for a in (index, lo, hi, width, inner_lo, inner_hi, f_lo, f_hi, *params))
                continue
            if evals >= max_iter:
                raise NonConvergence(f"golden-section spent {evals} evaluations"
                                     f" without reaching width {tol}")
            # Where f_lo < f_hi the minimum lies left of inner_hi: drop the right part,
            # inner_lo becomes inner_hi and a new inner_lo is probed. Otherwise drop
            # the left part, inner_hi becomes inner_lo and a new inner_hi is probed.
            left = f_lo < f_hi
            lo, hi = np.where(left, lo, inner_lo), np.where(left, inner_hi, hi)
            width = hi - lo
            probe = np.where(left, hi - _INV_PHI * width, lo + _INV_PHI * width)
            f_probe = objective(probe, *params)[0]
            inner_lo, inner_hi = np.where(left, probe, inner_hi), np.where(left, inner_lo, probe)
            f_lo, f_hi = np.where(left, f_probe, f_hi), np.where(left, f_lo, f_probe)
            evals += 1

        candidates = np.stack((final_lo, 0.5 * (final_lo + final_hi), final_hi))
        energies, p_n1, p_n2 = objective(candidates, *lanes)
        best, lane = np.argmin(energies, axis=0), np.arange(t_n.size)
        return p_n1[best, lane], p_n2[best, lane], energies[best, lane], iterations + 3


def oracle_fixed_t(
    scenario: OffloadScenario,
    t_n: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> OracleResult:
    """Minimize the constraint-split energy over ``alpha``: ``oracle_batch`` of one search."""
    p_n1, p_n2, energy, iterations = oracle_batch(
        scenario.nats, scenario.d_m, scenario.h_n_sq, t_n, tol=tol, max_iter=max_iter
    )
    return OracleResult(float(p_n1[0]), float(p_n2[0]), t_n, float(energy[0]), int(iterations[0]))


def oracle_joint(
    scenario: OffloadScenario,
    t_steps: int = 256,
    tol: float = 1e-10,
) -> OracleResult:
    """Joint search: minimize over alpha on a uniform extension grid and take the argmin.

    The grid covers ``(0, min(d_n - d_m, d_m)]`` with ``t_steps`` points
    including the right endpoint, searched as one ``oracle_batch``. With
    ``d_n == d_m`` the interval is empty and the split that carries the whole
    task in the shared slot (pure NOMA) is returned directly. ``iterations``
    aggregates the evaluations of all grid searches.
    """
    if t_steps < 2:
        raise NonPositiveParameter(f"t_steps must be at least 2, got {t_steps!r}")
    _check_tol(tol)   # also where the degenerate case below runs no search
    t_max = scenario.capped_extension
    if t_max == 0.0:
        # With alpha = 1 phase 2 carries zero nats, so its length is immaterial.
        shared = split_schedule(scenario, scenario.d_m, 1.0)
        return OracleResult(shared.p_n1, shared.p_n2, 0.0, schedule_energy(scenario, shared), 0)
    grid = t_max * np.arange(1, t_steps + 1) / t_steps
    p_n1, p_n2, energy, iterations = oracle_batch(
        scenario.nats, scenario.d_m, scenario.h_n_sq, grid, tol=tol
    )
    best = int(np.argmin(energy))
    return OracleResult(float(p_n1[best]), float(p_n2[best]), float(grid[best]),
                        float(energy[best]), int(iterations.sum()))


def energy_surface(
    scenario: OffloadScenario,
    t_n: float,
    p1_max: float | None = None,
    p2_max: float | None = None,
    resolution: int = 200,
) -> SurfaceGrid:
    """Sample energy and rate-feasibility over ``[0, p1_max) x [0, p2_max)``.

    Each axis carries ``resolution`` uniform samples starting at 0, spaced
    ``max / resolution`` (the right endpoint is excluded). Ranges default to
    twice the closed-form powers at ``t_n``; that puts the closed-form
    optimum exactly on the sample lattice, where it is also the cheapest
    feasible sample. At ``t_n == d_m`` the closed-form ``p_n1`` is exactly 0,
    so ``p1_max`` defaults to twice the pure-NOMA power
    (``hybrid_powers(scenario, 0)[0]``) instead; the optimum stays on the
    lattice, in its ``p1 == 0`` row. With hand-picked ranges the optimum
    generally falls between samples and the cheapest feasible sample can sit
    a few cells away along the constraint boundary. Both ranges must be
    positive and finite, defaults included (a saturated closed-form or
    pure-NOMA power gives an infinite one), and ``resolution`` an integer in
    [2, 1000], at most 1,000,000 samples; otherwise NonPositiveParameter is
    raised.
    """
    if not (t_n > 0.0):
        raise TimeExtensionOutOfRange(f"t_n must be positive, got {t_n!r}")
    _require_integer("resolution", resolution)
    if resolution < 2:
        raise NonPositiveParameter(f"resolution must be at least 2, got {resolution!r}")
    if resolution**2 > _MAX_ROWS:
        raise NonPositiveParameter(f"resolution**2 must be at most {_MAX_ROWS}, got {resolution!r}**2")
    if p1_max is None or p2_max is None:
        star1, star2 = hybrid_powers(scenario, t_n)
        if p1_max is None:
            # p_n1 is exactly 0 at t_n == d_m: span twice the pure-NOMA power there instead.
            p1_max = 2.0 * (hybrid_powers(scenario, 0.0)[0] if star1 == 0.0 else star1)
        if p2_max is None:
            p2_max = 2.0 * star2
    if not (0.0 < p1_max < math.inf and 0.0 < p2_max < math.inf):
        raise NonPositiveParameter(
            f"power ranges must be positive and finite, got p1_max={p1_max!r}, p2_max={p2_max!r}"
        )

    p1_axis = np.linspace(0.0, p1_max, resolution, endpoint=False)
    p2_axis = np.linspace(0.0, p2_max, resolution, endpoint=False)
    with np.errstate(over="ignore"):   # energies are extended reals: a cell may overflow to inf
        p1, p2 = p1_axis[:, None], p2_axis[None, :]
        phase1, phase2 = _phase_energies(_NUMPY, scenario.d_m, t_n, p1, p2)
        energy = phase1 + phase2
        offloaded = _offloaded(_NUMPY, scenario.nats, scenario.d_m, scenario.h_n_sq, t_n, p1, p2)
    feasible = offloaded >= scenario.nats * (1.0 - FEASIBILITY_SLACK)
    return SurfaceGrid(p1_axis, p2_axis, energy, feasible)
