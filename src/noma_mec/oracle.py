"""Independent numerical verification of the closed forms.

Because the energy is strictly increasing in each power, the rate constraint
binds at any optimum. The oracle therefore never touches the closed-form
solutions: it parametrizes the active constraint by the fraction ``alpha`` of
the task carried during the shared slot, recovers the powers from that split,
and minimizes the resulting single-variable energy by golden-section search.
Agreement with the closed forms is the certificate. Nor does it take the
optimal extension as given: the joint search spans the whole deadline
budget, past the capped extension, so it also finds where OMA wins.

The split rule is written once, elementwise, over ``model``'s rate-to-power
rules and the operations table its caller names: ``split_schedule`` runs it on
floats with ``model._SCALAR`` (``math``'s ``exp``/``expm1``), ``oracle_batch``
on numpy arrays with ``model._NUMPY`` (numpy's), a few ulp apart. The search
takes one lane per (scenario, extension) pair. A step pays only for the open
lanes and what depends on alpha: a lane's ``nats/d_m`` and its ``exp`` are
computed once, and saturation is patched only where it occurs. A batch tests a
phase for saturation only if some lane can reach the cutoff: ``alpha`` lies in
[0, 1], so ``y1 <= nats/d_m`` and ``y2 <= nats/t_n`` in floats too, rounding
being monotone.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import NonConvergence, NonPositiveParameter, TimeExtensionOutOfRange
from .model import (_MAX_ROWS, _NUMPY, _SCALAR, OffloadScenario, PowerSchedule, _power,
                    _require_in, _require_integer, _saturates, schedule_energy)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Objective evaluations one golden-section lane may spend before NonConvergence.
_MAX_EVALS = 200


OracleResult = namedtuple("OracleResult", "p_n1 p_n2 t_n energy iterations")
OracleResult.__doc__ = "Numerically found minimum: powers, extension, energy, search effort."


def _split_lanes(ops, nats, d_m, h_n_sq, t_n):
    """``_split_powers``'s arguments after alpha: the lane fields, ``nats/d_m`` and its ``exp``."""
    rate_dm = nats / d_m
    return nats, d_m, h_n_sq, t_n, rate_dm, ops.exp(rate_dm)


def _split_powers(ops, alpha, nats, d_m, h_n_sq, t_n, rate_dm, exp_rate_dm,
                  can_saturate=(True, True)):
    """``split_schedule``'s powers, elementwise, with ``_SCALAR`` or ``_NUMPY``: the same steps,
    so the two differ only where numpy's ``exp``/``expm1`` differ; arrays need ``np.errstate``."""
    y1 = alpha * nats / d_m
    y2 = (1.0 - alpha) * nats / t_n
    return (_power(ops, y1, h_n_sq, rate_dm, exp_rate_dm, can_saturate[0]),
            _power(ops, y2, h_n_sq, can_saturate=can_saturate[1]))


def split_schedule(scenario: OffloadScenario, t_n: float, alpha: float) -> PowerSchedule:
    """Schedule that puts ``alpha`` of the task in the shared slot, the rest in ``t_n``,
    with the rate constraint met with equality in both phases. ``t_n`` must be positive
    and finite (TimeExtensionOutOfRange), ``alpha`` in [0, 1] (NonPositiveParameter)."""
    _require_in("t_n", t_n, 0, math.inf, "()", TimeExtensionOutOfRange)
    _require_in("alpha", alpha, 0, 1)
    lane = _split_lanes(_SCALAR, scenario.nats, scenario.d_m, scenario.h_n_sq, t_n)
    return PowerSchedule(*_split_powers(_SCALAR, alpha, *lane), t_n=t_n)


def oracle_batch(
    nats, d_m, h_n_sq, t_n, tol: float = 1e-10
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

    Every lane field must be positive and finite, ``t_n`` too, as in
    ``split_schedule``; past ``d_m`` a lane's optimum is OMA over ``t_n``.
    The error names the field and the first bad lane: TimeExtensionOutOfRange
    for ``t_n``, NonPositiveParameter for the others. ``tol``, the final
    bracket width on alpha, must lie in ``(0, 1)`` (NonPositiveParameter). A
    lane that would take more than ``_MAX_EVALS`` evaluations raises
    NonConvergence. Each lane's returned point is the best of its final
    bracket's endpoints and midpoint, never worse than any alpha-grid sample
    at resolution ``tol``.
    """
    nats, d_m, h_n_sq, t_n = lanes = np.broadcast_arrays(
        *(np.asarray(x, dtype=float).ravel() for x in (nats, d_m, h_n_sq, t_n))
    )
    fields = np.stack(lanes)
    bad = ~((0.0 < fields) & (fields < math.inf))
    if bad.any():
        i, k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        error = TimeExtensionOutOfRange if i == 3 else NonPositiveParameter
        raise error(f"{('nats', 'd_m', 'h_n_sq', 't_n')[i]} must be a positive finite"
                    f" number, got {float(fields[i, k])!r} in lane {k}")
    # A bracket of width 1 or more is finished before the search starts.
    _require_in("tol", tol, 0, 1, "()")

    def objective(alpha, nats, d_m, h_n_sq, t_n, *constants):
        """(energy, p_n1, p_n2) of the splits ``alpha`` in the given lanes."""
        p_n1, p_n2 = _split_powers(_NUMPY, alpha, nats, d_m, h_n_sq, t_n, *constants, can_saturate)
        if not (np.minimum(p_n1, p_n2) >= 0.0).all():   # as PowerSchedule checks a schedule
            raise NonPositiveParameter("split powers must be nonnegative")
        return d_m * p_n1 + t_n * p_n2, p_n1, p_n2

    with np.errstate(over="ignore", invalid="ignore"):   # saturated lanes overflow
        lanes = _split_lanes(_NUMPY, *lanes)   # constants ride in params, retiring with their lane
        # Phase 1 can saturate only if it does at alpha = 1 (y1 = nats/d_m), phase 2 at alpha = 0.
        can_saturate = (np.count_nonzero(_saturates(lanes[4], lanes[4])),
                        np.count_nonzero(_saturates(nats / t_n)))
        # Only open lanes are searched; ``index`` maps them to their output slots.
        index, params, iterations = np.arange(t_n.size), lanes, np.empty(t_n.size, int)
        final_lo, final_hi = np.empty((2, t_n.size))
        lo, hi, width = np.zeros(t_n.size), np.ones(t_n.size), np.ones(t_n.size)
        inner_lo, inner_hi = hi - _INV_PHI * width, lo + _INV_PHI * width
        f_lo, f_hi = objective(inner_lo, *lanes)[0], objective(inner_hi, *lanes)[0]
        evals, max_evals = 2, _MAX_EVALS   # every open lane has taken every step
        while index.size:
            done = width <= tol
            if np.count_nonzero(done):
                slots, keep = index[done], ~done
                final_lo[slots], final_hi[slots], iterations[slots] = lo[done], hi[done], evals
                index, lo, hi, width, inner_lo, inner_hi, f_lo, f_hi, *params = (
                    a[keep] for a in (index, lo, hi, width, inner_lo, inner_hi, f_lo, f_hi, *params))
                continue
            if evals >= max_evals:
                raise NonConvergence(f"golden-section spent {evals} evaluations"
                                     f" without reaching width {tol}")
            # Where f_lo < f_hi the minimum lies left of inner_hi: drop the right part,
            # inner_lo becomes inner_hi and a new inner_lo is probed. Otherwise drop
            # the left part, inner_hi becomes inner_lo and a new inner_hi is probed.
            # Also left where phase 1 saturates at inner_lo (``_saturates`` on y1), as at
            # every larger alpha: an inf/inf tie there has its minimum left.
            left = f_lo < f_hi
            if can_saturate[0]:   # params: nats, d_m, h_n_sq, t_n, nats/d_m, its exp
                left |= _saturates(inner_lo * params[0] / params[1], params[4])
            lo, hi = np.where(left, lo, inner_lo), np.where(left, inner_hi, hi)
            width = hi - lo
            step = _INV_PHI * width
            probe = np.where(left, hi - step, lo + step)
            f_probe = objective(probe, *params)[0]
            inner_lo, inner_hi = np.where(left, probe, inner_hi), np.where(left, inner_lo, probe)
            f_lo, f_hi = np.where(left, f_probe, f_hi), np.where(left, f_lo, f_probe)
            evals += 1

        candidates = np.stack((final_lo, 0.5 * (final_lo + final_hi), final_hi))
        energies, p_n1, p_n2 = objective(candidates, *lanes)
        best, lane = np.argmin(energies, axis=0), np.arange(t_n.size)
        return p_n1[best, lane], p_n2[best, lane], energies[best, lane], iterations + 3


def oracle_fixed_t(scenario: OffloadScenario, t_n: float, tol: float = 1e-10) -> OracleResult:
    """Minimize the constraint-split energy over ``alpha``: ``oracle_batch`` of one search."""
    p_n1, p_n2, energy, iterations = oracle_batch(
        scenario.nats, scenario.d_m, scenario.h_n_sq, t_n, tol=tol
    )
    return OracleResult(float(p_n1[0]), float(p_n2[0]), t_n, float(energy[0]), int(iterations[0]))


def oracle_joint(
    scenario: OffloadScenario,
    t_steps: int = 256,
    tol: float = 1e-10,
) -> OracleResult:
    """Joint search: minimize over alpha on a uniform extension grid and take the argmin.

    The grid covers the deadline budget ``(0, d_n - d_m]`` with ``t_steps``
    points including the right endpoint, searched as one ``oracle_batch``;
    ``t_steps`` must be an integer in [2, 1,000,000] (NonPositiveParameter).
    Past ``d_m`` a split's optimum is OMA over ``t_n``, so from
    ``d_n == 2 d_m`` on the search lands on OMA over the whole budget. With
    ``d_n == d_m`` the interval is empty and the split that carries the whole
    task in the shared slot (pure NOMA) is returned directly. The last of equal
    minima wins, so an all-inf search names the whole budget. ``iterations``
    aggregates the evaluations of all grid searches.
    """
    _require_integer("t_steps", t_steps)
    _require_in("t_steps", t_steps, 2, _MAX_ROWS)
    _require_in("tol", tol, 0, 1, "()")   # also where the degenerate case below runs no search
    t_max = scenario.d_n - scenario.d_m
    if t_max == 0.0:
        # With alpha = 1 phase 2 carries zero nats, so its length is immaterial.
        shared = split_schedule(scenario, scenario.d_m, 1.0)
        return OracleResult(shared.p_n1, shared.p_n2, 0.0, schedule_energy(scenario, shared), 0)
    grid = t_max * np.arange(1, t_steps + 1) / t_steps
    p_n1, p_n2, energy, iterations = oracle_batch(
        scenario.nats, scenario.d_m, scenario.h_n_sq, grid, tol=tol
    )
    best = t_steps - 1 - int(np.argmin(energy[::-1]))   # the last of equal minima
    return OracleResult(float(p_n1[best]), float(p_n2[best]), float(grid[best]),
                        float(energy[best]), int(iterations.sum()))
