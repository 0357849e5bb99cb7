"""Independent numerical verification of the closed forms.

Because the energy is strictly increasing in each power, the rate constraint
binds at any optimum. The oracle therefore never touches the closed-form
solutions: it parametrizes the active constraint by the fraction ``alpha`` of
the task carried during the shared slot, recovers the powers from that split,
and minimizes the resulting single-variable energy by golden-section search.
Agreement with the closed forms is the certificate. The one closed form this
module reads, ``hybrid_powers``, only sets the default ranges of
``energy_surface``.

The search runs over numpy arrays, one lane per (scenario, extension) pair,
so a whole campaign or extension grid is one ``oracle_batch`` call. Its
objective evaluates the split with numpy's ``exp``/``expm1``, a few ulp from
the ``math``-based ``split_energy``; ``oracle_fixed_t`` is a batch of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .closed_form import EXP_CUTOFF, hybrid_powers
from .errors import NonConvergence, NonPositiveParameter, TimeExtensionOutOfRange
from .model import OffloadScenario, PowerSchedule, schedule_energy

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Boundary samples whose true offloaded total equals the task size can round a
# few ulp short; the feasibility mask keeps them.
FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """Numerically found minimum: powers, extension, energy, search effort."""

    p_n1: float
    p_n2: float
    t_n: float
    energy: float
    iterations: int


@dataclass(frozen=True)
class SurfaceGrid:
    """Dense energy/feasibility sampling over the power plane at fixed ``t_n``.

    ``energy[i, j] == d_m * p1_axis[i] + t_n * p2_axis[j]``; ``feasible``
    marks samples whose offloaded total reaches the task size (up to
    FEASIBILITY_SLACK relative).
    """

    p1_axis: np.ndarray
    p2_axis: np.ndarray
    energy: np.ndarray
    feasible: np.ndarray

    def feasible_argmin(self) -> tuple[int, int] | None:
        """Indices of the cheapest feasible sample, or None if none is feasible."""
        if not self.feasible.any():
            return None
        masked = np.where(self.feasible, self.energy, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        return int(i), int(j)


def split_schedule(scenario: OffloadScenario, t_n: float, alpha: float) -> PowerSchedule:
    """Schedule that puts ``alpha`` of the task in the shared slot, the rest in ``t_n``,
    with the rate constraint met with equality in both phases."""
    if not (0.0 < t_n):
        raise TimeExtensionOutOfRange(f"t_n must be positive, got {t_n!r}")
    if not (0.0 <= alpha <= 1.0):
        raise NonPositiveParameter(f"alpha must lie in [0, 1], got {alpha!r}")
    rate_dm = scenario.nats / scenario.d_m
    y1 = alpha * scenario.nats / scenario.d_m
    y2 = (1.0 - alpha) * scenario.nats / t_n
    if rate_dm + y1 > EXP_CUTOFF:
        p_n1 = math.inf if y1 > 0.0 else 0.0
    else:
        p_n1 = math.exp(rate_dm) * math.expm1(y1) / scenario.h_n_sq
    p_n2 = math.inf if y2 > EXP_CUTOFF else math.expm1(y2) / scenario.h_n_sq
    return PowerSchedule(p_n1=p_n1, p_n2=p_n2, t_n=t_n)


def split_energy(scenario: OffloadScenario, t_n: float, alpha: float) -> float:
    """Energy of ``split_schedule``; strictly convex in ``alpha``."""
    return schedule_energy(scenario, split_schedule(scenario, t_n, alpha))


def _split_powers(alpha, nats, d_m, h_n_sq, t_n):
    """Array form of ``split_schedule``'s powers, elementwise over broadcastable arrays.

    Same operations in the same order as the scalar form, with numpy's
    ``exp``/``expm1`` in place of ``math``'s, so results agree to a few ulp.
    Raises NonPositiveParameter if any power is negative or NaN, as
    ``PowerSchedule`` does.
    """
    rate_dm = nats / d_m
    y1 = alpha * nats / d_m
    y2 = (1.0 - alpha) * nats / t_n
    with np.errstate(over="ignore", invalid="ignore"):
        p_n1 = np.where(
            rate_dm + y1 > EXP_CUTOFF,
            np.where(y1 > 0.0, np.inf, 0.0),
            np.exp(rate_dm) * np.expm1(y1) / h_n_sq,
        )
        p_n2 = np.where(y2 > EXP_CUTOFF, np.inf, np.expm1(y2) / h_n_sq)
    if not (np.minimum(p_n1, p_n2) >= 0.0).all():
        raise NonPositiveParameter("split powers must be nonnegative")
    return p_n1, p_n2


def _split_energy(alpha, nats, d_m, h_n_sq, t_n):
    """Array form of ``split_energy`` for extensions ``t_n > 0``."""
    p_n1, p_n2 = _split_powers(alpha, nats, d_m, h_n_sq, t_n)
    return d_m * p_n1 + t_n * p_n2


def oracle_batch(
    scenarios: Sequence[OffloadScenario],
    t_n,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the constraint-split energy over ``alpha`` for many searches at once.

    ``scenarios`` and ``t_n`` broadcast against each other (one scenario
    over a grid of extensions, or one extension per scenario). Each lane runs
    its own golden-section search: it keeps its own bracket, stops when that
    bracket is at most ``tol`` wide, and counts its own objective
    evaluations, so it takes exactly the steps a search of that lane alone
    would take. Returns one-dimensional arrays ``(p_n1, p_n2, energy,
    iterations)``, one entry per lane.

    ``tol`` is the final bracket width on alpha; ``max_iter`` caps each
    lane's evaluations and exceeding it in any lane raises NonConvergence.
    Every ``t_n`` must lie in ``(0, d_m]`` of its scenario, otherwise
    TimeExtensionOutOfRange is raised. Each lane's returned point is the best
    of its final bracket's endpoints and midpoint, so it is never worse than
    any alpha-grid sample at resolution ``tol``.
    """
    params = np.array([(s.nats, s.d_m, s.h_n_sq) for s in scenarios], dtype=float)
    nats, d_m, h_n_sq, t_n = np.broadcast_arrays(
        *params.reshape(-1, 3).T, np.asarray(t_n, dtype=float).ravel()
    )
    bad = ~((0.0 < t_n) & (t_n <= d_m))
    if bad.any():
        k = int(np.argmax(bad))
        raise TimeExtensionOutOfRange(
            f"t_n must lie in (0, d_m] = (0, {float(d_m[k])}], got {float(t_n[k])!r}"
        )
    if not (tol > 0.0):
        raise NonPositiveParameter(f"tol must be positive, got {tol!r}")

    def objective(alpha, lanes=slice(None)):
        return _split_energy(alpha, nats[lanes], d_m[lanes], h_n_sq[lanes], t_n[lanes])

    lo, hi = np.zeros(t_n.shape), np.ones(t_n.shape)
    inner_lo = hi - _INV_PHI * (hi - lo)
    inner_hi = lo + _INV_PHI * (hi - lo)
    f_lo, f_hi = objective(inner_lo), objective(inner_hi)
    evals = np.full(t_n.shape, 2)
    while True:
        active = np.flatnonzero((hi - lo) > tol)
        if active.size == 0:
            break
        if active.size == lo.size:
            active = slice(None)   # every lane: gathers are views, scatters slice assignments
        if (evals[active] >= max_iter).any():
            raise NonConvergence(
                f"golden-section spent {int(evals[active].max())} evaluations"
                f" without reaching width {tol}"
            )
        a_lo, a_hi = lo[active], hi[active]
        a_inner_lo, a_inner_hi = inner_lo[active], inner_hi[active]
        a_f_lo, a_f_hi = f_lo[active], f_hi[active]
        # Where f_lo < f_hi the minimum lies left of inner_hi: drop the right
        # part and probe a new inner_lo. Otherwise drop the left part and
        # probe a new inner_hi.
        left = a_f_lo < a_f_hi
        a_hi = np.where(left, a_inner_hi, a_hi)
        a_lo = np.where(left, a_lo, a_inner_lo)
        kept = np.where(left, a_inner_lo, a_inner_hi)
        f_kept = np.where(left, a_f_lo, a_f_hi)
        probe = np.where(left, a_hi - _INV_PHI * (a_hi - a_lo), a_lo + _INV_PHI * (a_hi - a_lo))
        f_probe = objective(probe, active)
        lo[active], hi[active] = a_lo, a_hi
        inner_lo[active] = np.where(left, probe, kept)
        inner_hi[active] = np.where(left, kept, probe)
        f_lo[active] = np.where(left, f_probe, f_kept)
        f_hi[active] = np.where(left, f_kept, f_probe)
        evals[active] += 1

    candidates = np.stack((lo, 0.5 * (lo + hi), hi))
    p_n1, p_n2 = _split_powers(candidates, nats, d_m, h_n_sq, t_n)
    energies = d_m * p_n1 + t_n * p_n2
    best = np.argmin(energies, axis=0)[None, :]
    return (
        np.take_along_axis(p_n1, best, axis=0)[0],
        np.take_along_axis(p_n2, best, axis=0)[0],
        np.take_along_axis(energies, best, axis=0)[0],
        evals + 3,
    )


def oracle_fixed_t(
    scenario: OffloadScenario,
    t_n: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> OracleResult:
    """Minimize the constraint-split energy over ``alpha``: ``oracle_batch`` of one search."""
    p_n1, p_n2, energy, iterations = oracle_batch([scenario], t_n, tol=tol, max_iter=max_iter)
    return OracleResult(
        p_n1=float(p_n1[0]),
        p_n2=float(p_n2[0]),
        t_n=t_n,
        energy=float(energy[0]),
        iterations=int(iterations[0]),
    )


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
    t_max = scenario.capped_extension
    if t_max == 0.0:
        # With alpha = 1 phase 2 carries zero nats, so its length is immaterial.
        shared = split_schedule(scenario, scenario.d_m, 1.0)
        return OracleResult(
            p_n1=shared.p_n1,
            p_n2=shared.p_n2,
            t_n=0.0,
            energy=schedule_energy(scenario, shared),
            iterations=0,
        )
    grid = t_max * np.arange(1, t_steps + 1) / t_steps
    p_n1, p_n2, energy, iterations = oracle_batch([scenario], grid, tol=tol)
    best = int(np.argmin(energy))
    return OracleResult(
        p_n1=float(p_n1[best]),
        p_n2=float(p_n2[best]),
        t_n=float(grid[best]),
        energy=float(energy[best]),
        iterations=int(iterations.sum()),
    )


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
    feasible sample. With hand-picked ranges the optimum generally falls
    between samples and the cheapest feasible sample can sit a few cells away
    along the constraint boundary. Both ranges must be positive and finite,
    defaults included (a saturated closed-form power gives an infinite one);
    otherwise NonPositiveParameter is raised.
    """
    if not (t_n > 0.0):
        raise TimeExtensionOutOfRange(f"t_n must be positive, got {t_n!r}")
    if resolution < 2:
        raise NonPositiveParameter(f"resolution must be at least 2, got {resolution!r}")
    if p1_max is None or p2_max is None:
        star1, star2 = hybrid_powers(scenario, t_n)
        if p1_max is None:
            p1_max = 2.0 * star1
        if p2_max is None:
            p2_max = 2.0 * star2
    if not (0.0 < p1_max < math.inf and 0.0 < p2_max < math.inf):
        raise NonPositiveParameter(
            f"power ranges must be positive and finite, got p1_max={p1_max!r}, p2_max={p2_max!r}"
        )

    p1_axis = np.linspace(0.0, p1_max, resolution, endpoint=False)
    p2_axis = np.linspace(0.0, p2_max, resolution, endpoint=False)
    energy = scenario.d_m * p1_axis[:, None] + t_n * p2_axis[None, :]
    discount = math.exp(-scenario.nats / scenario.d_m)
    offloaded = (
        scenario.d_m * np.log1p(discount * scenario.h_n_sq * p1_axis)[:, None]
        + t_n * np.log1p(scenario.h_n_sq * p2_axis)[None, :]
    )
    feasible = offloaded >= scenario.nats * (1.0 - FEASIBILITY_SLACK)
    return SurfaceGrid(p1_axis=p1_axis, p2_axis=p2_axis, energy=energy, feasible=feasible)
