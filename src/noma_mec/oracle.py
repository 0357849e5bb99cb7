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
takes one lane per (scenario, extension) pair, each the same ``_STEPS``
golden-section steps, a count fixed in advance by the final bracket (Kiefer,
"Sequential minimax search for a maximum", Proc. AMS 1953), so all lanes share
one bracket width. A step compares splits by the sum of their phase energies,
each one ``_power`` with the phase length folded into the gain, over lane
constants computed once; saturation is patched only where it occurs. A batch
tests a phase for saturation only if some lane can reach the cutoff: ``alpha``
lies in [0, 1], so ``y1 <= nats/d_m`` and ``y2 <= nats/t_n`` in floats too.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import (_NUMPY, _SCALAR, NomaMecError, OffloadScenario, PowerSchedule, _power,
                    _real_lanes, _require_in, _saturates, schedule_energy)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps per lane: the first k whose bracket on alpha, _INV_PHI**k wide, is at
# most 1e-10 (_INV_PHI**47 = 1.51e-10, _INV_PHI**48 = 9.30e-11, far apart for rounding).
_STEPS = 48
# Extensions ``oracle_joint`` searches, evenly spaced on the deadline budget (0, d_n - d_m].
_EXTENSIONS = 256


OracleResult = namedtuple("OracleResult", "p_n1 p_n2 t_n energy")
OracleResult.__doc__ = "Numerically found minimum: powers, extension and energy."


def _split_powers(ops, alpha, nats, d_m, h_n_sq, t_n, can_saturate=(True, True)):
    """``split_schedule``'s powers, elementwise, with ``_SCALAR`` or ``_NUMPY``: the same steps,
    so the two differ only where numpy's ``exp``/``expm1`` differ; arrays need ``np.errstate``."""
    rate_dm = nats / d_m
    y1 = alpha * nats / d_m
    y2 = (1.0 - alpha) * nats / t_n
    return (_power(ops, y1, h_n_sq, rate_dm, ops.exp(rate_dm), can_saturate[0]),
            _power(ops, y2, h_n_sq, can_saturate=can_saturate[1]))


def split_schedule(scenario: OffloadScenario, t_n: float, alpha: float) -> PowerSchedule:
    """Schedule that puts ``alpha`` of the task in the shared slot, the rest in ``t_n``,
    with the rate constraint met with equality in both phases. ``t_n`` must be positive
    and finite, ``alpha`` in [0, 1] (NomaMecError otherwise)."""
    t_n = _require_in("t_n", t_n, 0, math.inf, "()")
    alpha = _require_in("alpha", alpha, 0, 1)
    return PowerSchedule(*_split_powers(_SCALAR, alpha, scenario.nats, scenario.d_m,
                                        scenario.h_n_sq, t_n), t_n=t_n)


def oracle_batch(nats, d_m, h_n_sq, t_n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the constraint-split energy over ``alpha`` for many searches at once.

    The lane arrays (or floats) ``nats``, ``d_m``, ``h_n_sq`` and ``t_n``
    broadcast against each other in one dimension: one scenario over a grid
    of extensions, or one extension per scenario. Each lane runs its own
    golden-section search on alpha in [0, 1]: ``_STEPS`` steps leave a bracket
    at most 1e-10 wide, a width all lanes share, and a lane's result is that
    of a search of that lane alone. Returns one-dimensional arrays ``(p_n1,
    p_n2, energy)``, one entry per lane. The search effort is fixed: every
    lane takes ``_STEPS + 5`` objective evaluations.

    Every lane field must be a positive finite real (no bool, str or complex), as
    ``t_n`` in ``split_schedule``; past ``d_m`` a lane's optimum is OMA over ``t_n``.
    The NomaMecError names the field and the first bad lane. Each lane's returned
    point is the best of its final bracket's endpoints and midpoint, never
    worse than any alpha-grid sample at resolution 1e-10.
    """
    nats, d_m, h_n_sq, t_n = np.broadcast_arrays(*map(
        _real_lanes, ("nats", "d_m", "h_n_sq", "t_n"), (nats, d_m, h_n_sq, t_n)))

    def split_energy(alpha):   # phase energies: power times length is _power over h/length
        phase1 = _power(_NUMPY, alpha * rate_dm, h_per_dm, rate_dm, exp_rate_dm, can_saturate[0])
        phase2 = _power(_NUMPY, (1.0 - alpha) * rate_tn, h_per_tn, can_saturate=can_saturate[1])
        np.minimum(floor, phase1, out=floor)   # a NaN sticks, so it fails the verdict too
        np.minimum(floor, phase2, out=floor)
        return phase1 + phase2

    with np.errstate(all="ignore"):   # saturated lanes overflow, folded gains can underflow
        rate_dm, rate_tn = nats / d_m, nats / t_n
        exp_rate_dm = np.exp(rate_dm)
        h_per_dm, h_per_tn = h_n_sq / d_m, h_n_sq / t_n
        # Phase 1 can saturate only if it does at alpha = 1 (y1 = nats/d_m), phase 2 at alpha = 0.
        can_saturate = (np.count_nonzero(_saturates(rate_dm, rate_dm)),
                        np.count_nonzero(_saturates(rate_tn)))
        # Brackets [lo, lo + width], with f_lo, f_hi at lo + (1 - _INV_PHI, _INV_PHI) * width.
        lo, width = np.zeros(t_n.size), 1.0
        floor = np.zeros(t_n.size)   # each lane's least phase power so far, or 0
        f_lo, f_hi = split_energy(lo + (1.0 - _INV_PHI)), split_energy(lo + _INV_PHI)
        for _ in range(_STEPS):
            # Keep the left part where f_lo < f_hi or where phase 1 saturates at the lower inner
            # point, as at every larger alpha (an inf/inf tie); else the right part: lo moves up.
            left = f_lo < f_hi
            if can_saturate[0]:
                left |= _saturates((lo + (1.0 - _INV_PHI) * width) * rate_dm, rate_dm)
            lo = np.where(left, lo, lo + (1.0 - _INV_PHI) * width)
            width *= _INV_PHI
            f_probe = split_energy(lo + np.where(left, (1.0 - _INV_PHI) * width, _INV_PHI * width))
            f_lo, f_hi = np.where(left, f_probe, f_hi), np.where(left, f_lo, f_probe)

        # 2 + _STEPS + 3 evaluations. The right end rounds past 1 if every step goes right.
        hi = np.minimum(lo + width, 1.0)
        candidates = np.stack((lo, 0.5 * (lo + hi), hi))
        p_n1, p_n2 = _split_powers(_NUMPY, candidates, nats, d_m, h_n_sq, t_n, can_saturate)
        # One verdict per search, on every evaluation and candidate, as PowerSchedule checks powers.
        if not (np.minimum(floor, np.minimum(p_n1, p_n2).min(axis=0)) >= 0.0).all():
            raise NomaMecError("split powers must be nonnegative")
        energies = d_m * p_n1 + t_n * p_n2
        best, lane = np.argmin(energies, axis=0), np.arange(t_n.size)
        return p_n1[best, lane], p_n2[best, lane], energies[best, lane]


def oracle_joint(scenario: OffloadScenario) -> OracleResult:
    """Joint search: minimize over alpha on a uniform extension grid and take the argmin.

    The grid covers the deadline budget ``(0, d_n - d_m]`` with 256 points
    including the right endpoint, searched as one ``oracle_batch``. Past
    ``d_m`` a split's optimum is OMA over ``t_n``, so from ``d_n == 2 d_m`` on
    the search lands on OMA over the whole budget. With ``d_n == d_m`` the
    interval is empty and the split that carries the whole task in the shared
    slot (pure NOMA) is returned directly. The last of equal minima wins, so an
    all-inf search names the whole budget.
    """
    t_max = scenario.d_n - scenario.d_m
    if t_max == 0.0:
        # With alpha = 1 phase 2 carries zero nats, so its length is immaterial.
        shared = split_schedule(scenario, scenario.d_m, 1.0)
        return OracleResult(shared.p_n1, shared.p_n2, 0.0, schedule_energy(scenario, shared))
    grid = t_max * np.arange(1, _EXTENSIONS + 1) / _EXTENSIONS
    p_n1, p_n2, energy = oracle_batch(scenario.nats, scenario.d_m, scenario.h_n_sq, grid)
    best = _EXTENSIONS - 1 - int(np.argmin(energy[::-1]))   # the last of equal minima
    return OracleResult(float(p_n1[best]), float(p_n2[best]), float(grid[best]),
                        float(energy[best]))
