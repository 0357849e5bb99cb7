"""Independent numerical verification of the closed forms and of the strategy choice.

The rate constraint binds at any optimum, as the energy increases in each power. The
oracle splits the task, ``alpha`` of it in the shared slot, recovers the powers that
carry each share and minimizes the energy over ``alpha`` by golden-section search,
reading no closed form. ``oracle_bounds`` adds the extension: the search at the whole
budget ``d_n - d_m`` is a feasible energy, and the Lagrange dual, maximized by the same
loop, a lower bound on every feasible one (weak duality: Boyd and Vandenberghe, *Convex
Optimization*, 2004, sections 5.2.2 and 5.5.1).

Every lane takes the same ``_STEPS`` golden-section steps, fixed in advance by the final
bracket (Kiefer, "Sequential minimax search for a maximum", Proc. AMS 1953), so all lanes
share one bracket width. A split step sums two phase energies, each one ``model._power``
with the phase length folded into the gain. A batch tests a phase for saturation only if
some lane can reach the cutoff: ``alpha`` lies in [0, 1], so ``y1 <= nats/d_m`` and
``y2 <= nats/t_n`` in floats too.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _EXACT, _NUMPY, NomaMecError, _power, _real_lanes, _saturates

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps per lane: the first k whose bracket on [0, 1], _INV_PHI**k wide, is at
# most 1e-10 (_INV_PHI**47 = 1.51e-10, _INV_PHI**48 = 9.30e-11, far apart for rounding).
_STEPS = 48


def _split_powers(ops, alpha, nats, d_m, h_n_sq, t_n, can_saturate=(True, True)):
    """The powers that carry ``alpha`` of the task in the shared slot and the rest in ``t_n``
    at equality, elementwise with ``_SCALAR`` or ``_NUMPY``; arrays need ``np.errstate``."""
    rate_dm = nats / d_m
    y1 = alpha * nats / d_m
    y2 = (1.0 - alpha) * nats / t_n
    return (_power(ops, y1, h_n_sq, rate_dm, ops.exp(rate_dm), can_saturate[0]),
            _power(ops, y2, h_n_sq, can_saturate=can_saturate[1]))


def _lanes(**fields):
    """Each field read by ``_real_lanes``, all broadcast; else NomaMecError names each length."""
    lanes = [_real_lanes(name, value) for name, value in fields.items()]
    try:
        return np.broadcast_arrays(*lanes)
    except ValueError:
        sizes = ", ".join(f"{name} {lane.size}" for name, lane in zip(fields, lanes))
        raise NomaMecError(f"lane fields must have one length or length 1, got {sizes}") from None


def _golden(f, size, keep_left=None):
    """Minimize ``f`` on [0, 1] in ``size`` lanes; return the final ``(lo, mid, hi)``. A step
    keeps the left part where ``f_lo < f_hi`` or ``keep_left(lower inner point)``."""
    # Brackets [lo, lo + width], with f_lo, f_hi at lo + (1 - _INV_PHI, _INV_PHI) * width.
    lo, width = np.zeros(size), 1.0
    f_lo, f_hi = f(lo + (1.0 - _INV_PHI)), f(lo + _INV_PHI)
    for _ in range(_STEPS):
        left = f_lo < f_hi
        if keep_left is not None:
            left |= keep_left(lo + (1.0 - _INV_PHI) * width)
        lo = np.where(left, lo, lo + (1.0 - _INV_PHI) * width)
        width *= _INV_PHI
        f_probe = f(lo + np.where(left, (1.0 - _INV_PHI) * width, _INV_PHI * width))
        f_lo, f_hi = np.where(left, f_probe, f_hi), np.where(left, f_lo, f_probe)
    # 2 + _STEPS evaluations. The right end rounds past 1 if every step goes right.
    hi = np.minimum(lo + width, 1.0)
    return lo, 0.5 * (lo + hi), hi


def oracle_batch(nats, d_m, h_n_sq, t_n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the constraint-split energy over ``alpha`` for many searches at once.

    The lane arrays (or floats) ``nats``, ``d_m``, ``h_n_sq`` and ``t_n`` broadcast in one
    dimension: one scenario over many extensions, or one extension per scenario. Each lane
    runs its own search on alpha in [0, 1], ``_STEPS`` steps to a bracket at most 1e-10 wide,
    and gets the result of a search of that lane alone: the best of the bracket's ends and
    midpoint, never worse than any alpha-grid sample at resolution 1e-10. Returns arrays
    ``(p_n1, p_n2, energy)``, one entry per lane, after ``_STEPS + 5`` evaluations.

    Every lane field must be a positive finite real (no bool, str or complex); past ``d_m``
    a lane's optimum is OMA over ``t_n``. The NomaMecError names the field and the first
    bad lane, or each field's length where they do not broadcast.
    """
    nats, d_m, h_n_sq, t_n = _lanes(nats=nats, d_m=d_m, h_n_sq=h_n_sq, t_n=t_n)

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
        floor = np.zeros(t_n.size)   # each lane's least phase power so far, or 0
        # Phase 1 saturated at the lower inner point is at every larger alpha: that tie goes left.
        tie = (lambda alpha: _saturates(alpha * rate_dm, rate_dm)) if can_saturate[0] else None
        candidates = np.stack(_golden(split_energy, t_n.size, tie))
        p_n1, p_n2 = _split_powers(_NUMPY, candidates, nats, d_m, h_n_sq, t_n, can_saturate)
        # One verdict per search, on every evaluation and candidate, as PowerSchedule checks powers.
        if not (np.minimum(floor, np.minimum(p_n1, p_n2).min(axis=0)) >= 0.0).all():
            raise NomaMecError("split powers must be nonnegative")
        energies = d_m * p_n1 + t_n * p_n2
        best, lane = np.argmin(energies, axis=0), np.arange(t_n.size)
        return p_n1[best, lane], p_n2[best, lane], energies[best, lane]


def _dual(nats, d_m, budget, h_n_sq, u):
    """The Lagrange dual at ``u = ln(lambda h)``, elementwise: the least Lagrangian, at ``y2 = u``,
    ``y1 = max(0, u - nats/d_m)``, ``t`` 0 or ``budget``. At ``u >= 0``, a lower bound."""
    rate_dm = nats / d_m
    y1 = np.maximum(0.0, u - rate_dm)
    exp_u = np.exp(u)
    return (exp_u * nats + d_m * (np.exp(rate_dm) * np.expm1(y1) - exp_u * y1)
            + budget * np.minimum(0.0, np.expm1(u) - exp_u * u)) / h_n_sq


def oracle_bounds(nats, d_m, d_n, h_n_sq) -> tuple[np.ndarray, np.ndarray]:
    """Bound the least energy over every split and extension, for many scenarios at once.

    Lanes ``nats``, ``d_m``, ``d_n`` and ``h_n_sq`` are read as ``oracle_batch`` reads its
    own, with ``d_n >= d_m`` (the NomaMecError names ``d_n`` and the lane). Returns arrays
    ``(upper, lower)``: ``upper`` is ``oracle_batch``'s energy over the budget ``d_n - d_m``,
    or with none that of pure NOMA, the split at ``alpha = 1``; ``lower`` is the Lagrange
    dual at the best final candidate of a golden-section search on ``u`` in
    ``[0, 2 nats/d_m]``, or ``-inf`` where it is NaN. ``[lower, upper]`` holds the optimum.
    """
    nats, d_m, d_n, h_n_sq = _lanes(nats=nats, d_m=d_m, d_n=d_n, h_n_sq=h_n_sq)
    if (short := d_n < d_m).any():
        k = int(np.argmax(short))
        raise NomaMecError(f"d_n must be at least d_m, got {d_n[k]} < {d_m[k]} in lane {k}")
    budget = d_n - d_m
    flat = budget == 0.0
    upper = oracle_batch(nats, d_m, h_n_sq, np.where(flat, d_m, budget))[2]

    def negated_dual(s):   # a NaN g, where the dual overflows, reads -inf: it passes nothing
        g = _dual(nats, d_m, budget, h_n_sq, span * s)
        return np.where(np.isnan(g), np.inf, -g)

    with np.errstate(all="ignore"):   # saturated lanes overflow
        # With no budget, pure NOMA: alpha = 1 leaves phase 2 no nats, so its length is immaterial.
        # In math's exp/expm1 (_EXACT): bit-equal to the same split on floats (_SCALAR).
        upper[flat] = d_m[flat] * _split_powers(_EXACT, 1.0, nats[flat], d_m[flat], h_n_sq[flat],
                                                1.0)[0]
        span = 2.0 * (nats / d_m)
        # The dual overflows past u = 709.78 (at every u once nats/d_m is past it), where -g reads
        # +inf: a right tail, which f_lo < f_hi alone keeps out of the bracket.
        candidates = np.stack(_golden(negated_dual, nats.size))
        return upper, -negated_dual(candidates).min(axis=0)
