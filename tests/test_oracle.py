import ast
import contextlib
import hashlib
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import noma_mec.oracle
from conftest import hybrid_scenarios, identity_corpus, numpy_exp_is_pinned
from noma_mec import (
    NomaMecError,
    Regime,
    StrategyKind,
    classify_regime,
    energy_surface,
    hybrid_energy,
    hybrid_powers,
    offloaded_nats,
    oma_energy_n,
    oracle_joint,
    schedule_energy,
    select_strategy,
    split_schedule,
    validate_scenario,
)
from noma_mec import PowerSchedule, log_oma_energy_n, oracle_batch
from noma_mec.model import _NUMPY, EXP_CUTOFF
from noma_mec.oracle import _EXTENSIONS, _INV_PHI, _split_powers

ANCHOR = validate_scenario(15.0, 20.0, 25.0)
# 1.382 nats/d_m > EXP_CUTOFF: both first inner points of the search saturate phase 1, an
# inf/inf tie, while the optimum at t_n = 0.9 (alpha = 0.0526) is finite.
PHASE1_TIE = validate_scenario(507.0, 1.0, 1.9)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


class TestSplitParametrization:
    def test_all_nats_in_shared_slot_is_pure_noma(self):
        schedule = split_schedule(ANCHOR, 5.0, 1.0)
        assert schedule_energy(ANCHOR, schedule) == hybrid_energy(ANCHOR, 0.0)
        assert schedule.p_n1 == hybrid_powers(ANCHOR, 0.0)[0]
        assert schedule.p_n2 == 0.0

    def test_all_nats_in_solo_slot_is_oma(self):
        assert schedule_energy(ANCHOR, split_schedule(ANCHOR, 5.0, 0.0)) == pytest.approx(
            oma_energy_n(ANCHOR, 5.0), rel=1e-12
        )
        assert split_schedule(ANCHOR, 5.0, 0.0).p_n1 == 0.0

    @given(s=hybrid_scenarios(), alpha=st.floats(0.0, 1.0))
    def test_split_is_rate_exact(self, s, alpha):
        t_n = s.d_n - s.d_m
        schedule = split_schedule(s, t_n, alpha)
        if math.isinf(schedule.p_n1) or math.isinf(schedule.p_n2):
            return
        assert offloaded_nats(s, schedule) == pytest.approx(s.nats, rel=1e-9)

    def test_alpha_out_of_range(self):
        with pytest.raises(NomaMecError, match=r"^alpha must lie in \[0, 1\], got 1\.5$"):
            split_schedule(ANCHOR, 5.0, 1.5)

    def test_zero_extension_rejected(self):
        with pytest.raises(NomaMecError, match=r"^t_n must lie in \(0, inf\), got 0\.0$"):
            split_schedule(ANCHOR, 0.0, 0.5)

    @pytest.mark.parametrize("call, field", [
        (lambda length: oma_energy_n(ANCHOR, length), "slot"),
        (lambda length: log_oma_energy_n(ANCHOR, length), "slot"),
        (lambda length: split_schedule(ANCHOR, length, 0.5), "t_n"),
    ], ids=["oma_energy_n", "log_oma_energy_n", "split_schedule"])
    @pytest.mark.parametrize("length", [math.nan, math.inf, -1.0])
    def test_nonfinite_or_negative_length_rejected(self, call, field, length):
        # A NaN or inf length has no energy; it must not come back as a NaN or inf result.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NomaMecError, match=f"^{field} must lie in .*, got {length!r}$"):
                call(length)


def _one_lane(s, t_n):
    """``oracle_batch``'s search of one lane, the scenario ``s`` at extension ``t_n``: floats."""
    return tuple(float(a[0]) for a in oracle_batch(s.nats, s.d_m, s.h_n_sq, t_n))


class TestFixedExtensionSearch:
    def test_agrees_with_closed_form_at_reference(self):
        p_n1, p_n2, energy = _one_lane(ANCHOR, 5.0)
        assert energy == pytest.approx(35.66291, abs=1e-4)
        assert energy == pytest.approx(hybrid_energy(ANCHOR, 5.0), rel=1e-5)
        assert p_n1 == pytest.approx(1.203116, abs=1e-5)
        assert p_n2 == pytest.approx(2.320117, abs=1e-5)

    def test_boundary_extension(self):
        p_n1, _, energy = _one_lane(ANCHOR, 20.0)
        assert energy == pytest.approx(22.34000, abs=1e-4)
        assert p_n1 == pytest.approx(0.0, abs=1e-6)

    def test_never_worse_than_alpha_grid(self):
        # A scan at spacing 1e-4 can only sit above the full 1e-10 grid,
        # so beating it (up to ulp noise) is the decidable form of the claim.
        energy = _one_lane(ANCHOR, 5.0)[2]
        spacing = 1e-4
        grid_best = min(
            schedule_energy(ANCHOR, split_schedule(ANCHOR, 5.0, k * spacing))
            for k in range(int(1.0 / spacing) + 1)
        )
        assert energy <= grid_best * (1.0 + 1e-12)

    def test_preconditions(self):
        with pytest.raises(NomaMecError, match="^t_n must be a positive finite number, got 0.0 in"):
            _one_lane(ANCHOR, 0.0)
        with pytest.raises(NomaMecError, match="^t_n must be a positive finite number, got inf in"):
            _one_lane(ANCHOR, math.inf)

    @pytest.mark.parametrize("field", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad, shown", [
        # A float conversion would read the first three as 1.0, 1.0 and 5.0.
        (True, "True"), (np.bool_(True), repr(np.bool_(True))), ("5", "'5'"), (b"5", "b'5'"),
        (5 + 0j, r"\(5\+0j\)"), (None, "None"), (10**400, "1" + "0" * 400),
        # Python prints no int of more than 4,300 digits; the message names its type.
        (10**5000, "<int too long to print>"), (-10**5000, "<int too long to print>"),
    ], ids=["True", "np.True_", "str", "bytes", "complex", "None", "10**400", "10**5000",
            "-10**5000"])
    def test_non_number_lane_refused_by_name(self, field, bad, shown):
        lanes = [15.0, 20.0, 1.0, 5.0]
        lanes[field] = bad
        name = ("nats", "d_m", "h_n_sq", "t_n")[field]
        with pytest.raises(NomaMecError,
                           match=f"^{name} must be a positive finite number, got {shown} in lane 0$"):
            oracle_batch(*lanes)
        # Among float lanes too, by its lane: the second of three.
        lanes[field] = np.array([(15.0, 20.0, 1.0, 5.0)[field]] * 3, dtype=object)
        lanes[field][1] = bad
        with pytest.raises(NomaMecError, match=f"^{name} must .*, got {shown} in lane 1$"):
            oracle_batch(*lanes)

    @pytest.mark.parametrize("t_n", [np.float32(5.0), np.int64(5), np.uint64(5), 5, [5.0],
                                     np.array([5], dtype=np.int32)],
                             ids=["float32", "int64", "uint64", "int", "list", "int32 array"])
    def test_real_lane_read_as_its_float(self, t_n):
        assert _one_lane(ANCHOR, t_n) == _one_lane(ANCHOR, 5.0)

    def test_integer_in_the_float_range_read_as_its_float(self):
        # numpy holds 10**20 (past uint64) in an object array, alone or among floats.
        assert _one_lane(ANCHOR, 10**20) == _one_lane(ANCHOR, 1e20)
        batch = oracle_batch(15.0, 20.0, 1.0, [5.0, 10**20])
        assert [a.tolist() for a in batch] == [a.tolist() for a in oracle_batch(
            15.0, 20.0, 1.0, np.array([5.0, 1e20]))]

    def test_phase1_saturated_tie_moves_left(self):
        energy = _one_lane(PHASE1_TIE, 0.9)[2]
        assert energy == pytest.approx(hybrid_energy(PHASE1_TIE, 0.9), rel=1e-11)

    def test_no_finite_hybrid_optimum_reads_inf(self):
        # Every non-degenerate scenario of the corpus at its capped extension, in one batch.
        # The lanes whose first inner points saturate phase 1 are also searched alone: 16 of
        # them have a finite optimum (nats/d_m in 520-694), and an inf/inf tie that moved
        # right read inf there.
        corpus = [s for s in identity_corpus() if s.d_n > s.d_m]
        t_star = [select_strategy(s).t_star for s in corpus]
        closed = np.array([hybrid_energy(s, t) for s, t in zip(corpus, t_star)])
        energy = oracle_batch(*_lane_arrays(corpus), t_star)[2]
        finite = np.isfinite(closed)
        assert np.count_nonzero(finite) == 880
        assert np.isfinite(energy[finite]).all() and np.isinf(energy[~finite]).all()
        assert np.allclose(energy[finite], closed[finite], rtol=1e-12, atol=0.0)
        ties = [k for k, s in enumerate(corpus) if (2.0 - _INV_PHI) * s.nats / s.d_m > EXP_CUTOFF]
        assert np.count_nonzero(finite[ties]) == 16
        for k in ties:
            assert _one_lane(corpus[k], t_star[k])[2] == energy[k]

    @settings(max_examples=60, deadline=None)
    @given(s=hybrid_scenarios())
    def test_matches_closed_form_on_random_scenarios(self, s):
        t_n = s.d_n - s.d_m
        closed = hybrid_energy(s, t_n)
        energy = _one_lane(s, t_n)[2]
        assert abs(energy - closed) / closed <= 1e-5


def _random_lanes(count, seed):
    """Scenarios from the campaign ranges with extensions anywhere in (0, d_n - d_m]."""
    rng = np.random.default_rng(seed)
    scenarios, t_n = [], []
    for _ in range(count):
        d_m = rng.uniform(1.0, 50.0)
        s = validate_scenario(rng.uniform(1.0, 40.0), d_m, d_m * (1.0 + rng.uniform(1e-3, 1.0)),
                              rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        scenarios.append(s)
        t_n.append((s.d_n - s.d_m) * rng.uniform(1e-3, 1.0))
    return scenarios, t_n


def _lane_arrays(scenarios):
    """The ``(nats, d_m, h_n_sq)`` lane arrays ``oracle_batch`` takes."""
    return [np.array([getattr(s, name) for s in scenarios]) for name in ("nats", "d_m", "h_n_sq")]


def _power_calls(monkeypatch, search, *args):
    """``search(*args)`` and the number of ``_power`` calls it made. A search's effort is
    fixed: two per objective evaluation (one per phase), for the two first inner points and
    one probe per step, then two to score every lane's three final candidates at once."""
    real, calls = noma_mec.oracle._power, []

    def counted(*power_args, **kwargs):
        calls.append(None)
        return real(*power_args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(noma_mec.oracle, "_power", counted)
        return search(*args), len(calls)


def _effort(steps):
    return 2 * (steps + 2) + 2


OTHER = validate_scenario(3.0, 10.0, 19.0, 1.0, 4.0)
# Phase 1 saturates once nats/d_m + y1 passes EXP_CUTOFF (nats/d_m = 600 > 350); phase 2
# saturates where y2 does, which at t_n = 0.5 (nats/t_n = 1200 > 700) it can.
SATURATING = validate_scenario(600.0, 1.0, 1.5)
# Only phase 2 can saturate: nats/d_m = 1.5, but nats/t_n = 3000 at t_n = 0.01.
PHASE2_SATURATING = validate_scenario(30.0, 20.0, 25.0)
# At t_n = 0.135 every split saturates, but numpy's exp leaves the products finite for
# alpha near 0.765, where rate_dm + y1 lies just past EXP_CUTOFF.
NEAR_CUTOFF = validate_scenario(400.0, 1.0, 1.5)
ONE_SATURATING = _random_lanes(20, seed=7)
RANDOM_LANES = _random_lanes(200, seed=3)


class TestOracleBatch:
    @pytest.mark.parametrize(
        "scenarios, t_n",
        [
            RANDOM_LANES,
            # Two lanes of one scenario at neighbouring extensions, both near alpha = 0.
            ([ANCHOR, ANCHOR], [20.0, 19.9]),
            # Two scenarios in scrambled order: each lane's result lands in its own slot.
            ([ANCHOR, OTHER, ANCHOR, ANCHOR, OTHER, ANCHOR, ANCHOR],
             [12.0, 9.0, 0.25, 20.0, 10.0, 15.0, 19.9]),
            # Saturating lanes mixed with ordinary ones, and a lane whose every split
            # saturates: the saturated entries are patched lane by lane.
            ([SATURATING, ANCHOR, SATURATING, PHASE2_SATURATING, OTHER, SATURATING,
              PHASE2_SATURATING, NEAR_CUTOFF, validate_scenario(1e308, 1e-10, 1.5e-10)],
             [0.5, 5.0, 1.0, 0.01, 9.0, 0.01, 0.04, 0.135, 5e-11]),
            # Lanes whose inf/inf ties go left mixed with lanes that never saturate.
            ([PHASE1_TIE, ANCHOR, PHASE1_TIE, OTHER, SATURATING, PHASE1_TIE],
             [0.9, 5.0, 0.5, 9.0, 0.5, 0.01]),
            # Exactly one saturating lane among ordinary ones.
            ([*ONE_SATURATING[0][:10], SATURATING, *ONE_SATURATING[0][10:]],
             [*ONE_SATURATING[1][:10], 0.5, *ONE_SATURATING[1][10:]]),
        ],
    )
    def test_each_lane_is_its_own_search(self, monkeypatch, scenarios, t_n):
        (p_n1, p_n2, energy), calls = _power_calls(monkeypatch, oracle_batch,
                                                   *_lane_arrays(scenarios), np.array(t_n))
        assert calls == _effort(noma_mec.oracle._STEPS)
        for k, (s, t) in enumerate(zip(scenarios, t_n)):
            assert (p_n1[k], p_n2[k], energy[k]) == _one_lane(s, t)

    @pytest.mark.parametrize("lanes", [
        (15.0, 20.0, 1.0, 5.0),
        (*_lane_arrays(RANDOM_LANES[0]), np.array(RANDOM_LANES[1])),
        (600.0, 1.0, 1.0, 0.5),   # both phases can saturate: the patched rule, same call count
    ], ids=["1 lane", "200 lanes", "saturating"])
    def test_search_effort_is_fixed(self, monkeypatch, lanes):
        # Every batch, whatever its lane count, runs the same _STEPS steps: 102 _power calls.
        _, calls = _power_calls(monkeypatch, oracle_batch, *lanes)
        assert calls == _effort(noma_mec.oracle._STEPS) == 102

    def test_search_opens_at_the_golden_points_and_ties_test_the_lower_one(self, monkeypatch):
        # PHASE1_TIE's first inner points both saturate phase 1. The search opens at alpha =
        # 1 - _INV_PHI and _INV_PHI, and each step's inf/inf tie rule asks whether phase 1
        # saturates at the lower inner point: an exponent some evaluation used, to rounding.
        real_power, real_saturates = noma_mec.oracle._power, noma_mec.oracle._saturates
        evaluated, tested = [], []

        def power(ops, y, *rest, **kwargs):
            if len(rest) >= 3:   # the shared slot: the gain, nats/d_m and its exp follow y
                evaluated.extend(np.ravel(y).tolist())
            return real_power(ops, y, *rest, **kwargs)

        def saturates(y, *rest):
            tested.append(float(np.ravel(y)[0]))
            return real_saturates(y, *rest)

        monkeypatch.setattr(noma_mec.oracle, "_power", power)
        monkeypatch.setattr(noma_mec.oracle, "_saturates", saturates)
        oracle_batch(PHASE1_TIE.nats, PHASE1_TIE.d_m, PHASE1_TIE.h_n_sq, 0.9)
        rate_dm = PHASE1_TIE.nats / PHASE1_TIE.d_m
        assert evaluated[:2] == [(1.0 - _INV_PHI) * rate_dm, _INV_PHI * rate_dm]
        ties = tested[2:]   # after the two batch-wide saturation bounds
        assert len(ties) == noma_mec.oracle._STEPS
        assert all(min(abs(y - e) for e in evaluated) <= 1e-12 * y for y in ties)

    @pytest.mark.parametrize("bad_t_n", [0.0, math.inf, math.nan])
    def test_one_out_of_range_lane_raises(self, bad_t_n):
        scenarios, t_n = _random_lanes(5, seed=4)
        scenarios.append(ANCHOR)
        with pytest.raises(NomaMecError, match=f"^t_n must be .*, got {bad_t_n!r} in lane 5$"):
            oracle_batch(*_lane_arrays(scenarios), np.array([*t_n, bad_t_n]))

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_lane_field_fails_closed(self, field, bad):
        scenarios, t_n = _random_lanes(5, seed=5)
        lanes = _lane_arrays(scenarios)
        lanes[field][2] = bad
        name = ("nats", "d_m", "h_n_sq")[field]
        with pytest.raises(NomaMecError, match=f"^{name} must .* in lane 2$"):
            oracle_batch(*lanes, np.array(t_n))

    def test_unequal_lane_lengths_fail_closed(self):
        # Fields of lengths 3 and 2 do not broadcast; the error names every field's length.
        with pytest.raises(NomaMecError, match=r"^lane fields must have one length or length 1,"
                                               r" got nats 3, d_m 1, h_n_sq 1, t_n 2$"):
            oracle_batch([1.0, 2.0, 3.0], 20.0, 1.0, [1.0, 2.0])

    def test_saturation_skip_is_exact_at_its_edge(self, monkeypatch):
        # A batch tests a phase for saturation only if some lane's 2 nats/d_m (phase 1) or
        # nats/t_n (phase 2) passes EXP_CUTOFF. Lanes with that bound at the cutoff and one
        # ulp either side: in one batch both tests run, alone a lane at or below skips them.
        edge = [math.nextafter(EXP_CUTOFF, -math.inf), EXP_CUTOFF,
                math.nextafter(EXP_CUTOFF, math.inf)]
        lanes = ([(x / 2.0, 1.0, 1.0) for x in edge]      # phase 1 only: nats/t_n = 350
                 + [(x, 4.0, 1.0) for x in edge]          # phase 2 only: 2 nats/d_m = 350
                 + [(x, 1.0, 1.0) for x in edge])         # both at once
        nats, d_m, t_n = (np.array(column) for column in zip(*lanes))
        batch = oracle_batch(nats, d_m, 1.0, t_n)
        bits = [a.tobytes() for a in batch]
        for k, (n, m, t) in enumerate(lanes):
            alone = oracle_batch(n, m, 1.0, t)
            assert [a.tobytes() for a in alone] == [a[k:k + 1].tobytes() for a in batch]
        # The same batch with both tests run in every evaluation gives the same bits.
        real = noma_mec.oracle._power
        monkeypatch.setattr("noma_mec.oracle._power",
                            lambda ops, y, h_sq, rate_dm=0.0, exp_rate_dm=None, can_saturate=True:
                            real(ops, y, h_sq, rate_dm, exp_rate_dm))
        assert [a.tobytes() for a in oracle_batch(nats, d_m, 1.0, t_n)] == bits

    # Every lane's bracket is [lo, lo + width] with one width for all lanes, and where every
    # step goes right lo + width rounds past 1 at some step counts (to 1 + 2**-52 after 44).
    @pytest.mark.parametrize("steps", [44, noma_mec.oracle._STEPS])
    def test_bracket_ends_stay_in_the_unit_interval(self, monkeypatch, steps):
        monkeypatch.setattr(noma_mec.oracle, "_STEPS", steps)
        real, candidates = _split_powers, []

        def recorded(ops, alpha, *lane):
            candidates.append(alpha)
            return real(ops, alpha, *lane)

        monkeypatch.setattr(noma_mec.oracle, "_split_powers", recorded)
        # t_n = 1e-100 d_m: phase 2 saturates at every alpha short of 1, so every step goes
        # right. t_n = 2 d_m: the optimum is OMA at alpha = 0, so every step goes left.
        t_n = np.array([1e-100 * ANCHOR.d_m, 2.0 * ANCHOR.d_m])
        (p_n1, p_n2, energy), calls = _power_calls(monkeypatch, oracle_batch, ANCHOR.nats,
                                                   ANCHOR.d_m, ANCHOR.h_n_sq, t_n)
        assert np.isfinite(energy).all() and calls == _effort(steps)
        assert energy[0] == pytest.approx(hybrid_energy(ANCHOR, 0.0), rel=1e-12)
        assert energy[1] == pytest.approx(oma_energy_n(ANCHOR, t_n[1]), rel=1e-12)
        scored = np.concatenate([np.ravel(alpha) for alpha in candidates])
        assert ((0.0 <= scored) & (scored <= 1.0)).all() and scored.max() == 1.0
        for k, t in enumerate(t_n):
            alone = oracle_batch(ANCHOR.nats, ANCHOR.d_m, ANCHOR.h_n_sq, t)
            assert [a.tolist() for a in alone] == [[p_n1[k]], [p_n2[k]], [energy[k]]]

    @given(alpha=st.floats(0.0, 1.0), nats=POSITIVE, d_m=POSITIVE, t_n=POSITIVE)
    def test_split_exponents_bounded_by_their_alpha_ends(self, alpha, nats, d_m, t_n):
        # Rounding is monotone, so the batch-wide saturation bounds hold in floats.
        y1, y2 = alpha * nats / d_m, (1.0 - alpha) * nats / t_n
        assert y1 <= nats / d_m and nats / d_m + y1 <= 2.0 * (nats / d_m)
        assert y2 <= nats / t_n

    @given(s=hybrid_scenarios(), alpha=st.floats(0.0, 1.0), frac=st.floats(1e-3, 1.0))
    # Just past EXP_CUTOFF, where numpy's products are still finite: rate_dm + y1 = 704,
    # y2 = 705, and rate_dm = 800 at alpha = 0, where exp(rate_dm) * expm1(0) is NaN.
    @example(s=validate_scenario(400.0, 1.0, 2.0), alpha=0.76, frac=1.0)
    @example(s=validate_scenario(30.0, 20.0, 25.0), alpha=0.0, frac=30.0 / 705.0 / 5.0)
    @example(s=validate_scenario(800.0, 1.0, 2.0), alpha=0.0, frac=1.0)
    def test_array_objective_matches_scalar(self, s, alpha, frac):
        t_n = (s.d_n - s.d_m) * frac
        scalar = schedule_energy(s, split_schedule(s, t_n, alpha))
        # One lane, every argument an array, as oracle_batch evaluates the rule.
        alpha, *lane = [np.array([v]) for v in (alpha, s.nats, s.d_m, s.h_n_sq, t_n)]
        with np.errstate(over="ignore", invalid="ignore"):
            p_n1, p_n2 = _split_powers(_NUMPY, alpha, *lane)
        array = (s.d_m * p_n1 + t_n * p_n2)[0]
        if math.isinf(scalar):
            assert array == scalar
        else:
            assert array == pytest.approx(scalar, rel=1e-15, abs=0.0)


class TestSaturatedSearch:
    def test_phase2_saturated_optimum_is_inf(self):
        # The optimum's shared exponent is 2 * 669 / 1.9 = 704.2 > EXP_CUTOFF: phase 2
        # saturates there, and numpy's unpatched expm1 would still read finite.
        assert oracle_batch(669.0, 1.0, 1.0, 0.9)[2].tolist() == [math.inf]
        assert hybrid_energy(validate_scenario(669.0, 1.0, 1.9), 0.9) == math.inf

    def test_overflowing_rates_raise_no_numpy_warning(self):
        # nats / d_m overflows to inf, so every split saturates; the search still runs silently.
        s = validate_scenario(1e308, 1e-10, 1.5e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle_batch(s.nats, s.d_m, s.h_n_sq, 5e-11)[2].tolist() == [math.inf]
            assert oracle_joint(s).energy == math.inf


    @pytest.mark.parametrize("power_rule, error", [
        (None, None),
        # A broken power rule: the objective's nonnegativity check raises mid-search.
        (lambda ops, y, *rest, **kwargs: -y, NomaMecError),
        # A power rule that fails with an error of its own on the first call.
        (lambda *args, **kwargs: 1 / 0, ZeroDivisionError),
        # A power rule negative in the solo phase only: one negative phase fails the check.
        pytest.param(lambda ops, y, h_sq, rate_dm=0.0, exp_rate_dm=None, can_saturate=True:
                     -y if exp_rate_dm is None else y, NomaMecError,
                     id="solo phase negative"),
        # Negative, or NaN, in the search's evaluations only, never on the three final
        # candidates (the one two-dimensional call): the search still fails the powers.
        pytest.param(lambda ops, y, *rest, **kwargs: -y if np.ndim(y) == 1 else y, NomaMecError,
                     id="negative in the loop only"),
        pytest.param(lambda ops, y, *rest, **kwargs: np.where(np.ndim(y) == 1, math.nan, y),
                     NomaMecError, id="NaN in the loop only"),
    ])
    def test_caller_error_state_restored(self, monkeypatch, power_rule, error):
        if power_rule is not None:
            monkeypatch.setattr("noma_mec.oracle._power", power_rule)
        # A caller's state unlike both numpy's default and the search's own, so that a
        # state leaked by any earlier search shows too.
        with np.errstate(over="raise", invalid="raise"):
            before = np.geterr()
            match = "^split powers must be nonnegative$" if error is NomaMecError else None
            with pytest.raises(error, match=match) if error else contextlib.nullcontext():
                oracle_batch([600.0, 600.0, 600.0, 15.0], [1.0, 1.0, 1.0, 20.0], 1.0,
                             [0.5, 1.0, 0.01, 5.0])
            assert np.geterr() == before


class TestOracleJoint:
    def test_reference_scenario_lands_on_deadline_budget(self):
        result = oracle_joint(ANCHOR)
        assert result.t_n == pytest.approx(5.0, abs=5.0 / _EXTENSIONS)
        assert result.energy == pytest.approx(35.66291, abs=1e-3)

    def test_tight_deadline(self):
        s = validate_scenario(15.0, 20.0, 21.0)
        result = oracle_joint(s)
        assert result.t_n == pytest.approx(1.0, abs=1.0 / _EXTENSIONS)
        assert result.energy == pytest.approx(hybrid_energy(s, 1.0), rel=1e-5)

    def test_degenerate_deadline_returns_pure_noma(self):
        s = validate_scenario(15.0, 20.0, 20.0)
        result = oracle_joint(s)
        assert result.t_n == 0.0
        assert result.p_n2 == 0.0
        assert result.energy == hybrid_energy(s, 0.0)

    def test_search_resolution_is_fixed(self, monkeypatch):
        # _STEPS is the first step count whose bracket on alpha is at most 1e-10 wide.
        inv_phi, steps = noma_mec.oracle._INV_PHI, noma_mec.oracle._STEPS
        assert inv_phi ** steps <= 1e-10 < inv_phi ** (steps - 1)
        assert _power_calls(monkeypatch, oracle_batch, 15.0, 20.0, 1.0, 5.0)[1] == _effort(steps)

    @pytest.mark.parametrize("call, keyword", [
        (lambda: oracle_batch(15.0, 20.0, 1.0, 5.0, tol=1e-10), "tol"),
        (lambda: oracle_joint(ANCHOR, tol=1e-10), "tol"),
        (lambda: oracle_joint(ANCHOR, t_steps=16), "t_steps"),
    ], ids=["oracle_batch", "oracle_joint", "oracle_joint t_steps"])
    def test_tol_not_accepted(self, call, keyword):
        # The search width and the extension grid are fixed; a caller's value is refused,
        # not ignored.
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            call()

    @settings(max_examples=25, deadline=None)
    @given(s=hybrid_scenarios())
    def test_boundary_optimum(self, s):
        t_max = min(s.d_n - s.d_m, s.d_m)
        result = oracle_joint(s)
        assert result.t_n >= t_max * (1.0 - 1.0 / _EXTENSIONS) - 1e-12

    def test_certifies_the_selected_strategy_in_every_regime(self):
        # Every 4th corpus scenario: 75 per regime. Past d_m a split's optimum is OMA over
        # t_n, so the search over the whole deadline budget also finds where OMA wins.
        sample = identity_corpus()[::4]
        assert {classify_regime(s) for s in sample} == set(Regime)
        for s in sample:
            result, table = oracle_joint(s), select_strategy(s)
            row = table.oma if table.selected is StrategyKind.OMA else table.hybrid
            if math.isinf(row.energy):
                assert result.energy == math.inf
            else:
                assert result.energy == pytest.approx(row.energy, rel=1e-11, abs=0.0)
            if classify_regime(s) is Regime.OMA_FAVORED:
                assert result.t_n == s.d_n - s.d_m
                t_n = [0.5 * s.d_n, s.d_n - s.d_m]   # both in (d_m, d_n - d_m], one batch
                energy = oracle_batch(s.nats, s.d_m, s.h_n_sq, t_n)[2]
                assert energy.tolist() == pytest.approx([oma_energy_n(s, t) for t in t_n],
                                                        rel=1e-12, abs=0.0)

    def test_all_inf_search_names_the_budget(self):
        # nats/d_m = 800 saturates phase 1 at every alpha > 0 and nats/t_n >= 1,600 phase 2 at
        # alpha = 0: every grid energy is inf, and of equal minima the longest extension wins.
        result = oracle_joint(validate_scenario(800.0, 1.0, 1.5))
        assert result.energy == math.inf
        assert result.t_n == 0.5


class TestPinnedBits:
    # One sha256 over the oracle's lane outputs: every bit of p_n1, p_n2 and energy of 30
    # seeded 200-lane batches (every third with nats x30, so that lanes saturate) and of the
    # four fields of four joint searches, one of them all-inf. Each search is one batch.
    DIGEST = "1fcf94212e23a1914071f1470d600ea5b5a27333afc203bece7cc4e772d49380"

    def test_lane_outputs_pinned(self, monkeypatch):
        digest = hashlib.sha256()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            nats, d_m, frac, h_n_sq, t_frac = rng.uniform((1.0, 1.0, 1e-3, 0.1, 1e-3),
                                                          (40.0, 50.0, 1.0, 10.0, 1.0), (200, 5)).T
            outputs, calls = _power_calls(monkeypatch, oracle_batch,
                                          nats * (30.0 if seed % 3 == 0 else 1.0), d_m, h_n_sq,
                                          d_m * frac * t_frac)
            assert calls == _effort(noma_mec.oracle._STEPS)
            digest.update(b"".join(a.tobytes() for a in outputs))
        for s in (ANCHOR, validate_scenario(15.0, 20.0, 21.0), validate_scenario(15.0, 20.0, 50.0),
                  validate_scenario(800.0, 1.0, 1.5)):
            result, calls = _power_calls(monkeypatch, oracle_joint, s)
            assert calls == _effort(noma_mec.oracle._STEPS)
            digest.update(np.array(result).tobytes())
        if numpy_exp_is_pinned():
            assert digest.hexdigest() == self.DIGEST


class TestImportBoundary:
    def test_oracle_reads_no_closed_form(self):
        # The certificate is independent only while the oracle imports neither the closed
        # forms nor the strategy selection and does not take the capped extension as given.
        tree = ast.parse(pathlib.Path(noma_mec.oracle.__file__).read_text())
        imported, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {getattr(node, "module", None) or "", *(a.name for a in node.names)}
            names.add(getattr(node, "attr", None) or getattr(node, "id", None) or "")
        modules = {part for name in imported for part in name.split(".")}
        assert not modules & {"closed_form", "strategy"}, modules
        assert not [name for name in names | imported if "capped_extension" in name]

    def test_campaign_hands_the_oracle_no_closed_form(self):
        # The campaign's oracle search takes its extensions from the draws, so the certificate
        # reads nothing the closed forms computed: no name bound to _strategy_columns' result.
        tree = ast.parse(pathlib.Path(noma_mec.experiments.__file__).read_text())
        (campaign,) = (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                       and node.name == "verification_campaign")
        columns = {target.id for node in ast.walk(campaign) if isinstance(node, ast.Assign)
                   and "_strategy_columns" in ast.unparse(node.value)
                   for target in node.targets}
        (search,) = (node for node in ast.walk(campaign) if isinstance(node, ast.Call)
                     and ast.unparse(node.func) == "oracle_batch")
        assert columns
        assert not {node.id for node in ast.walk(search) if isinstance(node, ast.Name)} & columns

    @pytest.mark.parametrize("module", [noma_mec.closed_form, noma_mec.oracle])
    def test_power_rules_written_only_in_model(self, module):
        # The powers that carry given log-rates, and their saturation, are model's rules: the
        # closed forms and the oracle call them and take no expm1 from an operations table.
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        calls = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "expm1"
                 and ast.unparse(node.func.value) in {"ops", "_SCALAR", "_EXACT", "_NUMPY"}]
        assert not calls


class TestConcurrentDeterminism:
    def test_parallel_oracle_matches_sequential(self):
        # Everything is pure; a thread pool must reproduce the sequential
        # results bit for bit.
        from concurrent.futures import ThreadPoolExecutor

        scenarios = [
            validate_scenario(1.0 + 2.0 * k, 10.0 + k, 12.0 + 1.5 * k) for k in range(12)
        ]
        jobs = [(s, 0.5 * (s.d_n - s.d_m)) for s in scenarios]
        sequential = [_one_lane(s, t) for s, t in jobs]
        with ThreadPoolExecutor(max_workers=6) as pool:
            parallel = list(pool.map(lambda job: _one_lane(*job), jobs))
        assert parallel == sequential


class TestEnergySurface:
    def test_reference_surface_locates_the_optimum(self):
        grid = energy_surface(ANCHOR, 5.0)
        assert grid.p1_axis.size == 200 and grid.p2_axis.size == 200
        star1, star2 = hybrid_powers(ANCHOR, 5.0)
        i, j = grid.feasible_argmin()
        cell1 = grid.p1_axis[1] - grid.p1_axis[0]
        cell2 = grid.p2_axis[1] - grid.p2_axis[0]
        assert abs(grid.p1_axis[i] - star1) <= cell1 * (1.0 + 1e-9)
        assert abs(grid.p2_axis[j] - star2) <= cell2 * (1.0 + 1e-9)
        assert grid.energy[i, j] == pytest.approx(hybrid_energy(ANCHOR, 5.0), rel=1e-9)

    def test_origin_in_grid_and_infeasible(self):
        grid = energy_surface(ANCHOR, 5.0, resolution=50)
        assert grid.p1_axis[0] == 0.0 and grid.p2_axis[0] == 0.0
        assert not grid.feasible[0, 0]

    @given(hybrid_scenarios(), st.floats(min_value=1e-3, max_value=1.0),
           st.sampled_from([{}, {"p1_max": 3.0, "p2_max": 5.0}]))
    @example(ANCHOR, 1.0, {})
    @example(validate_scenario(400.0, 1.0, 1.5), 1.0, {})
    @example(validate_scenario(600.0, 1.0, 1.5), 0.5, {"p1_max": 3.0, "p2_max": 5.0})
    @example(validate_scenario(1e308, 1e-10, 1.5e-10), 1.0, {"p1_max": 3.0, "p2_max": 5.0})
    @settings(max_examples=50, deadline=None)
    def test_energy_matrix_matches_objective(self, s, frac, ranges):
        t_n = frac * min(s.d_n - s.d_m, s.d_m)   # the capped extension
        grid = energy_surface(s, t_n, resolution=40, **ranges)
        expected = s.d_m * grid.p1_axis[:, None] + t_n * grid.p2_axis[None, :]
        assert np.array_equal(grid.energy, expected)

    @pytest.mark.parametrize("s,t_n,ranges", [
        (ANCHOR, 5.0, {"p1_max": 1e308, "p2_max": 1e308}),
        (validate_scenario(15.0, 1e300, 1.25e300), 2.5e299, {"p1_max": 1e10, "p2_max": 1.0}),
        # Default ranges: twice finite closed-form powers, whose energies still overflow.
        (validate_scenario(3.48e128, 6.59e289, 6.59e289 * (1.0 + 1e-9), 1.0, 4.1e-218),
         1.6475e289, {}),
    ])
    def test_overflowing_cells_are_inf_without_warning(self, s, t_n, ranges):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = energy_surface(s, t_n, resolution=3, **ranges)
        assert np.isinf(grid.energy).any() and not np.isnan(grid.energy).any()
        assert grid.energy[0, 0] == 0.0 and grid.feasible.any()

    def test_infeasible_cells_fall_short_of_task(self):
        grid = energy_surface(ANCHOR, 5.0, resolution=60)
        for i in range(0, 60, 7):
            for j in range(0, 60, 7):
                if not grid.feasible[i, j]:
                    schedule = PowerSchedule(
                        float(grid.p1_axis[i]), float(grid.p2_axis[j]), 5.0
                    )
                    assert offloaded_nats(ANCHOR, schedule) < ANCHOR.nats

    @pytest.mark.parametrize("resolution", [4, 200])
    def test_default_ranges_at_full_extension(self, resolution):
        # The closed-form p_n1 is exactly 0 at t_n == d_m, so p1 spans twice the pure-NOMA power.
        grid = energy_surface(ANCHOR, ANCHOR.d_m, resolution=resolution)
        assert grid.p1_axis[1] == 2.0 * hybrid_powers(ANCHOR, 0.0)[0] / resolution
        assert grid.p2_axis[1] == 2.0 * hybrid_powers(ANCHOR, ANCHOR.d_m)[1] / resolution > 0.0
        assert grid.feasible_argmin() == (0, resolution // 2)

    @pytest.mark.parametrize("resolution", [4, 200])
    def test_default_ranges_past_the_shared_slot(self, resolution):
        # Past d_m the optimum is OMA over t_n: p_n1 = 0, so p1 spans twice the pure-NOMA power,
        # and p2 twice the solo power of nats/t_n, which puts the optimum on the lattice.
        rng = np.random.default_rng(resolution)
        for nats, d_m, stretch, h_n_sq in rng.uniform((1.0, 1.0, 1.0, 0.1), (40.0, 50.0, 3.0, 10.0),
                                                      size=(100, 4)):
            t_n = d_m * stretch
            s = validate_scenario(nats, d_m, d_m + t_n, 1.0, h_n_sq)
            grid = energy_surface(s, t_n, resolution=resolution)
            p_n2 = math.expm1(nats / t_n) / h_n_sq
            assert grid.p1_axis[1] == 2.0 * hybrid_powers(s, 0.0)[0] / resolution
            assert grid.p2_axis[1] == 2.0 * p_n2 / resolution
            assert grid.feasible_argmin() == (0, resolution // 2)
            assert grid.p2_axis[resolution // 2] == pytest.approx(p_n2, rel=1e-15, abs=0.0)
            assert _one_lane(s, t_n)[2] == pytest.approx(oma_energy_n(s, t_n), rel=1e-12, abs=0.0)

    def test_explicit_ranges(self):
        grid = energy_surface(ANCHOR, 5.0, p1_max=3.0, p2_max=6.0, resolution=30)
        assert grid.p1_axis.max() < 3.0
        assert grid.p2_axis.max() < 6.0
        assert grid.feasible.any()

    def test_preconditions(self):
        with pytest.raises(NomaMecError, match=r"^resolution must lie in \[2, 1000\], got 1$"):
            energy_surface(ANCHOR, 5.0, resolution=1)
        with pytest.raises(NomaMecError, match=r"^t_n must lie in \(0, inf\), got 0\.0$"):
            energy_surface(ANCHOR, 0.0)
        with pytest.raises(NomaMecError, match=r"^t_n must lie in \(0, inf\), got inf$"):
            energy_surface(ANCHOR, math.inf, p1_max=3.0, p2_max=5.0)
        for ranges in (dict(p1_max=math.inf), dict(p2_max=math.inf), dict(p1_max=math.nan)):
            ((name, value),) = ranges.items()
            message = rf"^{name} must lie in \(0, inf\), got {value}$"
            with pytest.raises(NomaMecError, match=message):
                energy_surface(ANCHOR, 5.0, resolution=3, **ranges)
        # t_n == d_m, saturated pure-NOMA power
        with pytest.raises(NomaMecError, match=r"^p1_max must lie in \(0, inf\), got inf$"):
            energy_surface(validate_scenario(400.0, 1.0, 1.5), 1.0, resolution=3)

    def test_all_infeasible_surface_has_no_argmin(self):
        grid = energy_surface(ANCHOR, 5.0, p1_max=1e-6, p2_max=1e-6, resolution=10)
        assert grid.feasible_argmin() is None
