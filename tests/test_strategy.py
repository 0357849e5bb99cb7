import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import any_scenarios, hybrid_scenarios, identity_corpus
from noma_mec import (
    NomaMecError,
    Regime,
    StrategyKind,
    classify_regime,
    deadline_sweep,
    hybrid_energy,
    noma_oma_gap,
    oma_energy_n,
    select_strategy,
    validate_scenario,
)
import noma_mec.strategy
from noma_mec.model import _EXACT, _SCALAR
from noma_mec.strategy import _REGIMES, _strategy_columns

ANCHOR = validate_scenario(15.0, 20.0, 25.0)


def paper_normalized_gap(s, x):
    """The paper's gain-free NOMA/OMA gap over an interval of length x, evaluated directly."""
    return ((s.d_m + x) * math.exp(2.0 * s.nats / (s.d_m + x))
            - s.d_m * math.exp(s.nats / s.d_m) - x * math.exp(s.nats / x))


class TestRegime:
    @pytest.mark.parametrize(
        "d_n,expected",
        [
            (20.0, Regime.DEGENERATE),
            (25.0, Regime.HYBRID),
            (39.999, Regime.HYBRID),
            (math.nextafter(40.0, 0.0), Regime.HYBRID),   # one ulp below the 2 d_m threshold
            (40.0, Regime.BOUNDARY),
            (50.0, Regime.OMA_FAVORED),
        ],
    )
    def test_classification(self, d_n, expected):
        assert classify_regime(validate_scenario(15.0, 20.0, d_n)) == expected


class TestSelectStrategy:
    def test_hybrid_regime(self):
        table = select_strategy(ANCHOR)
        assert table.regime == Regime.HYBRID
        assert table.selected == StrategyKind.HYBRID_NOMA
        assert table.hybrid.energy == pytest.approx(35.66291, abs=1e-4)
        assert table.pure_noma.energy == pytest.approx(47.29378, abs=1e-4)
        assert table.oma.energy == pytest.approx(95.42768, abs=1e-4)
        assert all(r.feasible for r in (table.hybrid, table.pure_noma, table.oma))

    def test_hybrid_row_matches_closed_form_exactly(self):
        table = select_strategy(ANCHOR)
        assert table.hybrid.energy == hybrid_energy(ANCHOR, 5.0)
        assert table.hybrid.energy == table.hybrid.phase1_energy + table.hybrid.phase2_energy

    def test_degenerate_equal_deadlines(self):
        s = validate_scenario(15.0, 20.0, 20.0)
        table = select_strategy(s)
        assert table.regime == Regime.DEGENERATE
        assert table.selected == StrategyKind.HYBRID_NOMA
        # The hybrid split collapses onto pure NOMA.
        assert table.hybrid.energy == table.pure_noma.energy
        assert table.oma.feasible is False
        assert table.oma.energy == math.inf
        assert table.oma.normalized_energy == math.inf

    def test_relaxed_deadline_prefers_oma(self):
        s = validate_scenario(15.0, 20.0, 50.0)
        table = select_strategy(s)
        assert table.regime == Regime.OMA_FAVORED
        assert table.selected == StrategyKind.OMA
        assert table.oma.energy == pytest.approx(19.46164, abs=1e-4)
        assert table.oma.energy < table.pure_noma.energy
        # Hybrid is reported at its capped extension d_m, i.e. at its infimum.
        assert table.hybrid.energy == pytest.approx(oma_energy_n(s, s.d_m), rel=1e-12)
        assert table.oma.energy <= table.hybrid.energy

    def test_boundary_tie_goes_to_oma(self):
        s = validate_scenario(15.0, 20.0, 40.0)
        table = select_strategy(s)
        assert table.regime == Regime.BOUNDARY
        assert table.selected == StrategyKind.OMA
        assert table.oma.energy == table.hybrid.energy

    def test_normalized_energy_is_gain_free(self):
        lo = select_strategy(validate_scenario(15.0, 20.0, 25.0, h_n_sq=0.5))
        hi = select_strategy(validate_scenario(15.0, 20.0, 25.0, h_n_sq=2.0))
        assert lo.hybrid.normalized_energy == pytest.approx(
            hi.hybrid.normalized_energy, rel=1e-12
        )

    @settings(max_examples=80)
    @given(s=hybrid_scenarios())
    def test_hybrid_dominates_in_regime(self, s):
        table = select_strategy(s)
        assert table.selected == StrategyKind.HYBRID_NOMA
        assert table.hybrid.energy <= table.pure_noma.energy + 1e-9
        assert table.hybrid.energy <= table.oma.energy + 1e-9

    @settings(max_examples=80)
    @given(s=any_scenarios())
    def test_selected_minimizes_among_feasible(self, s):
        table = select_strategy(s)
        reports = [table.hybrid, table.pure_noma, table.oma]
        chosen = next(r for r in reports if r.strategy == table.selected)
        best = min(r.energy for r in reports if r.feasible)
        assert chosen.feasible
        assert chosen.energy <= best + 1e-9

    @settings(max_examples=80)
    @given(s=any_scenarios(), scale=st.floats(0.125, 8.0))
    def test_selection_invariant_under_gain_scaling(self, s, scale):
        scaled = validate_scenario(s.nats, s.d_m, s.d_n, s.h_m_sq, s.h_n_sq * scale)
        base = select_strategy(s)
        other = select_strategy(scaled)
        assert base.selected == other.selected
        if math.isfinite(base.oma.energy):
            assert other.oma.energy == pytest.approx(base.oma.energy / scale, rel=1e-12)
        assert other.hybrid.energy == pytest.approx(base.hybrid.energy / scale, rel=1e-12)


class TestGap:
    def test_zero_at_full_extension(self):
        assert abs(noma_oma_gap(ANCHOR, 20.0)) <= 1e-9

    def test_reference_point(self):
        # 35.662923 - 95.427685, both pinned by the closed-form tests.
        assert noma_oma_gap(ANCHOR, 5.0) == pytest.approx(-59.764762, abs=1e-4)

    def test_matches_normalized_gap(self):
        s = validate_scenario(15.0, 20.0, 25.0, h_n_sq=3.0)
        for x in (2.0, 10.0, 19.0):
            assert noma_oma_gap(s, x) == pytest.approx(
                paper_normalized_gap(s, x) / s.h_n_sq, rel=1e-9
            )

    def test_midpoint_value(self):
        assert noma_oma_gap(ANCHOR, 10.0) == pytest.approx(-5.608436, abs=1e-5)

    def test_out_of_range(self):
        with pytest.raises(NomaMecError, match=r"^t_n must lie in \(0, 20\.0\], got 0\.0$"):
            noma_oma_gap(ANCHOR, 0.0)
        with pytest.raises(NomaMecError, match=r"^t_n must lie in \(0, 20\.0\], got 20\.5$"):
            noma_oma_gap(ANCHOR, 20.5)

    def test_divergence_at_tiny_extension(self):
        assert noma_oma_gap(ANCHOR, 1e-3) == -math.inf

    @settings(max_examples=80)
    @given(s=hybrid_scenarios(), frac=st.floats(1e-6, 1.0))
    def test_never_positive(self, s, frac):
        assert noma_oma_gap(s, frac * s.d_m) <= 1e-9


class TestNormalizedGap:
    """The gain-free gap ``h_n_sq * noma_oma_gap``."""

    def normalized_gap(self, s, x):
        return s.h_n_sq * noma_oma_gap(s, x)

    def test_zero_at_shared_slot_length(self):
        assert self.normalized_gap(ANCHOR, 20.0) == 0.0

    def test_reference_point(self):
        # 30 e - 20 e^0.75 - 10 e^1.5, evaluated directly.
        expected = 30.0 * math.e - 20.0 * math.exp(0.75) - 10.0 * math.exp(1.5)
        assert self.normalized_gap(ANCHOR, 10.0) == pytest.approx(expected, rel=1e-12)
        assert self.normalized_gap(ANCHOR, 10.0) == pytest.approx(-5.608436, abs=1e-5)
        assert self.normalized_gap(ANCHOR, 10.0) < 0.0

    def test_monotone_non_decreasing_below_d_m(self):
        values = [self.normalized_gap(ANCHOR, x) for x in (5.0, 10.0, 15.0)]
        assert values[0] <= values[1] <= values[2] <= 0.0

    def test_diverges_to_minus_inf(self):
        assert self.normalized_gap(ANCHOR, 1e-4) == -math.inf

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0):
            with pytest.raises(NomaMecError, match=rf"^t_n must lie in \(0, 20\.0\], got {x}$"):
                self.normalized_gap(ANCHOR, x)


class TestHybridLowerBound:
    def test_reference_value(self):
        assert oma_energy_n(ANCHOR, ANCHOR.d_m) == pytest.approx(22.34000, abs=1e-4)

    def test_gain_scaling(self):
        s = validate_scenario(15.0, 20.0, 25.0, h_n_sq=2.0)
        assert oma_energy_n(s, s.d_m) == pytest.approx(11.17000, abs=1e-4)

    def test_equals_oma_at_shared_slot_length(self):
        assert hybrid_energy(ANCHOR, ANCHOR.d_m) == oma_energy_n(ANCHOR, 20.0)
        corpus = identity_corpus()
        assert {classify_regime(s) for s in corpus} == set(Regime)
        assert any(oma_energy_n(s, s.d_m) == math.inf for s in corpus)
        for s in corpus:
            assert hybrid_energy(s, s.d_m) == oma_energy_n(s, s.d_m)

    @settings(max_examples=80)
    @given(s=hybrid_scenarios(), frac=st.floats(0.0, 1.0))
    def test_bounds_hybrid_energy(self, s, frac):
        assert hybrid_energy(s, frac * s.d_m) >= oma_energy_n(s, s.d_m) - 1e-12

    def test_attained_by_sweep_row_just_below_shared_slot_length(self):
        # A 161-point sweep over [d_m, 3 d_m] puts its midpoint a few ulp below 2 d_m.
        d_m = 49.824226555571094
        sweep = deadline_sweep(30.983336987743208, d_m, d_m, 3.0 * d_m, 161,
                               1.2491148082183643, 5.095538934289587)
        d_n, t_n = sweep.d_n[80], sweep.t_n_star[80]
        s = validate_scenario(30.983336987743208, d_m, d_n, h_n_sq=5.095538934289587)
        assert 0.0 < d_m - t_n <= 4 * math.ulp(d_m)
        assert sweep.e_hybrid[80] == hybrid_energy(s, t_n) == oma_energy_n(s, d_m)
        assert select_strategy(s).hybrid.energy == oma_energy_n(s, d_m)


class TestExactTieAtSharedSlotLength:
    """Hybrid at ``t_n == d_m`` is OMA over ``d_m``: both are ``d_m`` times the same solo
    power, so the paper's switching point ``d_n == 2 d_m`` is a tie bit for bit."""

    @settings(max_examples=200)
    @given(s=any_scenarios())
    def test_hybrid_oma_and_bound_coincide(self, s):
        assert hybrid_energy(s, s.d_m) == oma_energy_n(s, s.d_m)

    @settings(max_examples=200)
    @given(s=any_scenarios())
    def test_gap_is_zero(self, s):
        assert noma_oma_gap(s, s.d_m) == 0.0

    @settings(max_examples=200)
    @given(s=any_scenarios())
    def test_boundary_table_ties(self, s):
        table = select_strategy(validate_scenario(s.nats, s.d_m, 2.0 * s.d_m, s.h_m_sq, s.h_n_sq))
        assert table.selected == StrategyKind.OMA
        assert table.oma.energy == table.hybrid.energy


class TestSaturatedScenarios:
    # Exponents beyond the cutoff drive every plain energy to inf; comparisons
    # must then fall back to the log domain instead of producing NaN.
    HUGE = validate_scenario(nats=8000.0, d_m=10.0, d_n=15.0)

    def test_gap_sign_decided_in_log_domain(self):
        assert hybrid_energy(self.HUGE, 5.0) == math.inf
        assert oma_energy_n(self.HUGE, 5.0) == math.inf
        assert noma_oma_gap(self.HUGE, 5.0) == -math.inf
        assert noma_oma_gap(self.HUGE, 10.0) == 0.0

    def test_normalized_gap_saturates(self):
        # A non-unit gain shifts both log energies alike and cannot flip the sign.
        s = validate_scenario(self.HUGE.nats, self.HUGE.d_m, self.HUGE.d_n, h_n_sq=4.0)
        assert s.h_n_sq * noma_oma_gap(s, 5.0) == -math.inf
        assert s.h_n_sq * noma_oma_gap(s, 10.0) == 0.0

    def test_selection_still_regime_driven(self):
        table = select_strategy(self.HUGE)
        assert table.selected == StrategyKind.HYBRID_NOMA
        assert table.hybrid.energy == math.inf


class TestOmaRegimeComparisons:
    @settings(max_examples=80)
    @given(s=any_scenarios())
    def test_oma_beats_everything_beyond_double_deadline(self, s):
        if s.d_n < 2.0 * s.d_m:
            return
        slot = s.d_n - s.d_m
        e_oma = oma_energy_n(s, slot)
        assert e_oma <= select_strategy(s).pure_noma.energy + 1e-9
        assert e_oma <= oma_energy_n(s, s.d_m) + 1e-9


def _corpus_fields(corpus):
    """The ``(nats, d_m, d_n, h_n_sq)`` arrays ``_strategy_columns`` takes, one element each."""
    return [np.array([getattr(s, name) for s in corpus]) for name in ("nats", "d_m", "d_n", "h_n_sq")]


class TestStrategyColumns:
    @pytest.mark.parametrize("ops, fields", [
        (_SCALAR, (ANCHOR.nats, ANCHOR.d_m, ANCHOR.d_n, ANCHOR.h_n_sq)),
        (_EXACT, _corpus_fields(identity_corpus())),
    ], ids=["scalar", "exact arrays"])
    def test_each_exponential_once(self, monkeypatch, ops, fields):
        # One exp(nats/d_m), shared by hybrid and pure NOMA, and one expm1 per power: the
        # hybrid's two, pure NOMA's and OMA's. One pass per call, over every element.
        calls = collections.Counter()

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        ops = ops._replace(exp=counted("exp", ops.exp), expm1=counted("expm1", ops.expm1))
        monkeypatch.setattr(noma_mec.strategy, "_log_rates",
                            counted("_log_rates", noma_mec.strategy._log_rates))
        with np.errstate(all="ignore"):
            _strategy_columns(ops, *fields)
        assert calls == {"exp": 1, "expm1": 4, "_log_rates": 1}

    def test_array_fields_equal_select_strategy_bit_for_bit(self):
        # Every field an array, as the campaign passes them: each column element is the
        # scenario's own select_strategy value, in every regime and on the saturated rows.
        corpus = identity_corpus()
        with np.errstate(all="ignore"):
            c = _strategy_columns(_EXACT, *_corpus_fields(corpus))
        tables = [select_strategy(s) for s in corpus]
        assert {t.regime for t in tables} == set(Regime)
        assert np.isinf(c.e_hybrid).any() and np.isinf(c.e_pure).any()
        want = {
            "t_star": [t.t_star for t in tables],
            "p_n1": [t.p_n1_star for t in tables],
            "p_n2": [t.p_n2_star for t in tables],
            "hybrid_phase1": [t.hybrid.phase1_energy for t in tables],
            "hybrid_phase2": [t.hybrid.phase2_energy for t in tables],
            "e_hybrid": [t.hybrid.energy for t in tables],
            "e_pure": [t.pure_noma.energy for t in tables],
            "e_oma": [t.oma.energy for t in tables],
        }
        for name, values in want.items():
            assert getattr(c, name).tobytes() == np.array(values).tobytes(), name
        assert c.oma_feasible.tolist() == [t.oma.feasible for t in tables]
        assert [_REGIMES[k] for k in c.regime] == [t.regime for t in tables]
        assert c.selected.tolist() == [t.selected for t in tables]

    def test_pure_noma_rate_is_nats_over_d_m_itself(self):
        # nats/d_m = 3.3e-321 is subnormal, so nats/(d_m/2) is not exactly twice it, and
        # that quotient less nats/d_m is an ulp off nats/d_m. Pure NOMA carries nats/d_m itself
        # and stays at or above the hybrid energy; the difference would give 9.99e-321, below it.
        table = select_strategy(validate_scenario(1e-320, 3.0, 4.5))
        assert table.pure_noma.energy == 1.0005e-320 >= table.hybrid.energy
