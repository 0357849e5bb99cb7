import dataclasses
import inspect
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noma_mec import (
    NomaMecError,
    PowerSchedule,
    StrategyKind,
    deadline_sweep,
    energy_derivative,
    energy_surface,
    hybrid_energy,
    hybrid_powers,
    kkt_log_vars,
    log_hybrid_energy,
    offloaded_nats,
    oma_energy_n,
    oma_power_m,
    render_campaign_summary,
    render_surface_csv,
    render_sweep_csv,
    schedule_energy,
    select_strategy,
    validate_scenario,
    verification_campaign,
    __version__,
)
from conftest import numpy_exp_is_pinned
from noma_mec.cli import run
from noma_mec.experiments import (
    _CAMPAIGN_HIGHS,
    _CAMPAIGN_LOWS,
    _CHUNK_ROWS,
    SWEEP_COLUMNS,
    SURFACE_COLUMNS,
    DeadlineSweep,
    SweepRow,
    _run_cells,
)
from noma_mec.model import _MAX_ROWS, _SCALAR
from noma_mec.oracle import _split_powers

ANCHOR = validate_scenario(15.0, 20.0, 25.0)


def reference_sweep():
    return deadline_sweep(15.0, 20.0, 20.0, 40.0, 21)


class TestDeadlineSweep:
    def test_shape_and_order(self):
        rows = reference_sweep()
        assert len(rows) == 21
        deadlines = [r.d_n for r in rows]
        assert deadlines == sorted(deadlines)
        assert deadlines[0] == 20.0 and deadlines[-1] == 40.0

    def test_reference_row(self):
        row = reference_sweep()[5]
        assert row.d_n == 25.0
        assert row.e_hybrid == pytest.approx(35.66291, abs=1e-4)
        assert row.e_oma == pytest.approx(95.42768, abs=1e-4)
        assert row.t_n_star == 5.0
        assert row.selected == StrategyKind.HYBRID_NOMA

    def test_boundary_row_curves_meet(self):
        row = reference_sweep()[-1]
        assert row.d_n == 40.0
        assert row.e_hybrid == pytest.approx(row.e_oma, rel=1e-6)
        assert row.e_hybrid == pytest.approx(22.34000, abs=1e-4)
        assert row.selected == StrategyKind.OMA
        assert row.p1_star == 0.0

    def test_degenerate_row_has_infinite_oma(self):
        row = reference_sweep()[0]
        assert row.d_n == 20.0
        assert row.e_oma == math.inf
        assert row.e_hybrid == pytest.approx(row.e_pure, rel=1e-12)

    def test_shared_power_monotone(self):
        rows = reference_sweep()
        p1 = [r.p1_star for r in rows]
        assert all(a >= b for a, b in zip(p1, p1[1:]))

    def test_hybrid_energy_monotone_and_dominant(self):
        rows = reference_sweep()
        e = [r.e_hybrid for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(e, e[1:]))
        for r in rows:
            assert r.e_hybrid <= r.e_pure + 1e-9
            assert r.e_hybrid <= r.e_oma + 1e-9

    def test_row_consistent_with_closed_forms(self):
        for row in reference_sweep():
            s = validate_scenario(15.0, 20.0, row.d_n)
            assert row.e_hybrid == hybrid_energy(s, row.t_n_star)
            p1, p2 = hybrid_powers(s, row.t_n_star)
            assert row.p1_star == p1 and row.p2_star == p2

    def test_relaxed_rows_select_oma(self):
        rows = deadline_sweep(15.0, 20.0, 20.0, 60.0, 21)
        for row in rows:
            if row.d_n >= 40.0:
                assert row.selected == StrategyKind.OMA
                assert row.e_oma <= row.e_pure + 1e-9
            else:
                assert row.selected == StrategyKind.HYBRID_NOMA

    def test_preconditions(self):
        with pytest.raises(NomaMecError, match=r"^steps must lie in \[2, 1000000\], got 1$"):
            deadline_sweep(15.0, 20.0, 20.0, 40.0, 1)
        with pytest.raises(NomaMecError, match=r"^need d_m <= d_n_from < d_n_to, got d_m=20\.0,"
                                              r" from=19\.0, to=40\.0$"):
            deadline_sweep(15.0, 20.0, 19.0, 40.0, 5)
        with pytest.raises(NomaMecError, match=r"^need d_m <= d_n_from < d_n_to, got d_m=20\.0,"
                                              r" from=30\.0, to=30\.0$"):
            deadline_sweep(15.0, 20.0, 30.0, 30.0, 5)

    @pytest.mark.parametrize("d_m", [0.0, math.inf, math.nan])
    def test_bad_d_m_is_named_before_the_order_check(self, d_m):
        # The CLI's default range is [d_m, 2 d_m], which a bad d_m also breaks.
        with pytest.raises(NomaMecError, match="d_m must be a positive finite number"):
            deadline_sweep(15.0, d_m, d_m, 2.0 * d_m, 5)

    def test_infinite_upper_bound_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NomaMecError, match="d_n_to must be finite, got inf"):
                deadline_sweep(15.0, 20.0, 20.0, math.inf, 5)


def reference_powers(s, t_n):
    """Straight-line scalar transcription of the hybrid power closed form."""
    rate_dm = s.nats / s.d_m
    y2 = 2.0 * s.nats / (s.d_m + t_n)
    y1 = y2 - rate_dm
    if y1 == 0.0:
        p_n1 = 0.0
    elif rate_dm + y1 > 700.0:
        p_n1 = math.inf
    else:
        p_n1 = math.exp(rate_dm) * math.expm1(y1) / s.h_n_sq
    p_n2 = math.inf if y2 > 700.0 else math.expm1(y2) / s.h_n_sq
    return p_n1, p_n2


def reference_oma_energy(s, slot):
    rate = s.nats / slot
    return math.inf if rate > 700.0 else slot * (math.expm1(rate) / s.h_n_sq)


# Rates nats / d_m both moderate and in (350, 700], where the pure-NOMA
# exponent 2 nats / d_m saturates while the hybrid and OMA ones need not.
rates = st.one_of(st.floats(0.05, 5.0), st.floats(350.0, 700.0, exclude_min=True))
sweep_ends = st.one_of(st.just(2.0), st.floats(1.001, 4.0))   # d_n_to / d_m


def assert_renders_as_reference(rows, nats=15.0, d_m=20.0, h_m_sq=1.0, h_n_sq=1.0):
    """``render_sweep_csv`` equals the CSV written out row by row, each cell formatted on its
    own, below a header of the given scenario values."""
    lines = [f"# nats={nats!r}", f"# d_m={d_m!r}", f"# h_m_sq={h_m_sq!r}",
             f"# h_n_sq={h_n_sq!r}", f"# tool=noma-mec {__version__}", SWEEP_COLUMNS]
    lines += [",".join(map(repr, row[:7])) + "," + row.selected.value for row in rows]
    text = render_sweep_csv(rows)
    rendered = text.split("\n")
    assert len(rendered) == len(lines) + 1 and rendered[-1] == ""
    # Line by line, so that a failure names its line without a diff of thousands of them.
    for k, (line, expected) in enumerate(zip(rendered, lines)):
        assert line == expected, k
    return text


def hand_built_sweep(*float_columns, selected=None):
    """A ``DeadlineSweep`` of the scenario ``(15, 20, 20)`` whose last float columns are given;
    the leading ones count rows."""
    steps = len(float_columns[-1])
    counter = [float(i) for i in range(steps)]
    kinds = selected or [StrategyKind.HYBRID_NOMA] * steps
    scenario = validate_scenario(15.0, 20.0, 20.0)
    return DeadlineSweep(*[counter] * (7 - len(float_columns)), *float_columns, kinds, scenario)


class TestSweepColumns:
    """``deadline_sweep`` returns columns; ``len``, indexing and iteration give namedtuple rows."""

    def test_row_access(self):
        rows = reference_sweep()
        assert len(rows) == 21 == len(rows.e_hybrid)
        listed = list(rows)
        assert rows[0] == listed[0] and rows[-1] == listed[-1] == rows[20]
        for row in [rows[0], rows[-1], *rows]:
            assert row._fields == tuple(SWEEP_COLUMNS.split(","))
            assert all(type(v) is float for v in row[:7])
            assert type(row.selected) is StrategyKind
        assert [row.e_oma for row in rows] == rows.e_oma
        assert list(rows[1:3]) == listed[1:3] and list(rows[::-1]) == listed[::-1]
        assert pickle.loads(pickle.dumps(rows)) == rows
        assert pickle.loads(pickle.dumps(rows[5])) == rows[5]

    def test_columns_are_frozen(self):
        rows = reference_sweep()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows.e_hybrid = []

    @settings(max_examples=60, deadline=None)
    @given(rate=rates, d_m=st.floats(0.5, 50.0), end=sweep_ends,
           steps=st.integers(2, 40), h_m_sq=st.floats(0.1, 10.0), h_n_sq=st.floats(0.1, 10.0))
    def test_csv_equals_reference_rendering(self, rate, d_m, end, steps, h_m_sq, h_n_sq):
        nats = rate * d_m
        rows = deadline_sweep(nats, d_m, d_m, end * d_m, steps, h_m_sq, h_n_sq)
        assert_renders_as_reference(rows, nats, d_m, h_m_sq, h_n_sq)


class TestViewsAgree:
    """The sweep (arrays), ``select_strategy`` and the scalar closed forms give the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(rate=rates, d_m=st.floats(0.5, 50.0), end=sweep_ends,
           steps=st.integers(2, 40), h_m_sq=st.floats(0.1, 10.0), h_n_sq=st.floats(0.1, 10.0))
    def test_sweep_rows_equal_scalar_views(self, rate, d_m, end, steps, h_m_sq, h_n_sq):
        nats = rate * d_m
        rows = deadline_sweep(nats, d_m, d_m, end * d_m, steps, h_m_sq, h_n_sq)
        assert rows[0].d_n == d_m                          # d_n == d_m
        if end == 2.0:
            assert rows[-1].d_n == 2.0 * d_m               # d_n == 2 d_m
        for row in rows:
            s = validate_scenario(nats, d_m, row.d_n, h_m_sq, h_n_sq)
            table = select_strategy(s)
            values = (row.e_hybrid, row.e_pure, row.e_oma, row.p1_star, row.p2_star, row.t_n_star)
            assert values == (table.hybrid.energy, table.pure_noma.energy, table.oma.energy,
                              table.p_n1_star, table.p_n2_star, table.t_star)
            assert row.selected == table.selected
            assert all(type(v) is float for v in (row.d_n,) + values)
            t_n = row.t_n_star
            assert hybrid_powers(s, t_n) == reference_powers(s, t_n) == (row.p1_star, row.p2_star)
            assert hybrid_energy(s, t_n) == row.e_hybrid
            assert hybrid_energy(s, 0.0) == row.e_pure
            assert hybrid_powers(s, 0.0)[0] == reference_powers(s, 0.0)[0]
            slot = row.d_n - d_m
            expected_oma = reference_oma_energy(s, slot) if slot > 0.0 else math.inf
            assert oma_energy_n(s, slot) == expected_oma == row.e_oma

    @settings(max_examples=60, deadline=None)
    @given(rate=rates, d_m=st.floats(0.5, 50.0), ratio=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
           frac=st.floats(0.0, 1.0), h_m_sq=st.floats(0.1, 10.0), h_n_sq=st.floats(0.1, 10.0))
    def test_scalar_views_return_floats_without_warnings(self, rate, d_m, ratio, frac, h_m_sq, h_n_sq):
        s = validate_scenario(rate * d_m, d_m, ratio * d_m, h_m_sq, h_n_sq)
        t_n = frac * d_m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = select_strategy(s)
            values = [table.t_star, table.p_n1_star, table.p_n2_star]
            for report in (table.hybrid, table.pure_noma, table.oma):
                values += [report.energy, report.phase1_energy, report.phase2_energy,
                           report.normalized_energy]
            values += [*hybrid_powers(s, t_n), hybrid_energy(s, t_n), hybrid_powers(s, 0.0)[0],
                       oma_energy_n(s, s.d_n - s.d_m), oma_energy_n(s, t_n)]
            split = PowerSchedule(*_split_powers(_SCALAR, frac, s.nats, s.d_m, s.h_n_sq, d_m),
                                  t_n=d_m)
            values += [split.p_n1, split.p_n2, schedule_energy(s, split), offloaded_nats(s, split),
                       *kkt_log_vars(s, t_n), oma_power_m(s),
                       energy_derivative(s, t_n)]
        assert all(type(v) is float for v in values)

    def test_overflowing_rates_fail_closed_in_every_view(self):
        # nats / d_m and y2 overflow to inf, so y1 = inf - inf is NaN.
        s = validate_scenario(1e308, 1e-10, 1.5e-10)
        views = (lambda: select_strategy(s), lambda: hybrid_powers(s, 0.5e-10),
                 lambda: deadline_sweep(1e308, 1e-10, 1e-10, 3e-10, 5),
                 lambda: kkt_log_vars(s, 0.5e-10), lambda: energy_derivative(s, 0.5e-10),
                 lambda: log_hybrid_energy(s, 0.5e-10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for view in views:
                with pytest.raises(NomaMecError, match=r"got \(nan, inf\)"):
                    view()


class TestSweepCsv:
    def test_layout(self):
        text = render_sweep_csv(reference_sweep())
        lines = text.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert "# nats=15.0" in meta
        assert "# d_m=20.0" in meta
        assert "# h_m_sq=1.0" in meta and "# h_n_sq=1.0" in meta
        assert any(ln.startswith("# tool=noma-mec ") for ln in meta)
        header_idx = lines.index(SWEEP_COLUMNS)
        assert header_idx == len(meta)
        assert len(lines) == len(meta) + 1 + 21

    def test_inf_token_and_roundtrip(self):
        rows = reference_sweep()
        text = render_sweep_csv(rows)
        data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
        first = data_lines[0].split(",")
        assert first[3] == "inf"
        # Every numeric field round-trips to the exact float that produced it.
        for line, row in zip(data_lines, rows):
            fields = line.split(",")
            assert float(fields[0]) == row.d_n
            assert float(fields[1]) == row.e_hybrid
            assert float(fields[3]) == row.e_oma
            assert float(fields[4]) == row.p1_star
            assert fields[7] == row.selected.value

    def test_byte_identical_rerun(self):
        a = render_sweep_csv(reference_sweep())
        b = render_sweep_csv(reference_sweep())
        assert a == b


class TestSweepCsvRuns:
    """Each run of equal values is formatted once; the text equals a cell-by-cell rendering."""

    @pytest.mark.parametrize("column", [
        [0.0, -0.0, -0.0, 0.0, 0.0],
        [-0.0, 0.0, 0.0, -0.0, -0.0],
        [1.5, 1.5, 0.0, -0.0, 1.5, 1.5],
        [math.nan, math.nan, math.nan, 2.0, math.nan],
        [math.inf, math.inf, -math.inf, -math.inf, math.inf, 3.0, 3.0],
        [3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 2.0],
    ])
    def test_hand_built_column_equals_reference(self, column):
        for position in range(7):
            columns = [[1.0] * len(column)] * 7
            columns[position] = column
            rows = hand_built_sweep(*columns)
            assert_renders_as_reference(rows)

    @settings(max_examples=200, deadline=None)
    @given(columns=st.integers(2, 12).flatmap(lambda steps: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 1.5]),
                 min_size=steps, max_size=steps), min_size=7, max_size=7)))
    def test_drawn_runs_equal_reference(self, columns):
        rows = hand_built_sweep(*columns)
        assert_renders_as_reference(rows)

    def test_runs_across_a_chunk_boundary(self):
        steps = _CHUNK_ROWS + 3
        rows = deadline_sweep(15.0, 20.0, 20.0, 60.0, steps)
        assert_renders_as_reference(rows)
        # One run of 1.5 over the boundary, and the zeros of both signs on either side of it.
        zeros = [0.0] * steps
        zeros[_CHUNK_ROWS - 1] = zeros[_CHUNK_ROWS + 1] = -0.0
        kinds = [StrategyKind.HYBRID_NOMA] * _CHUNK_ROWS + [StrategyKind.OMA] * 3
        rows = hand_built_sweep([1.5] * steps, zeros, selected=kinds)
        text = assert_renders_as_reference(rows)
        assert text.splitlines()[-1] == f"{steps - 1}.0," * 5 + "1.5,0.0,oma"

    def test_two_row_sweep(self):
        rows = deadline_sweep(15.0, 20.0, 20.0, 60.0, 2)
        text = assert_renders_as_reference(rows)
        assert [line.split(",")[-1] for line in text.splitlines()[-2:]] == ["hybrid-noma", "oma"]

    def test_each_run_is_formatted_once(self):
        calls = []
        column = [1.0, 1.0, 2.0, 0.0, 0.0, -0.0, math.nan, math.nan, math.inf, math.inf, 1.0]
        cells = _run_cells(column, lambda value: calls.append(value) or repr(value))
        assert cells == [repr(v) for v in column]
        # Once per run, except that every zero and every NaN is formatted on its own.
        assert len(calls) == 9


def surface_csv(resolution):
    return render_surface_csv(energy_surface(ANCHOR, 5.0, resolution=resolution))


def surface_data_lines(resolution):
    lines = surface_csv(resolution).splitlines()
    return lines[lines.index(SURFACE_COLUMNS) + 1:]


def reference_surface_csv(grid, s, t_n):
    """The surface CSV written out sample by sample, each cell formatted on its own."""
    def cell(value):
        return ("true" if value else "false") if isinstance(value, bool) else repr(float(value))

    lines = [f"# {key}={value!r}" for key, value in
             (("nats", s.nats), ("d_m", s.d_m), ("h_m_sq", s.h_m_sq), ("h_n_sq", s.h_n_sq),
              ("t_n", t_n))]
    lines += [f"# tool=noma-mec {__version__}", SURFACE_COLUMNS]
    for i, p1 in enumerate(grid.p1_axis):
        for j, p2 in enumerate(grid.p2_axis):
            lines.append(",".join([cell(p1), cell(p2), cell(grid.energy[i, j]),
                                   cell(bool(grid.feasible[i, j])), "grid"]))
    if t_n <= s.d_m:
        optimum = (*hybrid_powers(s, t_n), hybrid_energy(s, t_n), True)
    else:   # OMA over t_n
        p_n2 = math.expm1(s.nats / t_n) / s.h_n_sq
        optimum = (0.0, p_n2, t_n * p_n2, True)
    lines.append(",".join(cell(v) for v in optimum) + ",optimum")
    return "\n".join(lines) + "\n"


class TestSurfaceExport:
    @pytest.mark.parametrize("resolution, p1_max, p2_max, t_n", [
        (200, None, None, 5.0),
        (2, None, None, 5.0),
        # Hand-picked ranges: the optimum falls between samples and rows turn feasible mid-row.
        (57, 3.0, 5.0, 5.0),
        # Overflowing cells: every sample but the origin renders as inf.
        (2, 1e308, 1e308, 5.0),
        # t_n == d_m: p1's default range is twice the pure-NOMA power, at an odd resolution.
        (7, None, None, 20.0),
        # t_n > d_m: the optimum is OMA over t_n, and p1's range is the one at t_n == d_m.
        (4, None, None, 25.0),
    ], ids=["200-None-None", "2-None-None", "57-3.0-5.0", "2-1e+308-1e+308", "7-None-None-t_n=d_m",
            "4-None-None-t_n>d_m"])
    def test_matches_reference_rendering(self, resolution, p1_max, p2_max, t_n):
        grid = energy_surface(ANCHOR, t_n, p1_max, p2_max, resolution)
        if p1_max is not None:
            assert any(row.any() and not row.all() for row in grid.feasible)
        if p1_max == 1e308:
            assert np.isinf(grid.energy).sum() == grid.energy.size - 1
        rendered = render_surface_csv(grid).splitlines(keepends=True)
        reference = reference_surface_csv(grid, ANCHOR, t_n).splitlines(keepends=True)
        # Name the first differing line: pytest's diff of 40,000 lines would take minutes.
        assert len(rendered) == len(reference)
        for k, (line, expected) in enumerate(zip(rendered, reference)):
            assert line == expected, f"line {k}"

    def test_record_count_and_annotation(self):
        lines = surface_data_lines(20)
        assert len(lines) == 20 * 20 + 1
        star1, star2 = hybrid_powers(ANCHOR, 5.0)
        assert lines[-1] == f"{star1!r},{star2!r},{hybrid_energy(ANCHOR, 5.0)!r},true,optimum"

    def test_reference_annotation_values(self):
        p1, p2, energy, _, _ = surface_data_lines(10)[-1].split(",")
        assert float(p1) == pytest.approx(1.203116, abs=1e-5)
        assert float(p2) == pytest.approx(2.320117, abs=1e-5)
        assert float(energy) == pytest.approx(35.66291, abs=1e-4)

    def test_origin_record_infeasible(self):
        assert surface_data_lines(20)[0] == "0.0,0.0,0.0,false,grid"

    def test_feasibility_slack_at_its_edge(self, monkeypatch):
        # A sample 1e-10 short of the task size lies past FEASIBILITY_SLACK (1e-12) and reads
        # infeasible; one 1e-13 short lies inside it and reads feasible, and so does one exactly
        # at the edge: the mask is closed.
        import noma_mec.experiments as experiments_module

        real = experiments_module._offloaded

        def edge_offloaded(*args):
            offloaded = real(*args)
            offloaded[0, :3] = [(1.0 - 1e-10) * ANCHOR.nats, (1.0 - 1e-13) * ANCHOR.nats,
                                ANCHOR.nats * (1.0 - 1e-12)]
            return offloaded

        monkeypatch.setattr(experiments_module, "_offloaded", edge_offloaded)
        feasible = energy_surface(ANCHOR, 5.0, resolution=4).feasible[0, :3].tolist()
        assert feasible == [False, True, True]

    def test_rows_follow_grid_order(self):
        grid = energy_surface(ANCHOR, 5.0, resolution=7)
        lines = surface_data_lines(7)
        for i in range(7):
            for j in range(7):
                p1, p2, energy, feasible, kind = lines[7 * i + j].split(",")
                assert float(p1) == grid.p1_axis[i] and float(p2) == grid.p2_axis[j]
                assert float(energy) == grid.energy[i, j]
                assert feasible == ("true" if grid.feasible[i, j] else "false")
                assert kind == "grid"

    def test_csv_layout(self):
        lines = surface_csv(10).splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert "# t_n=5.0" in meta
        assert lines[len(meta)] == SURFACE_COLUMNS
        assert len(lines) == len(meta) + 1 + 101
        assert lines[-1].endswith(",true,optimum")
        assert ",false," in lines[len(meta) + 1]


class TestRenderersReadTheRecord:
    """A CSV prints the scenario and ``t_n`` its record carries: no caller restates them."""

    TOOL = f"# tool=noma-mec {__version__}"

    def test_each_renderer_takes_the_record_alone(self):
        assert list(inspect.signature(render_sweep_csv).parameters) == ["sweep"]
        assert list(inspect.signature(render_surface_csv).parameters) == ["grid"]

    def test_sweep_header_is_the_sweeps_scenario(self):
        sweep = deadline_sweep(15.0, 20.0, 20.0, 40.0, 3, h_m_sq=0.5, h_n_sq=2.0)
        assert sweep.scenario == validate_scenario(15.0, 20.0, 20.0, 0.5, 2.0)
        assert render_sweep_csv(sweep).splitlines()[:6] == [
            "# nats=15.0", "# d_m=20.0", "# h_m_sq=0.5", "# h_n_sq=2.0", self.TOOL, SWEEP_COLUMNS]

    def test_a_slice_keeps_the_scenario_and_an_index_gives_a_row(self):
        sweep = deadline_sweep(15.0, 20.0, 20.0, 40.0, 5, h_m_sq=0.5, h_n_sq=2.0)
        part = sweep[1:4]
        assert type(part) is DeadlineSweep and part.scenario is sweep.scenario
        assert type(sweep[1]) is SweepRow and part[0] == sweep[1]
        whole, cut = render_sweep_csv(sweep).splitlines(), render_sweep_csv(part).splitlines()
        assert cut == whole[:6] + whole[7:10]

    def test_surface_header_and_optimum_are_the_grids(self):
        s = validate_scenario(15.0, 20.0, 30.0, 0.5, 2.0)
        grid = energy_surface(s, 7, resolution=2)
        assert grid.scenario is s and type(grid.t_n) is float and grid.t_n == 7.0
        lines = render_surface_csv(grid).splitlines()
        assert lines[:7] == ["# nats=15.0", "# d_m=20.0", "# h_m_sq=0.5", "# h_n_sq=2.0",
                             "# t_n=7.0", self.TOOL, SURFACE_COLUMNS]
        star1, star2 = hybrid_powers(s, 7.0)
        assert lines[-1] == f"{star1!r},{star2!r},{hybrid_energy(s, 7.0)!r},true,optimum"


class TestVerificationCampaign:
    def test_passes_and_is_deterministic(self):
        first = verification_campaign(seed=42, count=50)
        second = verification_campaign(seed=42, count=50)
        assert first == second
        assert first.passed
        assert first.max_rel_err <= 1e-5
        assert first.max_dominance_violation <= 1e-9

    def test_single_scenario_deterministic(self):
        assert verification_campaign(seed=42, count=1) == verification_campaign(seed=42, count=1)

    def test_different_seed_differs(self):
        a = verification_campaign(seed=1, count=10)
        b = verification_campaign(seed=2, count=10)
        assert (a.max_rel_err, a.max_dominance_violation) != (
            b.max_rel_err,
            b.max_dominance_violation,
        )

    def test_zero_count_rejected(self):
        with pytest.raises(NomaMecError, match=r"^count must lie in \[1, 1000000\], got 0$"):
            verification_campaign(seed=42, count=0)

    def test_count_above_limit_rejected_before_drawing(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew scenarios for an oversized campaign")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        with pytest.raises(NomaMecError, match=r"^count must lie in \[1, 1000000\]"):
            verification_campaign(seed=42, count=_MAX_ROWS + 1)

    @pytest.mark.parametrize("call,at_limit,message,allocator", [
        (lambda steps: deadline_sweep(3.0, 1.0, 1.0, 2.0, steps), _MAX_ROWS,
         r"^steps must lie in \[2, 1000000\], got 1000001$", "linspace"),
        (lambda resolution: energy_surface(ANCHOR, 5.0, resolution=resolution), 1000,
         r"^resolution must lie in \[2, 1000\], got 1001$", "linspace"),
    ], ids=["sweep steps", "surface resolution"])
    def test_rows_above_limit_rejected_before_allocating(self, monkeypatch, call, at_limit, message,
                                                         allocator):
        class Allocating(Exception):
            pass

        def no_axis(*args, **kwargs):
            raise Allocating

        # The grid starts with ``allocator``: the limit itself gets that far, one more row does not.
        monkeypatch.setattr(np, allocator, no_axis)
        with pytest.raises(Allocating):
            call(at_limit)
        with pytest.raises(NomaMecError, match=message):
            call(at_limit + 1)

    @pytest.mark.parametrize("call,message", [
        (lambda: verification_campaign(True, 3), r"^seed must be an integer, got True$"),
        (lambda: verification_campaign(1.0, 3), r"^seed must be an integer, got 1\.0$"),
        (lambda: verification_campaign(42, True), r"^count must be an integer, got True$"),
        (lambda: verification_campaign(42, 2.0), r"^count must be an integer, got 2\.0$"),
        (lambda: deadline_sweep(3.0, 1.0, 1.0, 2.0, 3.0), r"^steps must be an integer, got 3\.0$"),
        (lambda: deadline_sweep(3.0, 1.0, 1.0, 2.0, True), r"^steps must be an integer, got True$"),
        (lambda: energy_surface(ANCHOR, 5.0, resolution=3.0),
         r"^resolution must be an integer, got 3\.0$"),
        (lambda: energy_surface(ANCHOR, 5.0, resolution=True),
         r"^resolution must be an integer, got True$"),
    ], ids=["seed True", "seed 1.0", "count True", "count 2.0", "steps 3.0", "steps True",
            "resolution 3.0", "resolution True"])
    def test_non_integer_seed_or_row_count_rejected(self, call, message):
        # A bool is an int to Python and a float reaches numpy, which raises TypeError.
        with pytest.raises(NomaMecError, match=message):
            call()

    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1])
    @pytest.mark.parametrize("count", [1, 200])
    def test_vectorized_draw_matches_scalar_draws(self, seed, count):
        rng = np.random.Generator(np.random.Philox(seed))
        scalar = [
            [float(rng.uniform(1.0, 40.0)), float(rng.uniform(1.0, 50.0)),
             float(rng.uniform(1e-3, 1.0 - 1e-3)), float(rng.uniform(0.1, 10.0)),
             float(rng.uniform(0.1, 10.0))]
            for _ in range(count)
        ]
        rng = np.random.Generator(np.random.Philox(seed))
        vectorized = rng.uniform(_CAMPAIGN_LOWS, _CAMPAIGN_HIGHS, size=(count, 5))
        assert vectorized.tolist() == scalar

    @pytest.mark.parametrize("count,chunk", [(10, 0), (2 * _CHUNK_ROWS + 5, 1)],
                             ids=["one chunk", "middle of three chunks"])
    def test_nan_oracle_lane_fails_closed(self, monkeypatch, capsys, count, chunk):
        import noma_mec.experiments as experiments_module

        real_batch = experiments_module.oracle_batch
        chunks, calls = -(-count // _CHUNK_ROWS), itertools.count()

        def nan_lane_batch(*args, **kwargs):
            p_n1, p_n2, energy = real_batch(*args, **kwargs)
            if next(calls) % chunks == chunk:   # each campaign's own chunk ``chunk``
                energy[3] = math.nan
            return p_n1, p_n2, energy

        monkeypatch.setattr(experiments_module, "oracle_batch", nan_lane_batch)
        summary = verification_campaign(seed=42, count=count)
        assert not summary.passed
        assert math.isnan(summary.max_rel_err)
        assert run(["verify", "--seed", "42", "--count", str(count)]) == 2
        assert "result=FAIL" in capsys.readouterr().out
        assert next(calls) == 2 * chunks

    @pytest.mark.parametrize("delta, passed", [
        (1e-5 * (1.0 + 1e-6), False), (1e-5 * (1.0 - 1e-6), True),
        (-1e-5 * (1.0 + 1e-6), False), (-1e-5 * (1.0 - 1e-6), True),
    ], ids=["above", "below", "above, oracle low", "below, oracle low"])
    def test_relative_error_gate_at_its_edge(self, monkeypatch, capsys, delta, passed):
        # One oracle lane at e_hybrid * (1 + delta), just past or just inside the campaign's
        # 1e-5 gate; every other lane agrees with the closed forms to rounding.
        import noma_mec.experiments as experiments_module

        real_columns, real_batch = experiments_module._strategy_columns, experiments_module.oracle_batch
        hybrid = []

        def recorded_columns(*args):
            columns = real_columns(*args)
            hybrid.append(columns.e_hybrid)
            return columns

        def off_lane_batch(*args):
            p_n1, p_n2, energy = real_batch(*args)
            energy[3] = hybrid[-1][3] * (1.0 + delta)
            return p_n1, p_n2, energy

        monkeypatch.setattr(experiments_module, "_strategy_columns", recorded_columns)
        monkeypatch.setattr(experiments_module, "oracle_batch", off_lane_batch)
        summary = verification_campaign(seed=42, count=10)
        assert summary.max_rel_err == pytest.approx(abs(delta), rel=1e-9)
        assert (summary.max_rel_err <= 1e-5) is passed
        assert summary.passed is passed
        assert run(["verify", "--seed", "42", "--count", "10"]) == (0 if passed else 2)
        assert f"result={'PASS' if passed else 'FAIL'}" in capsys.readouterr().out

    @pytest.mark.parametrize("column", ["e_pure", "e_oma"])
    @pytest.mark.parametrize("excess, passed", [(1e-9 * (1.0 + 1e-6), False),
                                                (1e-9 * (1.0 - 1e-6), True)], ids=["above", "below"])
    def test_dominance_gate_at_its_edge(self, monkeypatch, capsys, column, excess, passed):
        # One rival strategy made cheaper than the hybrid schedule by ``excess``, just past or
        # just inside the campaign's 1e-9 gate, in the lane of least hybrid energy, where the
        # difference rounds least.
        import noma_mec.experiments as experiments_module

        real_columns = experiments_module._strategy_columns

        def cheaper_rival(*args):
            columns = real_columns(*args)
            k = int(np.argmin(columns.e_hybrid))
            rival = np.array(getattr(columns, column), dtype=float)
            rival[k] = columns.e_hybrid[k] - excess
            return columns._replace(**{column: rival})

        monkeypatch.setattr(experiments_module, "_strategy_columns", cheaper_rival)
        summary = verification_campaign(seed=42, count=10)
        # The lane's e_hybrid is about 1.3, so its excess is off by at most 1.1e-16.
        assert summary.max_dominance_violation == pytest.approx(excess, rel=1e-6, abs=0.0)
        assert (summary.max_dominance_violation <= 1e-9) is passed
        assert summary.passed is passed
        assert run(["verify", "--seed", "42", "--count", "10"]) == (0 if passed else 2)
        assert f"result={'PASS' if passed else 'FAIL'}" in capsys.readouterr().out

    @pytest.mark.parametrize("lane, field, gate", [
        # (e_hybrid, e_pure, e_oma, oracle energy): 1.0 / 1e5 and 1e-9 - 0.0 are exactly the gates.
        ((1e5, math.inf, math.inf, 100001.0), "max_rel_err", 1e-5),
        ((1e-9, 0.0, math.inf, 1e-9), "max_dominance_violation", 1e-9),
    ], ids=["relative error", "dominance"])
    def test_a_value_exactly_at_a_gate_passes(self, monkeypatch, capsys, lane, field, gate):
        # Both gates are closed: a campaign whose worst value equals the bound passes.
        import noma_mec.experiments as experiments_module

        real_columns, real_batch = experiments_module._strategy_columns, experiments_module.oracle_batch
        e_hybrid, e_pure, e_oma, e_oracle = lane

        def planted_columns(*args):
            columns = real_columns(*args)
            planted = {name: np.array(getattr(columns, name), dtype=float)
                       for name in ("e_hybrid", "e_pure", "e_oma")}
            planted["e_hybrid"][3], planted["e_pure"][3], planted["e_oma"][3] = e_hybrid, e_pure, e_oma
            return columns._replace(**planted)

        def planted_batch(*args):
            p_n1, p_n2, energy = real_batch(*args)
            energy[3] = e_oracle
            return p_n1, p_n2, energy

        monkeypatch.setattr(experiments_module, "_strategy_columns", planted_columns)
        monkeypatch.setattr(experiments_module, "oracle_batch", planted_batch)
        summary = verification_campaign(seed=42, count=10)
        assert getattr(summary, field) == gate and summary.passed is True
        assert run(["verify", "--seed", "42", "--count", "10"]) == 0
        assert "result=PASS" in capsys.readouterr().out

    def test_tol_refused_before_drawing(self, monkeypatch):
        import noma_mec.experiments as experiments_module

        def no_columns(*args):
            raise AssertionError("computed the closed forms of a campaign given a tol")

        monkeypatch.setattr(experiments_module, "_strategy_columns", no_columns)
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            verification_campaign(seed=42, count=_MAX_ROWS, tol=1e-10)

    # (seed, count, max_rel_err) of campaigns that pass; the ids name seed and count only, so a
    # re-pinned value keeps its test's name.
    PINNED = [
        (0, 1, "0.0"),
        (0, 200, "2.0101079125828073e-15"),
        (42, 1, "0.0"),
        (42, 200, "2.2607450124600564e-15"),
        (2**32 - 1, 1, "2.433605359658634e-16"),
        (2**32 - 1, 200, "1.386158239941175e-15"),
        # Certified 4,096 scenarios at a time: one chunk, exactly one, one more, two and one.
        (0, 4095, "3.2812178737486924e-15"),
        (0, 4096, "3.2812178737486924e-15"),
        (0, 4097, "3.2812178737486924e-15"),
        (0, 8193, "5.797525853045325e-15"),
        (42, 4095, "5.42460960854414e-15"),
        (42, 4096, "5.42460960854414e-15"),
        (42, 4097, "5.42460960854414e-15"),
        (42, 8193, "5.42460960854414e-15"),
        (2**32 - 1, 4095, "1.2115047420092147e-14"),
        (2**32 - 1, 4096, "1.2115047420092147e-14"),
        (2**32 - 1, 4097, "1.2115047420092147e-14"),
        (2**32 - 1, 8193, "1.2115047420092147e-14"),
        (42, 100_000, "8.017202068863654e-15"),
    ]
    PINNED_IDS = [f"{seed}-{count}" for seed, count, _ in PINNED]

    @pytest.mark.parametrize("seed,count,max_rel_err", PINNED, ids=PINNED_IDS)
    def test_pinned_summaries(self, seed, count, max_rel_err):
        summary = verification_campaign(seed, count)
        assert (summary.seed, summary.count, summary.passed) == (seed, count, True)
        assert repr(summary.max_dominance_violation) == "0.0"
        # The oracle's side of max_rel_err uses numpy's exp/expm1: see numpy_exp_is_pinned.
        if numpy_exp_is_pinned():
            assert repr(summary.max_rel_err) == max_rel_err
        else:
            assert summary.max_rel_err <= 1e-12

    @pytest.mark.parametrize("seed,count,max_rel_err", PINNED, ids=PINNED_IDS)
    def test_pinned_campaigns_agree_to_rounding(self, seed, count, max_rel_err):
        # On every host, numpy's exp/expm1 bits aside: the oracle and the closed forms agree
        # to a few ulp, eight orders of magnitude inside the campaign's 1e-5 gate.
        summary = verification_campaign(seed, count)
        assert summary.passed and summary.max_rel_err <= 1e-13

    def test_summary_rendering(self):
        summary = verification_campaign(seed=42, count=10)
        text = render_campaign_summary(summary)
        assert "seed=42" in text
        assert "count=10" in text
        assert "result=PASS" in text
