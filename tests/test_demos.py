"""Every README demo and the README quickstart run to completion against the current public API."""

import pathlib
import re
import runpy
import types

import pytest

import noma_mec

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, capsys):
    main = runpy.run_path(str(path))["main"]
    # The export demo writes its CSV next to itself; send it to tmp_path instead.
    exports = "OUT" in main.__globals__
    if exports:
        main.__globals__["OUT"] = tmp_path / "out.csv"
    main()
    assert capsys.readouterr().out
    assert (tmp_path / "out.csv").exists() == exports


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "hybrid-noma"


def test_public_names_are_the_packages_own():
    assert len(set(noma_mec.__all__)) == len(noma_mec.__all__)
    assert "ModuleType" not in noma_mec.__all__
    for name in noma_mec.__all__:
        value = getattr(noma_mec, name)
        assert not isinstance(value, types.ModuleType), name
        # Classes and functions come from the package, not from a helper import.
        assert getattr(value, "__module__", "noma_mec").startswith("noma_mec"), name


def test_public_names_are_pinned():
    # The whole public API, sorted: adding, removing or renaming a name shows in this list.
    assert sorted(noma_mec.__all__) == [
        "CampaignSummary", "ComparisonTable", "EXP_CUTOFF", "EnergyReport", "NomaMecError",
        "OffloadScenario", "PowerSchedule", "Regime", "StrategyKind", "SurfaceGrid",
        "__version__", "classify_regime", "deadline_sweep",
        "energy_derivative", "energy_surface", "hybrid_energy", "hybrid_powers", "kkt_log_vars",
        "log_hybrid_energy", "log_oma_energy_n", "noma_oma_gap", "offloaded_nats", "oma_energy_n",
        "oma_power_m", "oracle_batch", "oracle_bounds", "render_campaign_summary",
        "render_surface_csv", "render_sweep_csv", "schedule_energy", "select_strategy",
        "validate_scenario", "verification_campaign",
    ]
