"""Every README demo runs to completion against the current public API."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
