"""The suite tests the package that PYTHONPATH names, and the repository's own src/ otherwise."""

import os
import pathlib
import subprocess
import sys

import noma_mec

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _first_holder(pythonpath: str) -> pathlib.Path | None:
    for entry in filter(None, pythonpath.split(os.pathsep)):
        if (pathlib.Path(entry) / "noma_mec" / "__init__.py").is_file():
            return pathlib.Path(entry).resolve()
    return None


def test_package_comes_from_first_pythonpath_holder():
    expected = _first_holder(os.environ.get("PYTHONPATH", "")) or ROOT / "src"
    assert pathlib.Path(noma_mec.__file__).resolve().is_relative_to(expected)


def test_conftest_does_not_shadow_pythonpath(tmp_path):
    (tmp_path / "noma_mec").mkdir()
    (tmp_path / "noma_mec" / "__init__.py").write_text("")
    probe = ("import runpy, sys; runpy.run_path(sys.argv[1]); import noma_mec; "
             "print(noma_mec.__file__)")
    out = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "tests" / "conftest.py")],
        env={**os.environ, "PYTHONPATH": str(tmp_path)}, capture_output=True, text=True, check=True,
    ).stdout
    assert pathlib.Path(out.strip()).resolve() == (tmp_path / "noma_mec" / "__init__.py").resolve()
