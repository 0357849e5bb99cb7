"""Exact stdout and exit codes of a fixed set of CLI commands.

``cli_golden.json`` holds the expected output of every command in ``CASES``,
captured from a known-good build; a refactor must reproduce it byte for byte.
``verify`` pins only its exit code and ``result=`` line: the last digits of
``max_rel_err`` come from numpy's SIMD ``exp``, which can differ between CPUs.

After an intended output change, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from noma_mec.cli import run

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

# (argv, config file contents or None); "{config}" in argv is the file's path.
CASES = [
    (["--version"], None),
    (["solve", "--n", "15", "--dm", "20", "--dn", "25"], None),
    (["solve", "--n", "15", "--dm", "20", "--dn", "25", "--hm2", "0.5", "--hn2", "2.5"], None),
    (["solve", "--n", "15", "--dm", "20", "--dn", "20"], None),
    (["solve", "--n", "15", "--dm", "20", "--dn", "40"], None),
    (["solve", "--n", "15", "--dm", "20", "--dn", "50"], None),
    (["solve", "--n", "400", "--dm", "1", "--dn", "1.5"], None),
    (["solve", "--config", "{config}", "--dn", "30"], {"n": 15, "dm": 20, "dn": 25, "hn2": 2}),
    (["sweep", "--n", "15", "--dm", "20"], None),
    (["sweep", "--config", "{config}"],
     {"n": 15, "dm": 20, "hm2": 0.5, "sweep": {"from": 20, "to": 60, "steps": 9}}),
    (["surface", "--n", "15", "--dm", "20", "--resolution", "4"], None),
    (["surface", "--n", "15", "--dm", "20", "--dn", "25", "--tn", "5",
      "--p1max", "3", "--p2max", "5", "--resolution", "5"], None),
    (["surface", "--config", "{config}"],
     {"n": 15, "dm": 20, "dn": 25, "surface": {"tn": 5, "p1max": 3, "p2max": 5, "resolution": 3}}),
    (["surface", "--n", "15", "--dm", "20", "--resolution", "2", "--p1max", "1e308",
      "--p2max", "1e308"], None),
    (["surface", "--n", "15", "--dm", "20", "--tn", "20", "--resolution", "4"], None),
    (["surface", "--n", "15", "--dm", "20", "--tn", "25", "--resolution", "4"], None),
    (["surface", "--n", "15", "--dm", "20", "--dn", "21", "--tn", "10", "--resolution", "2"], None),
    (["verify", "--count", "25"], None),
    (["verify", "--seed", "7", "--count", "10"], None),
    (["sweep", "--n", "400", "--dm", "1", "--from", "1", "--to", "3", "--steps", "9",
      "--hm2", "0.5", "--hn2", "2.5"], None),
    (["sweep", "--n", "12", "--dm", "8", "--from", "8", "--to", "20", "--steps", "7",
      "--hm2", "0.25", "--hn2", "4"], None),
    (["solve", "--n", "15", "--dm", "20", "--dn", "10"], None),
    (["solve", "--n", "-15", "--dm", "20", "--dn", "25"], None),
    (["solve", "--n", "15", "--dn", "25"], None),
    (["solve", "--config", "{config}"], {"n": "many", "dm": 20, "dn": 25}),
    (["sweep", "--n", "15", "--dm", "20", "--steps", "1"], None),
    (["surface", "--n", "15", "--dm", "20", "--resolution", "1"], None),
    (["verify", "--count", "0"], None),
    (["verify", "--seed", "-1"], None),
    (["verify", "--tol", "inf"], None),
    (["sweep", "--n", "15", "--dm", "20", "--dn", "30"], None),
    (["solve", "--config", "{config}"], {"n": 10**400, "dm": 20, "dn": 25}),
    (["verify", "--count", "1000001"], None),
    (["sweep", "--n", "3", "--dm", "1", "--steps", "100000000000"], None),
    (["surface", "--n", "3", "--dm", "1", "--resolution", "10000000"], None),
]


def _case_id(argv, config):
    return " ".join(argv) + (f" with {json.dumps(config)}" if config is not None else "")


def _with_config(argv, config, directory):
    """``argv`` with "{config}" replaced by the path of a file holding ``config``."""
    if config is None:
        return argv
    path = pathlib.Path(directory) / "config.json"
    path.write_text(json.dumps(config))
    return [str(path) if arg == "{config}" else arg for arg in argv]


def _pinned(argv, text):
    """The part of a command's stdout that ``cli_golden.json`` pins."""
    if argv[0] == "verify":
        return "".join(line for line in text.splitlines(keepends=True) if line.startswith("result="))
    return text


def _pinned_run(argv, config, directory):
    """Exit code and the pinned part of stdout of one command."""
    argv = _with_config(argv, config, directory)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, _pinned(argv, out.getvalue())


@pytest.mark.parametrize("argv,config", CASES, ids=[_case_id(*case) for case in CASES])
def test_same_bytes_as_golden(argv, config, tmp_path):
    expected = json.loads(GOLDEN.read_text())[_case_id(argv, config)]
    code, text = _pinned_run(argv, config, tmp_path)
    assert code == expected["code"]
    assert text == expected["stdout"]


def test_every_golden_entry_is_a_case():
    assert set(json.loads(GOLDEN.read_text())) == {_case_id(*case) for case in CASES}


if __name__ == "__main__":
    golden = {}
    with tempfile.TemporaryDirectory() as directory, contextlib.redirect_stderr(io.StringIO()):
        for argv, config in CASES:
            code, text = _pinned_run(argv, config, directory)
            golden[_case_id(argv, config)] = {"code": code, "stdout": text}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
