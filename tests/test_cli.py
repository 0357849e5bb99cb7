import argparse
import ctypes
import json
import os
import subprocess
import sys
import warnings

import pytest

import noma_mec
from noma_mec import NomaMecError
from noma_mec.cli import _COMMANDS, _DEFAULTS, build_parser, load_scenario_file, run
from noma_mec.experiments import CampaignSummary
from test_cli_golden import CASES, GOLDEN, _case_id, _pinned_run, _with_config


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_ARGS = ["solve", "--n", "15", "--dm", "20", "--dn", "25", "--hn2", "1"]


class TestSolve:
    def test_hybrid_scenario(self, capsys):
        code, out, _ = run_capture(capsys, SOLVE_ARGS)
        assert code == 0
        assert "selected=hybrid-noma" in out
        energy = float(next(l for l in out.splitlines() if l.startswith("energy=")).split("=")[1])
        assert energy == pytest.approx(35.66291, abs=1e-4)
        # The gain-normalized energy is printed alongside the absolute one.
        assert any(l.startswith("normalized_energy=") for l in out.splitlines())

    def test_deadline_order_error(self, capsys):
        code, out, err = run_capture(capsys, ["solve", "--n", "15", "--dm", "20", "--dn", "10"])
        assert code == 1
        assert out == ""
        assert "d_m <= d_n" in err

    def test_missing_parameter(self, capsys):
        code, _, err = run_capture(capsys, ["solve", "--n", "15", "--dn", "25"])
        assert code == 1
        assert '"dm"' in err

    def test_degenerate_prints_infeasible_oma(self, capsys):
        code, out, _ = run_capture(capsys, ["solve", "--n", "15", "--dm", "20", "--dn", "20"])
        assert code == 0
        assert "selected=hybrid-noma" in out
        assert "oma,inf,inf,0.0,0.0,false" in out

    def test_oma_regime(self, capsys):
        code, out, _ = run_capture(capsys, ["solve", "--n", "15", "--dm", "20", "--dn", "50"])
        assert code == 0
        assert "selected=oma" in out
        assert "regime=oma-favored" in out

    def test_non_numeric_flag(self, capsys):
        code, _, err = run_capture(capsys, ["solve", "--n", "abc", "--dm", "20", "--dn", "25"])
        assert code == 1
        assert "usage" in err


class TestConfigFile:
    def test_flags_and_file_give_identical_bytes(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": 15, "dm": 20, "dn": 25, "hn2": 1}))
        code_flags, out_flags, _ = run_capture(capsys, SOLVE_ARGS)
        code_file, out_file, _ = run_capture(capsys, ["solve", "--config", str(config)])
        assert code_flags == code_file == 0
        assert out_flags == out_file

    @pytest.mark.parametrize(
        "flags,document",
        [
            (["solve", "--n", "15", "--dm", "20", "--dn", "30", "--hm2", "0.5", "--hn2", "2"],
             {"n": 15, "dm": 20, "dn": 30, "hm2": 0.5, "hn2": 2}),
            (["sweep", "--n", "15", "--dm", "20", "--hm2", "0.5", "--hn2", "2",
              "--from", "22", "--to", "50", "--steps", "6"],
             {"n": 15, "dm": 20, "hm2": 0.5, "hn2": 2,
              "sweep": {"from": 22, "to": 50, "steps": 6}}),
            (["surface", "--n", "15", "--dm", "20", "--dn", "30", "--hm2", "0.5", "--hn2", "2",
              "--tn", "4", "--p1max", "3", "--p2max", "5", "--resolution", "4"],
             {"n": 15, "dm": 20, "dn": 30, "hm2": 0.5, "hn2": 2,
              "surface": {"tn": 4, "p1max": 3, "p2max": 5, "resolution": 4}}),
        ],
        ids=["solve", "sweep", "surface"],
    )
    def test_every_file_key_matches_its_flag(self, capsys, tmp_path, flags, document):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(document))
        code_flags, out_flags, _ = run_capture(capsys, flags)
        code_file, out_file, _ = run_capture(capsys, [flags[0], "--config", str(config)])
        assert code_flags == code_file == 0
        assert out_flags == out_file

    def test_flag_equal_to_default_overrides_file(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"hn2": 2}))
        code_flags, out_flags, _ = run_capture(capsys, SOLVE_ARGS)
        code_both, out_both, _ = run_capture(capsys, SOLVE_ARGS + ["--config", str(config)])
        assert code_flags == code_both == 0
        assert out_flags == out_both
        assert "h_n_sq=1.0" in out_both

    def test_flag_overrides_file(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": 15, "dm": 20, "dn": 25}))
        code, out, _ = run_capture(capsys, ["solve", "--config", str(config), "--dn", "50"])
        assert code == 0
        assert "d_n=50.0" in out

    def test_missing_key_names_it(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": 15, "dn": 25}))
        code, _, err = run_capture(capsys, ["solve", "--config", str(config)])
        assert code == 1
        assert '"dm"' in err

    def test_type_mismatch_names_key(self, tmp_path):
        config = tmp_path / "scenario.json"
        for document, key, message in [
            ({"n": 15, "dm": 20, "dn": "soon"}, "dn", "a number"),
            ({"n": 15, "dm": 20, "surface": 5}, "surface", "an object"),
            ({"n": 15, "dm": 20, "sweep": {"steps": 5.5}}, "steps", "an integer"),
        ]:
            config.write_text(json.dumps(document))
            with pytest.raises(NomaMecError) as excinfo:
                load_scenario_file(str(config))
            assert f'"{key}"' in str(excinfo.value)
            assert message in str(excinfo.value)

    def test_unreadable_file(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(NomaMecError) as excinfo:
            load_scenario_file(path)
        assert str(excinfo.value).startswith(f"cannot read config file {path!r}: ")

    def test_malformed_json(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text("{not json")
        with pytest.raises(NomaMecError) as excinfo:
            load_scenario_file(str(config))
        assert str(excinfo.value).startswith(f"config file {str(config)!r} is not valid JSON: ")

    def test_undecodable_file_is_invalid_input(self, capsys, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_bytes(b"\xff\xfe{}")   # a UTF-16 byte-order mark
        with pytest.raises(NomaMecError) as excinfo:
            load_scenario_file(str(config))
        assert str(excinfo.value).startswith(f"config file {str(config)!r} is not valid JSON: ")
        code, out, err = run_capture(capsys, ["solve", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: config file {str(config)!r} is not valid JSON: ")

    def test_sweep_block(self, tmp_path):
        config = tmp_path / "scenario.json"
        for document, expected in [
            ({"n": 15, "dm": 20, "sweep": {"from": 20, "to": 40, "steps": 5}},
             {"n": 15.0, "dm": 20.0, "from": 20.0, "to": 40.0, "steps": 5}),
            ({"n": 15, "dm": 20, "hn2": 2, "surface": {"tn": 5, "p1max": 3, "p2max": 4.5, "resolution": 7}},
             {"n": 15.0, "dm": 20.0, "hn2": 2.0, "tn": 5.0, "p1max": 3.0, "p2max": 4.5,
              "resolution": 7}),
        ]:
            config.write_text(json.dumps(document))
            assert load_scenario_file(str(config)) == expected

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_float_range_reads_as_infinity(self, capsys, tmp_path, sign):
        # A 401-digit JSON integer is the same scenario error, exit 1, as the same digits
        # given as --n, not an OverflowError.
        digits = sign + "1" + "0" * 400
        config = tmp_path / "scenario.json"
        config.write_text(f'{{"n": {digits}, "dm": 20, "dn": 25}}')
        assert load_scenario_file(str(config))["n"] == float(sign + "inf")
        from_file = run_capture(capsys, ["solve", "--config", str(config)])
        from_flag = run_capture(capsys, ["solve", "--n", digits, "--dm", "20", "--dn", "25"])
        assert from_file == from_flag == (
            1, "", f"error: nats must be a positive finite number, got {sign}inf\n")

    def test_integer_too_long_to_parse_is_invalid_input(self, capsys, tmp_path):
        # Past 4,300 digits Python's json refuses to convert an integer at all.
        config = tmp_path / "scenario.json"
        config.write_text('{"n": 1' + "0" * 5000 + ', "dm": 20, "dn": 25}')
        code, out, err = run_capture(capsys, ["solve", "--config", str(config)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config file {str(config)!r} is not valid JSON: ")

    def test_boolean_is_not_a_number(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": True, "dm": 20, "dn": 25}))
        with pytest.raises(NomaMecError, match='^config key "n" must be a number, got True$'):
            load_scenario_file(str(config))

    def test_unknown_keys_ignored(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": 15, "dm": 20, "dn": 25, "comment": "hi"}))
        loaded = load_scenario_file(str(config))
        assert loaded == {"n": 15.0, "dm": 20.0, "dn": 25.0}


class TestSweepAndSurface:
    def test_sweep_takes_no_dn(self, capsys, tmp_path):
        # The sweep's --from and --to set d_n; a --dn flag is refused, not ignored.
        code, out, err = run_capture(capsys, ["sweep", "--n", "15", "--dm", "20", "--dn", "3",
                                              "--steps", "3"])
        assert (code, out) == (1, "")
        assert err.endswith("noma-mec: error: unrecognized arguments: --dn 3\n")
        # A scenario file's top-level dn is still accepted, and the sweep leaves it unread.
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": 15, "dm": 20, "dn": 25}))
        from_file = run_capture(capsys, ["sweep", "--config", str(config), "--steps", "3"])
        assert from_file == run_capture(capsys, ["sweep", "--n", "15", "--dm", "20",
                                                 "--steps", "3"])
        assert from_file[0] == 0

    def test_sweep_stdout_matches_file_output(self, capsys, tmp_path):
        argv = ["sweep", "--n", "15", "--dm", "20", "--from", "20", "--to", "40", "--steps", "9"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        out_path = tmp_path / "sweep.csv"
        code2, stdout2, _ = run_capture(capsys, argv + ["--out", str(out_path)])
        assert code2 == 0 and stdout2 == ""
        assert out_path.read_text() == out
        assert out.splitlines()[5] == "d_n,e_hybrid,e_pure,e_oma,p1_star,p2_star,t_n_star,selected"

    def test_sweep_defaults_span_dm_to_twice_dm(self, capsys):
        code, out, _ = run_capture(capsys, ["sweep", "--n", "15", "--dm", "20"])
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert data[0].startswith("20.0,")
        assert data[-1].startswith("40.0,")

    def test_sweep_infinite_bound_exits_one_without_warning(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_capture(capsys, ["sweep", "--n", "15", "--dm", "20", "--to", "inf"])
        assert code == 1 and out == ""
        assert err == "error: d_n_to must be finite, got inf\n"
        assert caught == []

    @pytest.mark.parametrize("argv", [
        ["surface", "--n", "15", "--dm", "20", "--resolution", "2", "--p1max", "1e308",
         "--p2max", "1e308"],
        ["surface", "--n", "15", "--dm", "1e300", "--p1max", "1e10", "--p2max", "1",
         "--resolution", "3"],
    ])
    def test_surface_overflow_exits_zero_without_warning(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_capture(capsys, argv)
        assert code == 0 and err == ""
        assert ",inf,true,grid" in out
        assert caught == []

    @pytest.mark.parametrize("dm", ["0", "inf", "nan"])
    def test_sweep_bad_dm_is_named(self, capsys, dm):
        code, out, err = run_capture(capsys, ["sweep", "--n", "15", "--dm", dm])
        assert code == 1
        assert out == ""
        assert "d_m must be a positive finite number" in err

    def test_surface_smoke(self, capsys):
        code, out, _ = run_capture(
            capsys, ["surface", "--n", "15", "--dm", "20", "--resolution", "20"]
        )
        assert code == 0
        lines = out.splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 20 * 20 + 1
        assert data[-1].endswith(",true,optimum")
        assert "# t_n=5.0" in lines

    def test_surface_bad_resolution(self, capsys):
        code, _, err = run_capture(
            capsys, ["surface", "--n", "15", "--dm", "20", "--resolution", "1"]
        )
        assert code == 1
        assert "resolution" in err

    def test_surface_extension_past_the_deadline_is_refused(self, capsys, tmp_path):
        # d_n from a flag or from a config file: t_n past the budget d_n - d_m is named, exit 1.
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": 15, "dm": 20, "dn": 21}))
        expected = (1, "", "error: dm + tn must be at most dn, got 20.0 + 10.0 > 21.0\n")
        for source in (["--n", "15", "--dm", "20", "--dn", "21"], ["--config", str(config)]):
            argv = ["surface", *source, "--tn", "10", "--resolution", "2"]
            assert run_capture(capsys, argv) == expected

    @pytest.mark.parametrize("tn", ["-1", "nan", "inf"])
    def test_surface_bad_extension_without_dn_names_tn(self, capsys, tn):
        # Without --dn nothing sets d_n, so a bad --tn is named as t_n, never as d_n.
        argv = ["surface", "--n", "15", "--dm", "20", "--tn", tn]
        expected = f"error: t_n must lie in (0, inf), got {float(tn)!r}\n"
        assert run_capture(capsys, argv) == (1, "", expected)

    def test_surface_default_deadline_meets_the_budget(self, capsys):
        # Without --dn any positive t_n is rendered. With --dn 20 the rule is written as a sum:
        # d_n - d_m = 0.0 lies below t_n, but d_m + t_n rounds to d_m and does not exceed d_n.
        argv = ["surface", "--n", "15", "--dm", "20", "--tn", "1e-15", "--resolution", "2"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert run_capture(capsys, [*argv, "--dn", "20"]) == (code, out, err)

    def test_unwritable_output_path(self, capsys):
        code, _, err = run_capture(
            capsys,
            ["sweep", "--n", "15", "--dm", "20", "--out", "/nonexistent-dir/x.csv"],
        )
        assert code == 1
        assert "error:" in err


class TestVerify:
    def test_pass_run(self, capsys):
        code, out, _ = run_capture(capsys, ["verify", "--seed", "42", "--count", "25"])
        assert code == 0
        assert "result=PASS" in out

    def test_zero_count_is_invalid_input(self, capsys):
        code, _, err = run_capture(capsys, ["verify", "--count", "0"])
        assert code == 1
        assert "count" in err

    def test_oversized_count_is_invalid_input(self, capsys):
        # Rejected before the campaign allocates its draws.
        code, out, err = run_capture(capsys, ["verify", "--count", "100000000000"])
        assert code == 1
        assert out == ""
        assert err == "error: count must lie in [1, 1000000], got 100000000000\n"

    def test_negative_seed_is_invalid_input(self, capsys):
        code, out, err = run_capture(capsys, ["verify", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_config_flag_rejected(self, capsys, tmp_path):
        # No config key feeds verify, so it takes no --config file.
        path = tmp_path / "campaign.json"
        path.write_text('{"seed": 7, "count": 3}')
        code, out, err = run_capture(capsys, ["verify", "--config", str(path)])
        assert code == 1
        assert out == ""
        assert "--config" in err

    def test_failure_exits_two(self, capsys, monkeypatch):
        import noma_mec.cli as cli_module

        def fake_campaign(seed, count):
            return CampaignSummary(
                seed=seed, count=count, max_rel_err=1.0,
                max_dominance_violation=1.0, passed=False,
            )

        monkeypatch.setattr(cli_module, "verification_campaign", fake_campaign)
        code, out, _ = run_capture(capsys, ["verify", "--count", "5"])
        assert code == 2
        assert "result=FAIL" in out


class TestHelpAndUsage:
    @pytest.mark.parametrize("sub", ["solve", "sweep", "surface", "verify"])
    def test_help_exits_zero(self, capsys, sub):
        code, out, _ = run_capture(capsys, [sub, "--help"])
        assert code == 0
        assert "--out" in out

    def test_help_names_flags_with_units(self, capsys):
        _, out, _ = run_capture(capsys, ["solve", "--help"])
        assert "--n" in out and "nats" in out
        assert "--dm" in out and "normalized time units" in out
        assert "--hn2" in out

    @pytest.mark.parametrize(
        "sub,flags",
        [
            ("solve", ["--n", "--dm", "--dn", "--hm2", "--hn2", "--config"]),
            ("sweep", ["--from", "--to", "--steps"]),
            ("surface", ["--tn", "--p1max", "--p2max", "--resolution"]),
            ("verify", ["--seed", "--count"]),
        ],
    )
    def test_every_flag_documented(self, capsys, sub, flags):
        _, out, _ = run_capture(capsys, [sub, "--help"])
        for flag in flags:
            assert flag in out

    @pytest.mark.parametrize("sub,flag", [
        ("solve", "--tol"), ("sweep", "--tol"), ("surface", "--tol"), ("verify", "--tol"),
        # A sweep sets d_n through --from and --to.
        ("sweep", "--dn"),
    ])
    def test_withdrawn_flag_refused(self, capsys, sub, flag):
        _, out, _ = run_capture(capsys, [sub, "--help"])
        assert flag not in out
        code, out, err = run_capture(capsys, [sub, flag, "2"])
        assert (code, out) == (1, "")
        assert err.endswith(f"noma-mec: error: unrecognized arguments: {flag} 2\n")

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_capture(capsys, ["explode"])
        assert code == 1
        assert "usage" in err

    def test_top_level_help(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0
        assert "solve" in out and "sweep" in out and "surface" in out and "verify" in out


class TestOneParser:
    MIXED = [
        SOLVE_ARGS,
        ["sweep", "--n", "15", "--dm", "20", "--steps", "3"],
        ["surface", "--n", "15", "--dm", "20", "--resolution", "2"],
        ["verify", "--count", "3"],
        ["solve", "--n", "abc", "--dm", "20", "--dn", "25"],
        ["solve", "--n", "15", "--dn", "25"],
        ["sweep", "--help"],
        ["--version"],
        ["explode"],
    ]

    def test_at_most_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for k in range(50):
            run(self.MIXED[k % len(self.MIXED)])
        capsys.readouterr()
        # One build makes the top-level parser and, through add_parser, one per subcommand.
        assert built.count("noma-mec") <= 1
        assert len(built) <= 1 + len(_COMMANDS)

    def test_build_parser_builds_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_calls_do_not_affect_each_other(self, capsys, tmp_path):
        golden = json.loads(GOLDEN.read_text())

        def helps():
            texts = []
            for argv in [["--help"]] + [[name, "--help"] for name, *_ in _COMMANDS]:
                assert run(argv) == 0
                texts.append(capsys.readouterr().out)
            return texts

        def replay(cases):
            for argv, config in cases:
                expected = golden[_case_id(argv, config)]
                assert _pinned_run(argv, config, tmp_path) == (expected["code"], expected["stdout"])

        first_helps = helps()
        replay(CASES)
        assert run(["solve", "--bogus", "1"]) == 1
        assert run(["solve", "--help"]) == 0
        assert capsys.readouterr().out == first_helps[1]
        assert run(["solve", "--n", "15", "--dn", "25"]) == 1
        replay(reversed(CASES))
        capsys.readouterr()
        assert helps() == first_helps


def reference_run(argv):
    """``run`` as argparse alone routes it: a fresh top-level parser reads all of ``argv``."""
    try:
        given = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = given.pop("config", None)
        file_values = load_scenario_file(config) if config else {}
        return given.pop("handler")({**_DEFAULTS, **file_values, **given})
    except (NomaMecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


VALID = [
    SOLVE_ARGS,
    ["sweep", "--n", "15", "--dm", "20", "--steps", "3"],
    ["surface", "--n", "15", "--dm", "20", "--resolution", "2"],
    ["verify", "--count", "3"],
]
# Argv that argparse reads in unusual ways: no subcommand, flags left unread, abbreviations,
# "=" values, missing or mistyped values, a repeated flag and the "--" separator.
EDGE = [
    [],
    ["--version"],
    ["-h"],
    ["explode"],
    ["Solve", "--n", "15"],
    ["--", "solve", "--n", "15", "--dm", "20", "--dn", "25"],
    ["--version", "solve", "--n", "15"],
    ["solve"],
    ["solve", "-h"],
    ["solve", "--bogus", "1"],
    ["solve", "--n", "1", "extra"],
    ["solve", "--n=15", "--dm", "20", "--dn", "25"],
    ["solve", "--config"],
    ["solve", "--n", "abc"],
    ["solve", "--n", "abc", "extra"],
    [*SOLVE_ARGS, "--version"],
    ["solve", "--n", "1", "--n", "15", "--dm", "20", "--dn", "25"],
    [*SOLVE_ARGS, "--", "extra"],
    ["solve", "--", "--n", "15"],
    [*SOLVE_ARGS, "-x"],
    ["solve", "--n", "15", "--dm", "20", "--dn", "25", "--tn", "5"],
    ["verify", "--cou", "3"],
    ["verify", "--count", "3", "extra"],
    ["verify", "--seed", "1", "--seed"],
    ["sweep", "--n", "15", "--dm", "20", "--steps", "3.5"],
    ["surface", "--n", "15", "--dm", "20", "--p", "3"],
    ["surface", "--n", "15", "--dm", "20", "--resolution", "2", "--p1m", "3"],
]


class TestSubcommandRouting:
    @pytest.mark.parametrize(
        "argv,config",
        CASES + [(argv, None) for argv in EDGE],
        ids=[_case_id(*case) for case in CASES] + [f"edge {' '.join(argv)}" for argv in EDGE],
    )
    def test_same_outcome_as_argparse_routing(self, capsys, tmp_path, argv, config):
        argv = _with_config(argv, config, tmp_path)
        expected = (reference_run(argv), *capsys.readouterr())
        assert run_capture(capsys, argv) == expected

    def test_valid_commands_skip_the_subparsers_action(self, capsys, monkeypatch):
        calls = []
        call = argparse._SubParsersAction.__call__

        def counting_call(self, *args, **kwargs):
            calls.append(args[2])   # (parser, namespace, values, ...)
            return call(self, *args, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "__call__", counting_call)
        for argv in VALID:
            assert run(argv) == 0
        assert calls == []
        assert run([*SOLVE_ARGS, "--bogus", "1"]) == 1
        assert calls == [[*SOLVE_ARGS, "--bogus", "1"]]
        capsys.readouterr()


# In a fresh process: how many bytes glibc maps on its own for a 4 MiB block before the
# first ``run``, and for an 8 MiB and a 40 MiB block after it; mallinfo2's ``hblkhd``
# counts such bytes. Unpinned, freeing the 4 MiB block would raise the threshold to 4 MiB
# only, and the 8 MiB block would be mapped too.
_MAPPED_BLOCKS = """
import ctypes
from noma_mec.cli import run

class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info

def mapped(size):
    before = libc.mallinfo2().hblkhd
    block = bytearray(size)
    return libc.mallinfo2().hblkhd - before

first = mapped(4 << 20)
assert run(["solve", "--n", "15", "--dm", "20", "--dn", "25"]) == 0
print(first, mapped(8 << 20), mapped(40 << 20))
"""


@pytest.mark.skipif(not (sys.platform == "linux" and hasattr(ctypes.CDLL(None), "mallinfo2")),
                    reason="needs glibc 2.33 or later")
class TestMallocThresholds:
    def test_run_serves_blocks_up_to_32_mib_from_the_heap(self):
        src = os.path.dirname(os.path.dirname(noma_mec.__file__))
        done = subprocess.run([sys.executable, "-c", _MAPPED_BLOCKS], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        first, after, large = map(int, done.stdout.split()[-3:])
        assert first >= 4 << 20   # glibc's starting threshold maps it
        assert after == 0         # the pinned threshold keeps it in the heap
        assert large >= 40 << 20  # above the pinned threshold, still mapped
