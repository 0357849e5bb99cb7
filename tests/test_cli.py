import json

import pytest

from noma_mec import FileUnreadable, TypeMismatch
from noma_mec.cli import CliConfig, load_scenario_file, run
from noma_mec.experiments import CampaignSummary


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
            with pytest.raises(TypeMismatch) as excinfo:
                load_scenario_file(str(config))
            assert excinfo.value.key == key
            assert message in str(excinfo.value)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            load_scenario_file(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text("{not json")
        with pytest.raises(FileUnreadable):
            load_scenario_file(str(config))

    def test_sweep_block(self, tmp_path):
        config = tmp_path / "scenario.json"
        for document, expected in [
            ({"n": 15, "dm": 20, "sweep": {"from": 20, "to": 40, "steps": 5}},
             CliConfig(n=15.0, dm=20.0, sweep_from=20.0, sweep_to=40.0, steps=5)),
            ({"n": 15, "dm": 20, "hn2": 2, "surface": {"tn": 5, "p1max": 3, "p2max": 4.5, "resolution": 7}},
             CliConfig(n=15.0, dm=20.0, hn2=2.0, tn=5.0, p1max=3.0, p2max=4.5, resolution=7)),
        ]:
            config.write_text(json.dumps(document))
            assert load_scenario_file(str(config)) == expected

    def test_boolean_is_not_a_number(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": True, "dm": 20, "dn": 25}))
        with pytest.raises(TypeMismatch):
            load_scenario_file(str(config))

    def test_unknown_keys_ignored(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"n": 15, "dm": 20, "dn": 25, "comment": "hi"}))
        loaded = load_scenario_file(str(config))
        assert loaded.n == 15.0 and loaded.dn == 25.0


class TestSweepAndSurface:
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

    def test_failure_exits_two(self, capsys, monkeypatch):
        import noma_mec.cli as cli_module

        def fake_campaign(seed, count, tol=1e-10):
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
            ("verify", ["--seed", "--count", "--tol"]),
        ],
    )
    def test_every_flag_documented(self, capsys, sub, flags):
        _, out, _ = run_capture(capsys, [sub, "--help"])
        for flag in flags:
            assert flag in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_capture(capsys, ["explode"])
        assert code == 1
        assert "usage" in err

    def test_top_level_help(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0
        assert "solve" in out and "sweep" in out and "surface" in out and "verify" in out
