"""Command-line interface: subcommands, exit codes, and byte-stable outputs."""

import io
import json

import pytest

from moneyflow import cli
from moneyflow.anticipation import score_candidates, simulate_candidate
from moneyflow.cli import run_cli
from moneyflow.retrieval import Assignment


def invoke(*argv):
    out = io.StringIO()
    code = run_cli(list(argv), out=out)
    return code, out.getvalue()


class TestSimulate:
    def test_runs_builtin_scenario(self, tmp_path):
        code, output = invoke("simulate", "--scenario", "national-5", "--terms", "3")
        assert code == 0
        assert "# moneyflow simulate" in output
        assert "seed=42" in output
        assert "conservation=ok" in output
        assert "identities=ok" in output

    def test_writes_trace_and_record(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        record = tmp_path / "r.csv"
        code, _ = invoke("simulate", "--scenario", "two-agent-kernel", "--terms", "2",
                         "--trace", str(trace), "--record", str(record))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        assert record.read_text().startswith("#")

    def test_seed_override_shown(self):
        code, output = invoke("simulate", "--scenario", "national-5", "--terms", "1",
                              "--seed", "7")
        assert code == 0
        assert "seed=7" in output


class TestRecordVerify:
    def test_record_then_verify_ok(self, tmp_path):
        path = tmp_path / "r.csv"
        code, _ = invoke("record", "--scenario", "national-5", "--terms", "2",
                         "--out", str(path))
        assert code == 0
        code, output = invoke("verify", "--record", str(path))
        assert code == 0
        assert output.strip().endswith("identities=ok")

    def test_verify_tampered_exits_one(self, tmp_path):
        path = tmp_path / "r.csv"
        invoke("record", "--scenario", "national-5", "--terms", "1", "--out", str(path))
        text = path.read_text()
        tampered = text.replace("0,agent,GOV,0,", "0,agent,GOV,1,", 1)
        assert tampered != text
        path.write_text(tampered)
        code, output = invoke("verify", "--record", str(path))
        assert code == 1
        assert "VIOLATED" in output

    def test_json_format(self, tmp_path):
        path = tmp_path / "r.json"
        code, _ = invoke("record", "--scenario", "three-agent-cycle", "--terms", "2",
                         "--out", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["format"] == "moneyflow-record"
        code, _ = invoke("verify", "--record", str(path))
        assert code == 0


class TestFit:
    def test_fit_zero_target_converges(self, tmp_path):
        target = tmp_path / "t.csv"
        invoke("record", "--scenario", "three-agent-cycle", "--terms", "2",
               "--out", str(target))
        out_path = tmp_path / "fit.json"
        code, output = invoke("fit", "--scenario", "three-agent-cycle",
                              "--target", str(target), "--budget", "50",
                              "--out", str(out_path), "--strict")
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["converged"] is True
        assert doc["error"] == 0.0

    def test_strict_unconverged_exits_one(self, tmp_path):
        target = tmp_path / "t.csv"
        invoke("record", "--scenario", "three-agent-cycle", "--terms", "2",
               "--out", str(target))
        # Sabotage: fit a different scenario against this target with a tiny budget.
        code, _ = invoke("fit", "--scenario", "two-agent-kernel",
                         "--target", str(target), "--budget", "2", "--tol", "1e-12",
                         "--strict")
        assert code == 1


class TestAnticipate:
    def test_report_and_trajectory(self, tmp_path):
        report_path = tmp_path / "rep.json"
        traj_path = tmp_path / "traj.csv"
        code, output = invoke("anticipate", "--scenario", "national-5",
                              "--candidates", "3", "--replays", "2", "--horizon", "2",
                              "--dims", "consumption_flow,bond_flow",
                              "--out", str(report_path), "--trajectory-out", str(traj_path))
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert len(doc["candidates"]) == 3
        assert 0 <= doc["selected"] < 3
        lines = traj_path.read_text().splitlines()
        assert lines[0] == "term,consumption_flow,bond_flow"
        assert len(lines) == 3

    def test_degenerate_report_warns_on_stderr(self, capsys):
        # The headline invocation: no replay moves any of the default
        # aggregates within two terms, so every score is 1.0.
        code, output = invoke("anticipate", "--scenario", "national-5", "--horizon", "2",
                              "--candidates", "2", "--replays", "2")
        assert code == 0
        doc = json.loads(output[output.index("{"):])
        assert all(d == 0.0 for c in doc["candidates"] for d in c["divergences"])
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "diverged by 0.0" in err

    def test_empty_shock_pool_warns_on_stderr(self, capsys):
        # national-5 starts balanced, so no wake observes a deficit and the
        # reference candidate's pool is empty.
        code, output = invoke("anticipate", "--scenario", "national-5", "--horizon", "2",
                              "--candidates", "2", "--replays", "2")
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shock pool is empty" in err

    def test_nonempty_shock_pool_gets_no_pool_warning(self, capsys):
        # three-agent-skew starts unbalanced: the pool is not empty, but over
        # two terms no replay moves the flows, so only the general warning shows.
        code, output = invoke("anticipate", "--scenario", "three-agent-skew", "--horizon", "2",
                              "--candidates", "2", "--replays", "2")
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "diverged by 0.0" in err
        assert "shock pool" not in err

    def test_informative_report_is_silent(self, monkeypatch, capsys):
        # The acceptance-6 set: hidden offsets on three-agent-cycle make the
        # shock replays move the flows.
        def acceptance_6(spec, config):
            offsets = Assignment(offsets={"A": 30, "B": 0, "C": -15})
            candidates = [simulate_candidate(spec, cid, config.horizon_terms, config.dims)
                          for cid in range(config.candidates)]
            report = score_candidates(candidates, spec, config.replay, config.dims,
                                      {c.id: offsets for c in candidates})
            return report, candidates

        monkeypatch.setattr(cli, "anticipate", acceptance_6)
        code, output = invoke("anticipate", "--scenario", "three-agent-cycle", "--horizon", "6",
                              "--candidates", "2", "--replays", "4",
                              "--dims", "ab_flow,bc_flow,ca_flow")
        assert code == 0
        doc = json.loads(output[output.index("{"):])
        assert any(d > 0.0 for c in doc["candidates"] for d in c["divergences"])
        assert capsys.readouterr().err == ""


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        code, _ = invoke("simulate", "--scenario", "national-5", "--frobnicate")
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        code, _ = invoke("explode")
        assert code == 2

    def test_unknown_scenario_exits_two(self, capsys):
        code, _ = invoke("simulate", "--scenario", "no-such-thing")
        assert code == 2

    def test_scenario_dir_env(self, tmp_path, monkeypatch):
        from moneyflow import national_5

        (tmp_path / "mine.json").write_text(national_5().to_json())
        monkeypatch.setenv("MONEYFLOW_SCENARIO_DIR", str(tmp_path))
        code, output = invoke("simulate", "--scenario", "mine", "--terms", "1")
        assert code == 0

    def test_directory_does_not_shadow_a_builtin(self, tmp_path, monkeypatch):
        expected = invoke("simulate", "--scenario", "national-5", "--terms", "2")
        assert expected[0] == 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "national-5").mkdir()
        assert invoke("simulate", "--scenario", "national-5", "--terms", "2") == expected

    def test_directory_does_not_shadow_the_scenario_dir(self, tmp_path, monkeypatch, capsys):
        from moneyflow import national_5

        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        (scenarios / "mine.json").write_text(national_5().to_json())
        (tmp_path / "mine").mkdir()
        (scenarios / "mine").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MONEYFLOW_SCENARIO_DIR", str(scenarios))
        assert invoke("simulate", "--scenario", "mine", "--terms", "1")[0] == 0
        assert capsys.readouterr().err == ""


class TestParseErrors:
    """Malformed input and arguments exit 2 with a message, never a traceback."""

    def json_record(self, tmp_path, edit):
        path = tmp_path / "r.json"
        invoke("record", "--scenario", "two-agent-kernel", "--terms", "1", "--out", str(path),
               "--format", "json")
        doc = json.loads(path.read_text())
        edit(doc["sheets"][0])
        path.write_text(json.dumps(doc))
        return path

    def test_verify_sheet_without_term_index(self, tmp_path, capsys):
        path = self.json_record(tmp_path, lambda sheet: sheet.pop("term_index"))
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert "term_index" in capsys.readouterr().err

    def test_verify_string_opening(self, tmp_path, capsys):
        path = self.json_record(tmp_path, lambda sheet: sheet["agents"]["A"].update(opening="opening"))
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert "opening" in capsys.readouterr().err

    def test_simulate_agents_not_objects(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"agents": [1, 2]}))
        code, _ = invoke("simulate", "--scenario", str(path))
        assert code == 2
        assert "agents must be a list of objects" in capsys.readouterr().err

    def test_simulate_term_length_not_a_number(self, tmp_path, capsys):
        from moneyflow import two_agent_kernel

        doc = two_agent_kernel().to_dict()
        doc["term_length"] = "abc"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, _ = invoke("simulate", "--scenario", str(path), "--terms", "1")
        assert code == 2
        assert "term_length" in capsys.readouterr().err

    def test_simulate_agent_id_a_record_cannot_hold(self, tmp_path, capsys):
        from moneyflow import two_agent_kernel

        doc = json.loads(two_agent_kernel().to_json().replace('"A"', '"A,1"'))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, _ = invoke("simulate", "--scenario", str(path), "--terms", "1")
        assert code == 2
        assert "agent id 'A,1': a record cannot hold" in capsys.readouterr().err

    def test_simulate_wake_rate_above_ceiling(self, tmp_path, monkeypatch, capsys):
        from moneyflow import two_agent_kernel

        def must_not_run(*args, **kwargs):
            raise AssertionError("the scenario was run")

        monkeypatch.setattr(cli, "run_record", must_not_run)
        doc = two_agent_kernel().to_dict()
        doc["agents"][1]["mean_wait"] = 1e-300
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, _ = invoke("simulate", "--scenario", str(path), "--terms", "1")
        assert code == 2
        assert "per term" in capsys.readouterr().err

    def test_record_negative_terms(self, tmp_path, capsys):
        code, _ = invoke("record", "--scenario", "two-agent-kernel", "--terms", "-2",
                         "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_anticipate_negative_horizon(self, capsys):
        code, _ = invoke("anticipate", "--scenario", "two-agent-kernel", "--horizon", "-1")
        assert code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("anticipate", "--replays", "0"),
        ("anticipate", "--replays", "-1"),
        ("anticipate", "--jobs", "0"),
        ("anticipate", "--jobs", "-1"),
        ("anticipate", "--candidates", "0"),
        ("fit", "--starts", "0", "--target", "t.csv"),
        ("fit", "--starts", "-1", "--target", "t.csv"),
        ("fit", "--budget", "0", "--target", "t.csv"),
        ("fit", "--prefix", "0", "--target", "t.csv"),
        ("fit", "--prefix", "-1", "--target", "t.csv"),
    ])
    def test_count_options_need_positive_integers(self, argv, capsys):
        code, output = invoke(argv[0], "--scenario", "two-agent-kernel", *argv[1:])
        assert code == 2
        assert output == ""
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("simulate", "--seed", str(2 ** 64)), "unsigned 64-bit integer"),
        (("simulate", "--seed", "-1"), "unsigned 64-bit integer"),
        (("fit", "--tol", "nan", "--target", "t.csv"), "expected a finite number"),
        (("anticipate", "--shock-scale", "nan"), "expected a finite number"),
        (("anticipate", "--shock-scale", "1e400"), "expected a finite number"),
        (("anticipate", "--horizon", "1", "--candidates", "1", "--replays", "1",
          "--dims", "nope"), "unknown trajectory dimension 'nope'"),
        (("anticipate", "--bound", "nan"), "expected a finite number"),
        (("anticipate", "--bound", "3"), "sampler bound must lie in [0, 1], got 3.0"),
        (("anticipate", "--bound", "-3"), "sampler bound must lie in [0, 1], got -3.0"),
    ], ids=["seed-2**64", "seed-negative", "tol-nan", "shock-scale-nan", "shock-scale-1e400",
            "dims-unknown", "bound-nan", "bound-3", "bound-negative"])
    def test_malformed_option_values(self, argv, message, capsys):
        code, output = invoke(argv[0], "--scenario", "two-agent-kernel", *argv[1:])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err and "KeyError" not in err

    @pytest.mark.parametrize("kind,argv", [
        ("directory", ("verify", "--record")),
        ("directory", ("fit", "--scenario", "two-agent-kernel", "--target")),
        ("directory", ("simulate", "--scenario")),
        ("directory", ("record", "--scenario", "two-agent-kernel", "--terms", "1", "--out")),
        ("latin-1", ("verify", "--record")),
        ("latin-1", ("fit", "--scenario", "two-agent-kernel", "--target")),
        ("latin-1", ("simulate", "--scenario")),
    ], ids=["verify-directory", "fit-directory", "simulate-directory", "record-directory",
            "verify-latin-1", "fit-latin-1", "simulate-latin-1"])
    def test_unreadable_paths(self, tmp_path, kind, argv, capsys):
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("# caf\xe9\n".encode("latin-1"))
        code, _ = invoke(*argv, str(path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("moneyflow: error: ") and err.count("\n") == 1
        assert ("Is a directory" if kind == "directory" else "codec can't decode") in err

    @pytest.mark.parametrize("bad", ["scenario", "target"])
    def test_non_utf8_input_is_named(self, tmp_path, bad, capsys):
        from moneyflow import two_agent_kernel

        files = {"scenario": tmp_path / "caf.json", "target": tmp_path / "bad.bin"}
        invoke("record", "--scenario", "two-agent-kernel", "--terms", "1",
               "--out", str(files["target"]))
        files["scenario"].write_text(two_agent_kernel().to_json(), encoding="utf-8")
        files[bad].write_bytes(files[bad].read_bytes() + "# caf\xe9".encode("latin-1"))
        capsys.readouterr()
        code, _ = invoke("fit", "--scenario", str(files["scenario"]),
                         "--target", str(files["target"]))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"moneyflow: error: {files[bad]}: not UTF-8 (")
        assert err.endswith(f" at byte {files[bad].stat().st_size - 1})\n")
        assert err.count("\n") == 1

    def test_fit_prefix_beyond_target(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        invoke("record", "--scenario", "two-agent-kernel", "--terms", "2", "--out", str(target))
        code, _ = invoke("fit", "--scenario", "two-agent-kernel", "--target", str(target),
                         "--prefix", "3")
        assert code == 2
        err = capsys.readouterr().err
        assert err == "moneyflow: error: prefix of 3 terms is outside the target's 1..2\n"


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        outputs = []
        files = []
        for i in range(2):
            rec = tmp_path / f"r{i}.csv"
            code, output = invoke("record", "--scenario", "national-5", "--terms", "2",
                                  "--out", str(rec))
            assert code == 0
            outputs.append(output.replace(f"r{i}.csv", "r.csv"))
            files.append(rec.read_bytes())
        assert outputs[0] == outputs[1]
        assert files[0] == files[1]
