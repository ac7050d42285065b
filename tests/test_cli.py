"""Command-line interface: subcommands, exit codes, and byte-stable outputs."""

import contextlib
import io
import json
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from moneyflow import cli, national_5, three_agent_cycle
from moneyflow.anticipation import score_candidates, simulate_candidate
from moneyflow.cli import run_cli
from moneyflow.retrieval import Assignment

from conftest import overflowing_cycle


def invoke(*argv):
    out = io.StringIO()
    code = run_cli(list(argv), out=out)
    return code, out.getvalue()


# The stderr line of every `anticipate` run, before the per-candidate counts.
MOVED = "moneyflow: replays that moved a dim (nonzero divergence), per candidate: "


def n5_stock_doc():
    """national-5 with a household-stock figure and the tax policy from t = 1."""
    doc = national_5().to_dict()
    doc["figures"].append({"name": "hh_stock", "stock": "HH"})
    doc["policy_schedule"] = [{"time": 1.0, "action": "set_multiplier", "target": target,
                               "value": "3/10"} for target in ("tax_hh", "tax_corp")]
    return doc


def huge_rate_cycle():
    """three-agent-cycle with channel ab at 10**320 a term, past the float range."""
    doc = three_agent_cycle().to_dict()
    next(c for c in doc["channels"] if c["id"] == "ab")["rate"] = 10**320
    return doc


def n5_stock(tmp_path):
    path = tmp_path / "n5-stock.json"
    path.write_text(json.dumps(n5_stock_doc()))
    return path


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

    def test_rational_past_the_digit_limits_exits_two_at_once(self, tmp_path, capsys):
        doc = three_agent_cycle().to_dict()
        next(a for a in doc["agents"] if a["id"] == "A")["gain"] = "1e-100000"
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, output = invoke("simulate", "--scenario", str(path), "--terms", "2")
        assert time.perf_counter() - start < 1
        assert (code, output) == (2, "")
        assert capsys.readouterr().err == ("moneyflow: error: agent 'A' gain: '1e-100000' has more "
                                           "than 1000 significant digits or an exponent past 1000\n")

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

    def test_target_that_violates_identities_warns_on_stderr(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        invoke("record", "--scenario", "three-agent-cycle", "--terms", "1", "--out", str(target))
        target.write_text(target.read_text().replace("0,agent,A,0,", "0,agent,A,1,", 1))
        capsys.readouterr()
        code, _ = invoke("fit", "--scenario", "three-agent-cycle", "--target", str(target),
                         "--budget", "5")
        assert code == 0
        assert capsys.readouterr().err == (f"moneyflow: warning: {target}: accounting identities "
                                           "violated: term0:continuity:A (off by -1)\n")

    def test_strict_unconverged_exits_one(self, tmp_path):
        target = tmp_path / "t.csv"
        invoke("record", "--scenario", "three-agent-cycle", "--terms", "2",
               "--out", str(target))
        # A scenario with the same figure keys that two evaluations cannot fit.
        code, output = invoke("fit", "--scenario", "three-agent-skew",
                              "--target", str(target), "--budget", "2", "--tol", "1e-12",
                              "--strict")
        assert code == 1
        doc = json.loads(output[output.index("{"):])
        assert doc["converged"] is False
        assert doc["evaluations"] == 2


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
        assert err.count("\n") == 2
        assert err.startswith(MOVED + "0: 0/2, 1: 0/2\n")
        assert "diverged by 0.0" in err

    def test_empty_shock_pool_warns_on_stderr(self, capsys):
        # national-5 starts balanced, so no wake observes a deficit and the
        # reference candidate's pool is empty.
        code, output = invoke("anticipate", "--scenario", "national-5", "--horizon", "2",
                              "--candidates", "2", "--replays", "2")
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 2
        assert "shock pool is empty" in err

    def test_nonempty_shock_pool_gets_no_pool_warning(self, tmp_path, capsys):
        # three-agent-skew starts unbalanced: the pool is not empty, but no
        # candidate carries offsets, so no replay shock moves a flow.
        report_path = tmp_path / "rep.json"
        code, output = invoke("anticipate", "--scenario", "three-agent-skew", "--horizon", "2",
                              "--candidates", "2", "--replays", "2",
                              "--dims", "ab_flow,bc_flow", "--out", str(report_path))
        assert code == 0
        assert output[output.index("{"):] == report_path.read_text()
        err = capsys.readouterr().err
        assert err.count("\n") == 2
        assert "diverged by 0.0" in err
        assert "shock pool" not in err
        assert "no candidate carries offsets, so no snapshot is stale" in err
        # A scale whose shocks pass the float range draws none here: no replay runs.
        code, _ = invoke("anticipate", "--scenario", "three-agent-skew", "--horizon", "2",
                         "--candidates", "2", "--replays", "2", "--dims", "ab_flow,bc_flow",
                         "--shock-scale", "1e308")
        assert code == 0
        assert "no candidate carries offsets, so no snapshot is stale" in capsys.readouterr().err

    def test_equal_divergences_warn_on_stderr(self, tmp_path, capsys):
        # national-5 with a household-stock figure and the tax policy from
        # t = 1: candidate 0 observes deficits, so the shocks are not 0, but
        # no shock moves a flow and HH's stock departs by exactly the shocks,
        # the same in every candidate. One replay of four leaves it where it was.
        scenario, report_path = n5_stock(tmp_path), tmp_path / "rep.json"
        code, output = invoke("anticipate", "--scenario", str(scenario), "--horizon", "2",
                              "--candidates", "2", "--replays", "4", "--dims", "hh_stock",
                              "--out", str(report_path))
        assert code == 0
        assert output[output.index("{"):] == report_path.read_text()
        first, second = (c["divergences"] for c in json.loads(report_path.read_text())["candidates"])
        assert first == second and any(d > 0.0 for d in first) and 0.0 in first
        err = capsys.readouterr().err
        assert err.count("\n") == 2
        assert err.startswith(MOVED + "0: 3/4, 1: 3/4\n")
        assert "diverged by the same amounts" in err
        assert "only the tie-break" in err
        assert ("warning: every dim is a stock figure, which moves by the shocks alone, and "
                "every candidate faces the same shocks: every candidate's shock replays") in err
        # With a flow dim beside it the ties remain, but the cause is not named.
        code, _ = invoke("anticipate", "--scenario", str(scenario), "--horizon", "2",
                         "--candidates", "2", "--replays", "4", "--dims", "hh_stock,consumption_flow")
        err = capsys.readouterr().err
        assert code == 0
        assert "warning: every candidate's shock replays diverged by the same amounts" in err
        assert "stock figure" not in err

    def test_jobs_is_no_option(self, capsys):
        code, output = invoke("anticipate", "--scenario", "three-agent-cycle", "--horizon", "2",
                              "--candidates", "2", "--replays", "2", "--jobs", "2")
        assert (code, output) == (2, "")
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_fit_candidates_is_no_option(self, capsys):
        code, output = invoke("anticipate", "--scenario", "three-agent-cycle", "--horizon", "2",
                              "--candidates", "2", "--replays", "2", "--fit-candidates")
        assert (code, output) == (2, "")
        assert "unrecognized arguments: --fit-candidates" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "0.0001"])
    def test_shock_scale_that_zeroes_every_shock_is_named(self, tmp_path, capsys, scale):
        # The pool is not empty and the only dim is a stock figure, but every
        # pool value times the scale rounds to a zero shock.
        code, output = invoke("anticipate", "--scenario", str(n5_stock(tmp_path)), "--horizon", "2",
                              "--candidates", "2", "--replays", "4", "--dims", "hh_stock",
                              "--shock-scale", scale)
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith(MOVED + "0: 0/4, 1: 0/4\n")
        assert (f"warning: --shock-scale {float(scale)!r} rounds every value of the shock pool "
                "to 0, so every replay shock was 0 and every shock replay") in err
        assert "no candidate carries offsets" not in err

    def test_shock_scale_past_the_float_range(self, tmp_path, capsys):
        code, _ = invoke("anticipate", "--scenario", str(n5_stock(tmp_path)), "--horizon", "2",
                         "--candidates", "2", "--replays", "4", "--dims", "hh_stock",
                         "--shock-scale", "1e308")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("moneyflow: error: --shock-scale 1e+308 times the shock pool value ")
        assert err.endswith(" exceeds the float range\n") and err.count("\n") == 1

    def test_deficit_past_the_float_range(self, tmp_path, capsys):
        # The shock pool holds |observed deficit| as floats; B observes 10**320.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(huge_rate_cycle()))
        code, _ = invoke("anticipate", "--scenario", str(path), "--horizon", "2",
                         "--candidates", "2", "--replays", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("moneyflow: error: agent 'B' observes a deficit past the float range at t=")
        assert err.count("\n") == 1
        assert invoke("simulate", "--scenario", str(path), "--terms", "2")[0] == 0

    def test_stock_dim_without_channels(self, tmp_path, capsys):
        # With no channel there is nothing to shock: every replay diverges by 0.0.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(NO_CHANNELS))
        code, output = invoke("anticipate", "--scenario", str(path), "--dims", "a_stock",
                              "--horizon", "2", "--candidates", "1", "--replays", "2")
        assert code == 0
        assert json.loads(output[output.index("{"):])["candidates"][0]["divergences"] == [0.0, 0.0]
        err = capsys.readouterr().err
        assert err.startswith(MOVED + "0: 0/2\n")
        assert "every shock replay of every candidate diverged by 0.0" in err

    def test_informative_report_gets_no_warning(self, monkeypatch, capsys):
        # The acceptance-6 set: hidden offsets on three-agent-cycle make the
        # shock replays move the flows, and candidate 1's gain override (as
        # in acceptance 6) makes its divergences differ from candidate 0's.
        def acceptance_6(spec, config):
            offsets = {"A": 30, "B": 0, "C": -15}
            candidates = [simulate_candidate(spec, cid, config.horizon_terms, config.dims)
                          for cid in range(config.candidates)]
            gains = [{}, dict.fromkeys("ABC", Fraction(2))]
            assignments = {c.id: Assignment(offsets=offsets, gain_overrides=gains[c.id])
                           for c in candidates}
            report = score_candidates(candidates, spec, config.replay, config.dims, assignments)
            return report, candidates

        monkeypatch.setattr(cli, "anticipate", acceptance_6)
        code, output = invoke("anticipate", "--scenario", "three-agent-cycle", "--horizon", "6",
                              "--candidates", "2", "--replays", "4",
                              "--dims", "ab_flow,bc_flow,ca_flow")
        assert code == 0
        doc = json.loads(output[output.index("{"):])
        assert any(d > 0.0 for c in doc["candidates"] for d in c["divergences"])
        assert doc["candidates"][0]["divergences"] != doc["candidates"][1]["divergences"]
        assert capsys.readouterr().err == MOVED + "0: 2/4, 1: 2/4\n"


def parse_outcome(parser, argv):
    """Exit code, stdout and stderr of one `parse_args` that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exited:
            parser.parse_args(argv)
    return exited.value.code, out.getvalue(), err.getvalue()


# Per subcommand: its --help, then a missing required option, an unknown
# option and a bad value, each against otherwise valid arguments.
PARSER_CASES = {
    "simulate": [["--help"], [], ["--scenario", "x", "--bogus"],
                 ["--scenario", "x", "--terms", "-1"]],
    "record": [["--help"], ["--scenario", "x"], ["--scenario", "x", "--out", "o", "--bogus"],
               ["--scenario", "x", "--out", "o", "--format", "xml"]],
    "verify": [["--help"], [], ["--record", "r", "--bogus"], ["--record"]],
    "fit": [["--help"], ["--scenario", "x"], ["--scenario", "x", "--target", "t", "--bogus"],
            ["--scenario", "x", "--target", "t", "--budget", "0"]],
    "anticipate": [["--help"], ["--horizon", "2"], ["--scenario", "x", "--bogus"],
                   ["--scenario", "x", "--shock-scale", "nan"]],
}


class TestUsageErrors:
    @pytest.mark.parametrize("command", list(PARSER_CASES))
    def test_one_subcommand_parser_reads_as_the_full_one(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in ([command, *rest] for rest in PARSER_CASES[command]):
            full = parse_outcome(cli.build_parser(), argv)
            assert parse_outcome(cli.build_parser(command), argv) == full
            assert full[0] == (0 if "--help" in argv else 2) and (full[1] or full[2])

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--scenario", "x", "simulate"]])
    def test_top_level_help_and_errors_list_every_subcommand(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        full = parse_outcome(cli.build_parser(), argv)
        assert all(parse_outcome(cli.build_parser(command), argv) == full
                   for command in PARSER_CASES)
        assert all(command in full[1] + full[2] for command in PARSER_CASES)

    def test_unknown_flag_exits_two(self, capsys):
        code, _ = invoke("simulate", "--scenario", "national-5", "--frobnicate")
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        code, _ = invoke("explode")
        assert code == 2

    def test_unknown_scenario_exits_two(self, capsys):
        code, _ = invoke("simulate", "--scenario", "no-such-thing")
        assert code == 2

    def test_fit_target_of_another_scenario_exits_two(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        invoke("record", "--scenario", "three-agent-cycle", "--terms", "2",
               "--out", str(target))
        code, _ = invoke("fit", "--scenario", "two-agent-kernel", "--target", str(target))
        assert code == 2
        assert "figure sets differ" in capsys.readouterr().err

    def test_fit_target_that_adds_a_rate_in_another_term_exits_two(self, tmp_path, capsys):
        # Both scenarios add the rate new_rate, one in term 1 and one in term 2.
        paths = []
        for time in (1.5, 2.5):
            doc = three_agent_cycle().to_dict()
            doc["policy_schedule"].append({"time": time, "action": "set_rate",
                                           "target": "new_rate", "value": "1/10"})
            paths.append(tmp_path / f"rate-at-{time}.json")
            paths[-1].write_text(json.dumps(doc))
        target = tmp_path / "t.csv"
        invoke("record", "--scenario", str(paths[1]), "--terms", "3", "--out", str(target))
        capsys.readouterr()
        code, _ = invoke("fit", "--scenario", str(paths[0]), "--target", str(target),
                         "--budget", "30")
        assert code == 2
        assert capsys.readouterr().err == (
            "moneyflow: error: term 1: figure sets differ: ['new_rate']\n")

    def test_fit_target_of_another_term_length_exits_two(self, tmp_path, capsys):
        from moneyflow import three_agent_cycle

        doc = three_agent_cycle().to_dict()
        doc["term_length"] = 2.0
        scenario, target = tmp_path / "long-terms.json", tmp_path / "t.csv"
        scenario.write_text(json.dumps(doc))
        invoke("record", "--scenario", str(scenario), "--terms", "2", "--out", str(target))
        code, _ = invoke("fit", "--scenario", "three-agent-cycle", "--target", str(target),
                         "--budget", "30")
        assert code == 2
        assert "term_length 2.0" in capsys.readouterr().err

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

    def test_verify_csv_agent_repeated(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        invoke("record", "--scenario", "two-agent-kernel", "--terms", "1", "--out", str(path))
        lines = path.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("0,agent,A,"))
        lines.insert(row + 1, lines[row])
        path.write_text("".join(lines))
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert f"line {row + 2} column 3: agent 'A' repeated in term 0" in capsys.readouterr().err

    def test_verify_csv_agent_row_with_aggregates(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        invoke("record", "--scenario", "three-agent-cycle", "--terms", "2", "--out", str(path))
        lines = path.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("0,agent,C,"))
        lines[row] = lines[row].rstrip("\n") + " closing:A=5\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert capsys.readouterr().err == (f"moneyflow: error: line {row + 1} column 8: agent row "
                                           "holds ' closing:A=5', where it must be empty\n")

    @pytest.mark.parametrize("edit,message", [
        (lambda sheet: sheet["agents"]["A"].update(closng=5), "sheet 0 agent 'A': unknown key 'closng'"),
        (lambda sheet: sheet.update(figurs={"ab_flow": 5}), "sheet 0: unknown key 'figurs'"),
    ], ids=["agent", "sheet"])
    def test_verify_json_unknown_key(self, tmp_path, capsys, edit, message):
        path = self.json_record(tmp_path, edit)
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert f"moneyflow: error: {message}\n" in capsys.readouterr().err

    def test_verify_json_agent_repeated(self, tmp_path, capsys):
        line = '{"opening": 0, "inflow": 0, "outflow": 0, "closing": 0}'
        path = tmp_path / "r.json"
        path.write_text('{"format": "moneyflow-record", "sheets": [{"term_index": 0, '
                        f'"agents": {{"A": {line}, "B": {line}, "A": {line}}}}}]}}')
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert "sheet 0 agents: key 'A' repeated" in capsys.readouterr().err

    def test_verify_csv_aggregate_named_like_an_agent_figure(self, tmp_path, capsys):
        # Read as an aggregate, it would stand twice among term 0's figure keys.
        path = tmp_path / "r.csv"
        invoke("record", "--scenario", "three-agent-cycle", "--terms", "2", "--out", str(path))
        lines = path.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("0,aggregates,"))
        lines[row] = lines[row].rstrip("\n") + " closing:A=5\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert capsys.readouterr().err == (f"moneyflow: error: line {row + 1} column 8: aggregate "
                                           "'closing:A' has the name of the closing figure of agent 'A'\n")

    def test_figure_named_like_an_aggregate(self, tmp_path, capsys):
        from moneyflow import three_agent_cycle

        doc = three_agent_cycle().to_dict()
        doc["figures"].append({"name": "notes_outstanding", "stock": "A"})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, _ = invoke("record", "--scenario", str(path), "--terms", "1",
                         "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "figure name 'notes_outstanding' is the name of another record figure" \
            in capsys.readouterr().err

    def test_rate_named_like_an_aggregate(self, tmp_path, capsys):
        from moneyflow import three_agent_cycle

        doc = three_agent_cycle().to_dict()
        doc["rates"]["notes_outstanding"] = "1/8"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, _ = invoke("record", "--scenario", str(path), "--terms", "1",
                         "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "rate name 'notes_outstanding' is the name of another record figure" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command,edit,message", [
        ("simulate", lambda d: d["figures"][0].update(channel=["ab"]),
         "figure entry: channel must be a JSON string, got ['ab']"),
        ("anticipate", lambda d: d["figures"][0].update(channel=["ab"]),
         "figure entry: channel must be a JSON string, got ['ab']"),
        ("simulate", lambda d: d["figures"].append({"name": "a_stock", "stock": 1}),
         "figure entry: stock must be a JSON string, got 1"),
        ("simulate", lambda d: d["figures"][0].update(name=7), "figure entry: name must be a JSON string"),
        ("simulate", lambda d: d["policy_schedule"].append(
            {"time": 0.5, "action": "set_rate", "target": ["x"], "value": "0.1"}),
         "policy entry: target must be a JSON string, got ['x']"),
        ("simulate", lambda d: d["shock_schedule"].append({"time": 0.5, "channel": ["ab"], "amount": 5}),
         "shock entry: channel must be a JSON string, got ['ab']"),
        ("simulate", lambda d: d["channels"][0].update(adjustable="false"),
         "channel 'ab': adjustable must be a JSON boolean, got 'false'"),
        ("simulate", lambda d: d["channels"][0].update(adjustable=0),
         "channel 'ab': adjustable must be a JSON boolean, got 0"),
        ("simulate", lambda d: d["channels"][0].update(id=1), "channel: id must be a JSON string"),
        ("simulate", lambda d: d["channels"][0].update(source=["A"]), "source must be a JSON string"),
        ("simulate", lambda d: d["channels"][0].update(sink=None), "sink must be a JSON string"),
        ("simulate", lambda d: d["agents"][1].update(id=["A"]), "agent: id must be a JSON string"),
        ("simulate", lambda d: d["agents"][1].update(role=False), "role must be a JSON string"),
        ("simulate", lambda d: d.update(name=["x", 1]),
         "scenario: name must be a JSON string, got ['x', 1]"),
        ("simulate", lambda d: d.update(name="a\nb"),
         "scenario: name must not contain a line break, got 'a\\nb'"),
    ], ids=["figure-channel", "anticipate-figure-channel", "figure-stock", "figure-name",
            "policy-target", "shock-channel", "adjustable-string", "adjustable-int", "channel-id",
            "channel-source", "channel-sink", "agent-id", "agent-role", "scenario-name",
            "scenario-name-line-break"])
    def test_scenario_field_types(self, tmp_path, command, edit, message, capsys):
        from moneyflow import three_agent_cycle

        doc = three_agent_cycle().to_dict()
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        extra = ("--candidates", "1", "--replays", "1", "--horizon", "1") if command == "anticipate" \
            else ("--terms", "1")
        code, _ = invoke(command, "--scenario", str(path), *extra)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("moneyflow: error: ") and message in err

    @pytest.mark.parametrize("argv", [("simulate", "--scenario"), ("verify", "--record"),
                                      ("fit", "--scenario", "two-agent-kernel", "--target")])
    def test_deep_nesting(self, tmp_path, argv, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, _ = invoke(*argv, str(path))
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"moneyflow: error: {path}: JSON nested too deeply to read\n"

    def test_verify_term_length_not_positive(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        invoke("record", "--scenario", "two-agent-kernel", "--terms", "1", "--out", str(path),
               "--format", "json")
        path.write_text(path.read_text().replace('"term_length": 1.0', '"term_length": -1'))
        code, _ = invoke("verify", "--record", str(path))
        assert code == 2
        assert "term_length: must be positive, got -1.0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [("simulate", "--terms", "1"), ("record", "--out", "r.csv"),
                                      ("fit", "--target", "target.csv", "--budget", "2"),
                                      ("anticipate", "--horizon", "1", "--replays", "1")])
    def test_invalid_scenario_prints_no_header(self, tmp_path, monkeypatch, argv, capsys):
        # The scenario is rejected as it is loaded, before the `#` header.
        monkeypatch.chdir(tmp_path)
        assert invoke("record", "--scenario", "three-agent-cycle", "--out", "target.csv")[0] == 0
        doc = three_agent_cycle().to_dict()
        doc["channels"].append({"id": "aa", "source": "A", "sink": "A", "rate": 5})
        Path("s.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code, output = invoke(argv[0], "--scenario", "s.json", *argv[1:])
        assert (code, output) == (2, "")
        assert capsys.readouterr().err == "moneyflow: error: channel 'aa': self-loop on agent 'A'\n"

    @pytest.mark.parametrize("argv", [("simulate", "--terms", "2"),
                                      ("anticipate", "--horizon", "2", "--candidates", "2",
                                       "--replays", "2")])
    def test_loop_end_that_overflows(self, tmp_path, argv, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(overflowing_cycle()))
        code, _ = invoke(argv[0], "--scenario", str(path), *argv[1:])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("moneyflow: error: 2 terms of term_length 1e+308 end past the largest float")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert invoke("simulate", "--scenario", str(path), "--terms", "1")[0] == 0

    def test_dim_past_the_float_range(self, tmp_path, capsys):
        # One term of 1e308 settles about 3e310 on ab, which no float holds.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(overflowing_cycle()))
        code, _ = invoke("anticipate", "--scenario", str(path), "--horizon", "1",
                         "--candidates", "2", "--replays", "2", "--dims", "ab_flow")
        assert code == 2
        assert capsys.readouterr().err == (
            "moneyflow: error: term 0: trajectory dimension 'ab_flow' exceeds the float range\n")

    def test_issuance_that_retires_notes_not_outstanding(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(retiring_issuance()))
        code, _ = invoke("simulate", "--scenario", str(path), "--terms", "2")
        assert code == 2
        assert capsys.readouterr().err == ("moneyflow: error: retirement of 5 would drive notes "
                                           "outstanding below zero (currently 0)\n")

    def test_fit_on_a_target_past_the_float_range(self, tmp_path, capsys):
        # One term of 1e308 records outflows near 3e310, which no float holds.
        scenario, target = tmp_path / "s.json", tmp_path / "t.csv"
        scenario.write_text(json.dumps(overflowing_cycle()))
        assert invoke("record", "--scenario", str(scenario), "--terms", "1",
                      "--out", str(target))[0] == 0
        capsys.readouterr()
        code, _ = invoke("fit", "--scenario", str(scenario), "--target", str(target),
                         "--budget", "5")
        assert code == 2
        assert capsys.readouterr().err == (
            "moneyflow: error: target figure 'inflow:A' exceeds the float range\n")

    def test_record_negative_terms(self, tmp_path, capsys):
        code, _ = invoke("record", "--scenario", "two-agent-kernel", "--terms", "-2",
                         "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("anticipate", "--replays", "0"),
        ("anticipate", "--replays", "-1"),
        ("anticipate", "--candidates", "-1"),
        ("fit", "--budget", "-1", "--target", "t.csv"),
        ("anticipate", "--candidates", "0"),
        ("fit", "--starts", "0", "--target", "t.csv"),
        ("fit", "--starts", "-1", "--target", "t.csv"),
        ("fit", "--budget", "0", "--target", "t.csv"),
        ("fit", "--prefix", "0", "--target", "t.csv"),
        ("fit", "--prefix", "-1", "--target", "t.csv"),
        ("anticipate", "--horizon", "0"),
        ("anticipate", "--horizon", "-1"),
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


@st.composite
def cli_cases(draw):
    """A scenario document at the edges, and the options to run it with.

    Term lengths, mean waits, schedule times and channel rates reach the
    float extremes; issuance may retire notes that are not outstanding;
    securities are issued and retired; policies set multipliers and rates,
    declared or new, and a rate may take a name the record already uses;
    there may be no channel; a reference may dangle and an id may be one a
    record cannot hold; figures watch channels and stocks, and `--dims`
    names them, stocks most often.
    """
    term_length = draw(st.sampled_from([1.0, 1.0, 0.75, 5e-324, 1e308]))
    ids = ["CB", *draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True))]
    wait = draw(st.sampled_from([max(term_length / 2, 0.25)] * 4 + [0.25, 5e-324, 1e308, 0.0]))
    agents = [{"id": aid, "role": "CentralBank" if aid == "CB" else "Custom:x",
               "stock": draw(st.integers(0, 100)), "gain": draw(st.sampled_from(["0", "1/2", "3"])),
               "mean_wait": wait} for aid in ids]
    if draw(st.sampled_from([False] * 9 + [True])):
        agents.append({"id": draw(st.sampled_from(["A,1", "CB"])), "role": "Custom:x"})
    refs = st.sampled_from(ids * 4 + ["Z"])
    channels = []
    for i in range(draw(st.integers(0, 3))):
        source, sink = draw(st.lists(refs, min_size=2, max_size=2, unique=True))
        channels.append({"id": f"c{i}", "source": source, "sink": sink,
                         "rate": draw(st.sampled_from([0, 5, 40, 300] * 2 + [-2, 10**320])),
                         "multiplier": draw(st.sampled_from(["1"] * 4 + ["1/2", "3/2", "0", "-1"])),
                         "adjustable": draw(st.sampled_from([True, True, False]))})
    channel_refs = st.sampled_from([c["id"] for c in channels] * 6 + ["c9"])
    times = st.sampled_from([0.0, term_length / 2, term_length / 2, 1.5 * term_length,
                             1.5 * term_length, 5e-324, 1e308, -1.0])
    some = st.integers(0, 2) if channels else st.sampled_from([0] * 7 + [1])
    figures = [{"name": f"flow{i}", "channel": draw(channel_refs)} for i in range(draw(some))]
    figures += [{"name": f"stock{i}", "stock": draw(refs)} for i in range(draw(st.integers(0, 2)))]
    doc = {
        "name": "fuzz",
        "seed": draw(st.integers(0, 3)),
        "term_length": term_length,
        "agents": agents,
        "channels": channels,
        "issuance_schedule": draw(st.lists(st.tuples(times, st.integers(-60, 60)), max_size=2)),
        "shock_schedule": [{"time": draw(times), "channel": draw(channel_refs),
                            "amount": draw(st.integers(-60, 60))} for _ in range(draw(some))],
        "securities_schedule": draw(st.lists(st.tuples(times, st.integers(-60, 60)), max_size=2)),
        "policy_schedule": [{"time": draw(times), "action": "set_multiplier",
                             "target": draw(channel_refs),
                             "value": draw(st.sampled_from(["2", "1/2"]))}
                            for _ in range(draw(some) // 2)],
        "figures": figures,
    }
    for _ in range(draw(st.integers(0, 2))):
        doc["policy_schedule"].append({
            "time": draw(times), "action": "set_rate",
            "target": draw(st.sampled_from(["discount_rate", "discount_rate", "new_rate",
                                            "new_rate", "notes_outstanding", "flow0"])),
            "value": draw(st.sampled_from(["1/10", "3/100", "0", "-1/2"]))})
    stocks = [f["name"] for f in figures if "stock" in f]
    names = [f["name"] for f in figures] + stocks * 2 + ["notes_outstanding", "nope"]
    return doc, {
        "terms": draw(st.sampled_from([1, 2, 1, 2, 0])),
        "format": draw(st.sampled_from(["csv", "json"])),
        "corrupt": draw(st.booleans()),
        "strict": draw(st.booleans()),
        "horizon": draw(st.integers(1, 2)),
        "dims": draw(st.lists(st.sampled_from(names), max_size=2, unique=True)),
        "shock_scale": draw(st.sampled_from([0.0, 1e-4, 1.0, 1e308])),
    }


def contract_run(*argv):
    """`invoke` with stderr captured, held to the exit-code contract."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, output = invoke(*argv)
    if code == 1:
        assert "=VIOLATED" in output or ("--strict" in argv and '"converged": false' in output)
    elif code == 2:  # after any warning lines
        lines = err.getvalue().splitlines()
        assert [line.startswith("moneyflow: error: ") for line in lines][-1:] == [True], lines
        assert sum(line.startswith("moneyflow: error: ") for line in lines) == 1, lines
    else:
        assert code == 0
    return code


def known_case(doc, **options):
    """An explicit fuzz case: `doc` run with these options over the defaults."""
    return doc, {"terms": 2, "format": "csv", "corrupt": False, "strict": False, "horizon": 2,
                 "dims": [], "shock_scale": 1.0, **options}


def retiring_issuance():
    doc = three_agent_cycle().to_dict()
    doc["issuance_schedule"] = [[0.5, -5]]
    return doc


NO_CHANNELS = {"agents": [{"id": "CB", "role": "CentralBank"}, {"id": "A", "role": "Custom:x"}],
               "issuance_schedule": [[0.5, 10]], "figures": [{"name": "a_stock", "stock": "CB"}]}


class TestContractFuzz:
    """Every subcommand on generated scenario and record files exits 0, 2
    with one error line, or 1 for a documented domain failure; nothing escapes."""

    @given(case=cli_cases())
    @example(case=known_case(retiring_issuance()))
    @example(case=known_case(overflowing_cycle(), horizon=1, dims=["ab_flow"]))
    @example(case=known_case(NO_CHANNELS, dims=["a_stock"]))
    @example(case=known_case(n5_stock_doc(), terms=0, dims=["hh_stock"], shock_scale=1e308))
    @example(case=known_case(huge_rate_cycle()))
    @settings(max_examples=60, deadline=timedelta(seconds=3),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_subcommand(self, tmp_path, case):
        doc, options = case
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        scenario, record = work / "s.json", work / f"r.{options['format']}"
        scenario.write_text(json.dumps(doc))
        terms = str(options["terms"])
        contract_run("simulate", "--scenario", str(scenario), "--terms", terms)
        if contract_run("record", "--scenario", str(scenario), "--terms", terms,
                        "--out", str(record), "--format", options["format"]) == 0:
            if options["corrupt"]:  # a digit changed near the first agent entry
                text = record.read_text()
                at = text.find('"closing": ' if options["format"] == "json" else ",agent,")
                if at >= 0:
                    record.write_text(text[:at] + text[at:].replace("0", "1", 1))
            contract_run("verify", "--record", str(record))
            contract_run("fit", "--scenario", str(scenario), "--target", str(record),
                         "--budget", "8", "--starts", "1", *["--strict"][:options["strict"]])
        dims = ("--dims", ",".join(options["dims"])) if options["dims"] else ()
        contract_run("anticipate", "--scenario", str(scenario), "--horizon",
                     str(options["horizon"]), "--candidates", "2", "--replays", "2", *dims,
                     "--shock-scale", repr(options["shock_scale"]))
