"""Balance sheet compilation, identity verification, and record serialization."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from moneyflow import (
    BalanceSheet,
    Record,
    Recorder,
    RecordError,
    ShockSpec,
    build_network,
    inject_shock,
    issue,
    read_record,
    run,
    run_record,
    settle_all,
    transfer,
    two_agent_kernel,
    verify_identities,
    verify_record,
    write_record,
)
from moneyflow.recorder import AgentLine, record_from_csv, record_to_csv, record_to_json
from moneyflow.scenario import AgentSpec, ChannelSpec, FigureSpec, ScenarioSpec

from conftest import tiny_spec

DATA = Path(__file__).parent / "data"


def pair_spec():
    return ScenarioSpec(
        name="pair",
        agents=(
            AgentSpec("CB", "CentralBank"),
            AgentSpec("A", "Custom:t", gain=Fraction(0), mean_wait=0.5),
            AgentSpec("B", "Custom:t", gain=Fraction(0), mean_wait=0.5),
        ),
        channels=(
            ChannelSpec("ab", "A", "B", 0),
            ChannelSpec("ba", "B", "A", 0),
        ),
        figures=(FigureSpec("ab_flow", channel="ab"),),
    )


def cut_and_compile(state, n_terms):
    """Take the observer cuts of terms 0..n_terms-1 now and compile their sheets."""
    recorder = Recorder(state)
    sheets = []
    for k in range(n_terms):
        settle_all(state, float(k + 1), term=k)
        sheets.append(recorder.compile_term())
    return sheets


class TestCompile:
    def test_empty_term_all_zero(self):
        state = build_network(pair_spec())
        sheet = cut_and_compile(state, 2)[1]
        for line in sheet.agents.values():
            assert line.inflow == line.outflow == 0
            assert line.closing == line.opening

    def test_single_transfer(self):
        state = build_network(pair_spec())
        transfer(state, "ab", 30, 0.5)
        sheet = cut_and_compile(state, 1)[0]
        assert sheet.agents["A"].outflow == 30
        assert sheet.agents["B"].inflow == 30
        assert sheet.figures["ab_flow"] == 30

    def test_three_event_hand_sum(self):
        # Hand oracle: transfers 30 out of A, 12 back, issuance 100 to CB.
        state = build_network(pair_spec())
        transfer(state, "ab", 30, 0.2)
        transfer(state, "ba", 12, 0.4)
        issue(state, 100, 0.6)
        sheet = cut_and_compile(state, 1)[0]
        assert sheet.agents["A"] == AgentLine(0, 12, 30, -18)
        assert sheet.agents["B"] == AgentLine(0, 30, 12, 18)
        assert sheet.agents["CB"] == AgentLine(0, 100, 0, 100)
        assert sheet.notes_outstanding == 100
        assert verify_identities(sheet).ok

    def test_incomplete_coverage_rejected(self):
        state = build_network(pair_spec())
        transfer(state, "ab", 30, 0.5)
        recorder = Recorder(state)
        with pytest.raises(RecordError, match="no observer cut for term 0"):
            recorder.compile_term()
        settle_all(state, 1.0, term=0)
        assert recorder.compile_term().agents["A"] == AgentLine(0, 0, 30, -30)

    def test_shock_counts_in_totals_not_figures(self):
        state = build_network(pair_spec())
        inject_shock(state, "B", 40, 0.3, channel_id="ab")
        sheet = cut_and_compile(state, 1)[0]
        assert sheet.agents["B"].inflow == 40
        assert sheet.agents["A"].outflow == 40
        assert sheet.figures["ab_flow"] == 0
        assert verify_identities(sheet).ok

    def test_events_after_a_cut_open_the_next_term(self):
        state = build_network(pair_spec())
        recorder = Recorder(state)
        settle_all(state, 1.0, term=0)
        transfer(state, "ab", 30, 1.0)
        settle_all(state, 2.0, term=1)
        first, second = recorder.compile_term(), recorder.compile_term()
        assert first.agents["A"] == AgentLine(0, 0, 0, 0)
        assert second.agents["A"] == AgentLine(0, 0, 30, -30)

    def test_cut_of_another_term_rejected(self):
        state = build_network(pair_spec())
        settle_all(state, 1.0, term=1)
        with pytest.raises(RecordError, match="cut of term 1 where term 0 was expected"):
            Recorder(state).compile_term()


def boundary_kernel(term_length, shocks, gain=Fraction(0)):
    """The 40/28 pair at the given term length, with shocks on `ab` at term boundaries."""
    spec = replace(two_agent_kernel(40, 28, gain=gain), term_length=term_length)
    return spec.with_extra_shocks(ShockSpec(k * term_length, "ab", amount) for k, amount in shocks)


class TestTermBoundaries:
    def test_boundary_shock_booked_after_the_cut(self):
        # The shock at 5 * term_length is processed after the term-4 cut, so
        # term 4 closes at the stocks of that cut and term 5 carries it.
        length = 1 / 3
        record = run_record(build_network(boundary_kernel(length, [(5, 50)])), 6)
        term4, term5 = record.sheets[4].agents, record.sheets[5].agents
        assert (term4["A"].closing, term4["B"].closing) == (-20, 20)
        assert (term5["A"].outflow - term5["A"].inflow, term5["B"].closing) == (54, 74)

    @pytest.mark.parametrize("length", [0.1, 0.3, 0.7, 1 / 3])
    def test_closing_stocks_equal_stocks_at_the_cut(self, length):
        # Compiled again once the whole log exists, each sheet still closes
        # at the stocks its own cut saw.
        shocks = [(k, 10 * k - 60) for k in range(1, 13)]
        state = build_network(boundary_kernel(length, shocks, gain=Fraction(1)))
        recorder = Recorder(state)
        at_cut = []
        for _ in range(13):
            recorder.record_term()
            at_cut.append({aid: agent.stock for aid, agent in state.agents.items()})
        record = run_record(state, 0)
        assert [{aid: line.closing for aid, line in sheet.agents.items()}
                for sheet in record.sheets] == at_cut
        assert verify_record(record).ok


class TestVerifyIdentities:
    def test_compiled_sheets_pass(self, national5_spec):
        record = run_record(build_network(national5_spec), 3)
        assert verify_record(record).ok

    def test_perturbed_closing_fails_with_discrepancy_one(self, national5_spec):
        record = run_record(build_network(national5_spec), 1)
        sheet = record.sheets[0]
        agents = dict(sheet.agents)
        line = agents["HH"]
        agents["HH"] = AgentLine(line.opening, line.inflow, line.outflow, line.closing + 1)
        tampered = BalanceSheet(sheet.term_index, agents, sheet.notes_outstanding,
                                sheet.securities_outstanding, sheet.rates, sheet.figures)
        report = verify_identities(tampered)
        assert not report.ok
        assert any(c.discrepancy == 1 for c in report.failures())

    def test_empty_agent_sheet_vacuously_passes(self):
        sheet = BalanceSheet(0, {}, 0, 0, {}, {})
        assert verify_identities(sheet).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_identities_across_seeds(self, seed, national5_spec):
        record = run_record(build_network(national5_spec.with_seed(seed)), 4)
        assert verify_record(record).ok


class TestSerialization:
    def sample_record(self, n_terms=2):
        return run_record(build_network(tiny_spec(seed=6)), n_terms)

    def test_csv_round_trip(self, tmp_path):
        record = self.sample_record()
        path = tmp_path / "r.csv"
        write_record(record, path, "csv")
        assert read_record(path) == record

    def test_json_round_trip(self, tmp_path):
        record = self.sample_record()
        path = tmp_path / "r.json"
        write_record(record, path, "json")
        assert read_record(path) == record

    def test_empty_default_record_is_header_only(self):
        assert record_to_csv(Record(())) == "term,kind,id,opening,inflow,outflow,closing,aggregates\n"

    def test_golden_file(self):
        record = Record(
            sheets=(BalanceSheet(
                term_index=0,
                agents={"CB": AgentLine(0, 500, 0, 500), "HH": AgentLine(100, 0, 0, 100)},
                notes_outstanding=500,
                securities_outstanding=0,
                rates={"discount_rate": Fraction(1, 40), "securities_interest_rate": Fraction(0)},
                figures={"consumption_flow": 0},
            ),),
            fingerprint="deadbeefdeadbeef",
            term_length=1.0,
            initial_total_stock=100,
        )
        golden = (DATA / "golden_record.csv").read_text(encoding="utf-8")
        assert record_to_csv(record) == golden
        assert record_from_csv(golden) == record

    def test_non_contiguous_terms_rejected(self):
        sheet0 = BalanceSheet(0, {}, 0, 0, {}, {})
        sheet2 = BalanceSheet(2, {}, 0, 0, {}, {})
        with pytest.raises(RecordError, match="contiguous"):
            Record((sheet0, sheet2))

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("term,kind,id,opening,inflow,outflow,closing,aggregates\n"
                        "0,agent,A,1,2,3\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 2"):
            read_record(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"format\": \"moneyflow-record\",\n  oops\n}", encoding="utf-8")
        with pytest.raises(RecordError, match="line 3"):
            read_record(path)

    def test_external_csv_with_identities_accepted(self, tmp_path):
        text = ("term,kind,id,opening,inflow,outflow,closing,aggregates\n"
                "0,agent,X,0,7,2,5,\n"
                "0,agent,Y,0,2,7,-5,\n"
                "0,aggregates,,,,,,notes_outstanding=0 government_securities_outstanding=0\n")
        path = tmp_path / "ext.csv"
        path.write_text(text, encoding="utf-8")
        record = read_record(path)
        assert record.sheets[0].agents["X"].closing == 5

    def test_identity_violation_rejected_or_warns(self, tmp_path):
        text = ("term,kind,id,opening,inflow,outflow,closing,aggregates\n"
                "0,agent,X,0,7,2,6,\n"
                "0,aggregates,,,,,,notes_outstanding=6 government_securities_outstanding=0\n")
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RecordError, match="identities violated"):
            read_record(path)
        with pytest.warns(UserWarning, match="identities violated"):
            read_record(path, on_identity_violation="warn")
        read_record(path, on_identity_violation="skip")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown record format"):
            write_record(Record(()), tmp_path / "x", "yaml")


class TestRecordOfRun:
    def test_compile_of_run_deterministic(self, national5_spec):
        a = run_record(build_network(national5_spec), 3)
        b = run_record(build_network(national5_spec), 3)
        assert a == b
        assert record_to_json(a) == record_to_json(b)

    def test_boundary_cut_flagged_observer(self, national5_spec):
        state = build_network(national5_spec)
        run_record(state, 2)
        cuts = [e for e in state.log if e.kind == "Settlement" and e.payload.get("observer")]
        assert [e.payload["term"] for e in cuts] == [0, 1]

    def test_incremental_runs_extend_the_record(self):
        state = build_network(tiny_spec(seed=3))
        first = run_record(state, 2)
        both = run_record(state, 1)
        assert len(first.sheets) == 2
        assert len(both.sheets) == 3
        assert both.sheets[:2] == first.sheets

    def test_prefix_without_cuts_rejected(self):
        state = build_network(tiny_spec(seed=3))
        run(state, 2.0)
        with pytest.raises(RecordError, match="no observer cut for term 0"):
            run_record(state, 1)

    def test_must_start_on_a_term_boundary(self):
        state = build_network(tiny_spec(seed=3))
        run(state, 0.4)
        with pytest.raises(ValueError, match="term boundary"):
            run_record(state, 1)
