"""Balance sheet compilation, identity verification, and record serialization."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    settle,
    settle_all,
    two_agent_kernel,
    verify_identities,
    verify_record,
    write_record,
)
from moneyflow.recorder import AgentLine, record_from_csv, record_to_csv, record_to_json
from moneyflow.recorder import record_from_json
from moneyflow.scenario import AgentSpec, ChannelSpec, FigureSpec, ScenarioError, ScenarioSpec
from moneyflow.scenario import rational_str

from conftest import json_values, tiny_spec

DATA = Path(__file__).parent / "data"
DOCS = Path(__file__).parent.parent / "docs"


def pair_spec(rate_ab=0, rate_ba=0):
    return ScenarioSpec(
        name="pair",
        agents=(
            AgentSpec("CB", "CentralBank"),
            AgentSpec("A", "Custom:t", gain=Fraction(0), mean_wait=0.5),
            AgentSpec("B", "Custom:t", gain=Fraction(0), mean_wait=0.5),
        ),
        channels=(
            ChannelSpec("ab", "A", "B", rate_ab),
            ChannelSpec("ba", "B", "A", rate_ba),
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
        state = build_network(pair_spec(rate_ab=60))
        settle(state, "A", "B", 0.5)
        state.channels["ab"].rate = 0  # nothing more accrues before the cut
        sheet = cut_and_compile(state, 1)[0]
        assert sheet.agents["A"].outflow == 30
        assert sheet.agents["B"].inflow == 30
        assert sheet.figures["ab_flow"] == 30

    def test_three_event_hand_sum(self):
        # Hand oracle: settlements of 30 out of A and 12 back, issuance 100 to CB.
        state = build_network(pair_spec(rate_ab=30, rate_ba=12))
        settle(state, "A", "B", 0.5)
        issue(state, 100, 0.6)
        settle(state, "B", "A", 1.0)
        sheet = cut_and_compile(state, 1)[0]
        assert sheet.agents["A"] == AgentLine(0, 12, 30, -18)
        assert sheet.agents["B"] == AgentLine(0, 30, 12, 18)
        assert sheet.agents["CB"] == AgentLine(0, 100, 0, 100)
        assert sheet.notes_outstanding == 100
        assert verify_identities(sheet).ok

    def test_incomplete_coverage_rejected(self):
        state = build_network(pair_spec(rate_ab=30))
        settle(state, "A", "B", 0.5)
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
        state.channels["ab"].rate = 30
        settle(state, "A", "B", 2.0)
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

    def test_non_string_fingerprint_rejected(self):
        # The JSON writer quotes the fingerprint as a string; a record read
        # from JSON must have one.
        with pytest.raises(RecordError, match="fingerprint: expected str, got 5"):
            record_from_json(json.dumps({"format": "moneyflow-record", "fingerprint": 5}))

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


AGENT_COLUMNS = ("opening", "inflow", "outflow", "closing")
JSON = json_values()
SHEET_DOCS = st.fixed_dictionaries({}, optional={
    "term_index": st.integers(0, 2) | JSON,
    "agents": st.dictionaries(st.text(max_size=3), st.fixed_dictionaries(
        {}, optional={key: st.integers() | JSON for key in AGENT_COLUMNS}) | JSON, max_size=3) | JSON,
    "notes_outstanding": st.integers() | JSON,
    "government_securities_outstanding": st.integers() | JSON,
    "rates": st.dictionaries(st.text(max_size=4), JSON, max_size=3) | JSON,
    "figures": st.dictionaries(st.text(max_size=4), st.integers() | JSON, max_size=3) | JSON,
})
RECORD_DOCS = st.fixed_dictionaries({"format": st.just("moneyflow-record")}, optional={
    "sheets": st.lists(SHEET_DOCS | JSON, max_size=3) | JSON,
    "fingerprint": JSON,
    "term_length": JSON,
    "initial_total_stock": st.integers() | JSON,
})
CELLS = st.text(alphabet="0123456789-./=ex ", max_size=6)
CSV_ROWS = st.tuples(st.integers(-1, 2).map(str) | CELLS, st.sampled_from(["agent", "aggregates", "x"]),
                     *[CELLS] * 5, st.lists(st.tuples(CELLS, CELLS).map("=".join), max_size=3).map(" ".join)
                     ).map(",".join)
CSV_LINES = st.just("term,kind,id,opening,inflow,outflow,closing,aggregates") | CSV_ROWS \
    | st.tuples(st.sampled_from(["# term_length=", "# initial_total_stock=", "# x"]), CELLS).map("".join) \
    | st.text(max_size=20)


def parses_or_rejects(parse, text):
    """`parse` either returns a record whose identities can be checked, or raises a parse error."""
    try:
        record = parse(text)
    except (RecordError, ScenarioError):
        return
    verify_record(record)


class TestParserFuzz:
    @given(text=RECORD_DOCS.map(json.dumps) | JSON.map(json.dumps) | st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_record_from_json_raises_only_parse_errors(self, text):
        parses_or_rejects(record_from_json, text)

    @given(text=st.lists(CSV_LINES, max_size=8).map("\n".join))
    @settings(max_examples=200, deadline=None)
    def test_record_from_csv_raises_only_parse_errors(self, text):
        parses_or_rejects(record_from_csv, text)


# ---------------------------------------------------------------------------
# The serializers against the implementations they replaced
# ---------------------------------------------------------------------------

def loop_rational_str(value: Fraction) -> str:
    """`rational_str` as first written: scale the Fraction by 10 until it is whole."""
    den = value.denominator
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return f"{value.numerator}/{den}"
    digits = 0
    scaled = value
    while scaled.denominator != 1:
        scaled *= 10
        digits += 1
    units = scaled.numerator
    if digits == 0:
        return str(units)
    sign = "-" if units < 0 else ""
    text = str(abs(units)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def dumped_json(record: Record) -> str:
    """`record_to_json` as first written: build the document, then `json.dumps` it."""
    doc = {
        "format": "moneyflow-record",
        "version": 1,
        "fingerprint": record.fingerprint,
        "term_length": record.term_length,
        "initial_total_stock": record.initial_total_stock,
        "sheets": [
            {
                "term_index": sheet.term_index,
                "agents": {
                    aid: {"opening": line.opening, "inflow": line.inflow,
                          "outflow": line.outflow, "closing": line.closing}
                    for aid, line in sheet.agents.items()
                },
                "notes_outstanding": sheet.notes_outstanding,
                "government_securities_outstanding": sheet.securities_outstanding,
                "rates": {k: loop_rational_str(v) for k, v in sheet.rates.items()},
                "figures": dict(sheet.figures),
            }
            for sheet in record.sheets
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


NAMES = st.text(max_size=4) | st.sampled_from(['"', "\\", 'a"b', "caf\u00e9", "\u2603", "\n", "\x7f"])
DECIMAL_RATIONALS = st.builds(lambda n, a, b: Fraction(n, 2 ** a * 5 ** b),
                              st.integers(-10 ** 9, 10 ** 9), st.integers(0, 12), st.integers(0, 12))
RATIONALS = DECIMAL_RATIONALS | st.builds(lambda n, a, b, d: Fraction(n, 2 ** a * 5 ** b * d),
                                          st.integers(-10 ** 6, 10 ** 6), st.integers(0, 4),
                                          st.integers(0, 4), st.sampled_from([3, 7, 9, 11, 13 ** 3]))
AGENT_LINES = st.builds(AgentLine, st.integers(), st.integers(), st.integers(), st.integers())


@st.composite
def records(draw):
    sheets = tuple(
        BalanceSheet(term, draw(st.dictionaries(NAMES, AGENT_LINES, max_size=3)),
                     draw(st.integers()), draw(st.integers()),
                     draw(st.dictionaries(NAMES, RATIONALS, max_size=3)),
                     draw(st.dictionaries(NAMES, st.integers(), max_size=3)))
        for term in range(draw(st.integers(0, 3))))
    return Record(sheets, draw(NAMES), draw(st.floats(allow_nan=False, allow_infinity=False)),
                  draw(st.integers()))


class TestSerializerOracles:
    @given(value=RATIONALS)
    @settings(max_examples=500, deadline=None)
    def test_rational_str_matches_the_loop(self, value):
        assert rational_str(value) == loop_rational_str(value)

    @given(record=records())
    @settings(max_examples=300, deadline=None)
    def test_json_matches_json_dumps(self, record):
        assert record_to_json(record) == dumped_json(record)

    @pytest.mark.parametrize("record", [
        Record(()),
        Record((BalanceSheet(0, {}, 0, 0, {}, {}),)),
        Record((BalanceSheet(0, {'q"\\u00e9': AgentLine(-1, 0, 2, -3)}, -4, 0, {}, {"f": -5}),),
               fingerprint="caf\u00e9", term_length=1 / 3, initial_total_stock=-2),
    ], ids=["no-sheets", "empty-sheet", "escapes-and-negatives"])
    def test_json_edge_cases(self, record):
        assert record_to_json(record) == dumped_json(record)
        assert record_from_json(record_to_json(record)) == record

    def test_docs_example_is_the_writer_layout(self):
        text = (DOCS / "record-format.md").read_text(encoding="utf-8")
        example = text.split("```json\n", 1)[1].split("```", 1)[0]
        assert record_to_json(record_from_json(example)) == example


class TestCsvRowMessages:
    """Malformed rows name their line and column exactly as before the int() fast path."""

    HEADER = "term,kind,id,opening,inflow,outflow,closing,aggregates\n"

    @pytest.mark.parametrize("rows,message", [
        ("x,agent,A,1,2,3,4,", "line 2 column 1: expected integer, got 'x'"),
        ("0,agent,A,,2,3,4,", "line 2 column 4: expected integer, got ''"),
        ("0,agent,A,1,x,3,4,", "line 2 column 5: expected integer, got 'x'"),
        ("0,agent,A,1,2,3.5,4,", "line 2 column 6: expected integer, got '3.5'"),
        ("0,agent,A,1,2,3,4e0,", "line 2 column 7: expected integer, got '4e0'"),
        ("0,agent,A,1,2,x,y,", "line 2 column 6: expected integer, got 'x'"),
        ("0,agent,,1,x,3,4,", "line 2 column 3: agent row needs an id"),
        ("0,agent,A,1,2,3", "line 2: expected 8 columns, found 6"),
        ("0,agent,A,1,2,3,4,\n1,agent,B,1,2,3,4,", "line 3: unexpected term 1 inside term 0 block"),
        ("0,bogus,A,1,2,3,4,", "line 2 column 2: unknown row kind 'bogus'"),
        ("0,aggregates,,,,,,notes_outstanding=x", "line 2 notes_outstanding: expected integer, got 'x'"),
        ("0,aggregates,,,,,,flow=1.5x", "line 2 flow: cannot parse rational '1.5x'"),
        ("0,aggregates,,,,,,flow=2 bad", "line 2 column 8: malformed aggregate 'bad'"),
        ("0,agent,A,1,2,3,4,", "term 0: agent rows without a closing aggregates row"),
    ])
    def test_exact_messages(self, rows, message):
        with pytest.raises((RecordError, ScenarioError)) as info:
            record_from_csv(self.HEADER + rows + "\n")
        assert str(info.value) == message
